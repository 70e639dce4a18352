"""Every module-level function and class of the package is referenced
somewhere in the package, outside its own body, or exported by an
`__all__`, and every module-level constant is read somewhere in it: no code
or table lives only for tests. Only `__main__` runs as a script."""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaitassist"
MODULES = sorted(PACKAGE.glob("*.py"))
# Bound but never read in the package: perfbench/spans.py looks these up on
# `runner` and wraps them (tests/test_perfbench_hooks.py)
PERFBENCH_HOOKS = ["runner.replay", "runner.fsr_step", "runner.vel_step", "runner.controller_tick"]


def unreferenced(sources: dict[str, str]) -> list[str]:
    """`module.name` of each module-level function or class of `sources`
    (module name to source text) that no module reads as a name or an
    attribute outside the definition itself, and no module-level `__all__`
    lists, in module and source order."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()

    def reads(node: ast.AST) -> set[str]:
        return {
            child.id if isinstance(child, ast.Name) else child.attr
            for child in ast.walk(node)
            if isinstance(child, (ast.Name, ast.Attribute))
        }

    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
                used |= reads(node) - {node.name}
                continue
            used |= reads(node)
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
    return [f"{module}.{name}" for module, name in defined if name not in used]


def unread_constants(sources: dict[str, str]) -> list[str]:
    """`module.name` of each name that a module-level assignment of `sources`
    binds and that no module reads, as a name or an attribute, and no
    module-level `__all__` lists, in module and source order. Dunder names
    are left out."""
    bound: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            bound += [(module, name) for name in names]
            if names == ["__all__"]:
                read |= set(ast.literal_eval(node.value))
        read |= {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }
    return [f"{module}.{name}" for module, name in bound
            if name not in read and not name.startswith("__")]


def test_the_check_finds_dead_definitions():
    sources = {
        "a": (
            "__all__ = ['exported']\n"
            "def exported(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def called(): pass\n"
            "class Dead:\n    def method(self): return Dead\n"
        ),
        "b": "from a import called\nimport a\nx = called() or a.Used\nclass Used: pass\n",
    }
    assert unreferenced(sources) == ["a.recursive", "a.Dead"]


def test_every_definition_has_a_caller():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced(sources) == []


def test_the_check_finds_unread_constants():
    sources = {
        "a": (
            "__all__ = ['EXPORTED']\n"
            "EXPORTED = 1\n"
            "_TABLE = [1, 2]\n"
            "_LEFT_BEHIND, COUNT = 2, 3\n"
            "def f(): _LEFT_BEHIND = 4; return _TABLE\n"
        ),
        "b": "import a\nx: int = a.COUNT\n",
    }
    assert unread_constants(sources) == ["a._LEFT_BEHIND", "b.x"]


def test_every_constant_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_constants(sources) == PERFBENCH_HOOKS


def script_blocks(sources: dict[str, str]) -> list[str]:
    """The modules of `sources` (module name to source text) that hold an
    `if __name__ == "__main__":` test anywhere, in module order."""
    return [
        module
        for module, source in sources.items()
        if any(
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Name)
            and node.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__" for c in node.comparators)
            for node in ast.walk(ast.parse(source))
        )
    ]


def test_the_check_finds_script_blocks():
    sources = {
        "a": "import sys\nif __name__ == '__main__':\n    sys.exit(0)\n",
        "b": "def f():\n    return __name__\nNAME = '__main__'\n",
        "c": "def g():\n    if __name__ == \"__main__\": pass\n",
    }
    assert script_blocks(sources) == ["a", "c"]


def test_only_the_package_entry_runs_as_a_script():
    """`python -m gaitassist` (`__main__.run_process`) is the one process
    entry: it runs with the collector off and exits without teardown."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert script_blocks(sources) == ["__main__"]
