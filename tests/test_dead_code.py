"""Every module-level function and class of the package is referenced
somewhere in the package, outside its own body, or exported by an
`__all__`: no code lives only for tests."""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaitassist"
MODULES = sorted(PACKAGE.glob("*.py"))


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
