"""`trial_io` owns every on-disk spelling: inside the package only
`trial_io._loadtxt` calls `np.loadtxt`, and no other module holds a `.6f`
format, so each table has one reader and each float cell one spelling."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaitassist"
MODULES = sorted(PACKAGE.glob("*.py"))


def loadtxt_callers(source: str) -> list[str]:
    """The function, or `<module>`, around each call of a `loadtxt` attribute
    or name in `source`, in source order."""
    callers = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "loadtxt":
                    callers.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return callers


def six_decimal_formats(source: str) -> list[int]:
    """Lines of the string constants, docstrings aside, that hold `.6f`:
    `%`-formats and the format specs of f-strings alike."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and ".6f" in node.value
        and id(node) not in docstrings
    )


def test_the_checks_find_what_they_look_for():
    source = (
        '"""Spelled as `%.6f`."""\n'
        "import numpy as np\n"
        "from numpy import loadtxt\n"
        "def _loadtxt(fh):\n    return np.loadtxt(fh)\n"
        "def other(fh, x):\n"
        '    """`{x:.6f}`"""\n'
        '    return loadtxt(fh), f"{x:.6f}", "%.6f" % x\n'
        "table = np.loadtxt('t.csv')\n"
    )
    assert loadtxt_callers(source) == ["_loadtxt", "other", "<module>"]
    assert six_decimal_formats(source) == [8, 8]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_trial_io_reads_and_spells_tables(path):
    source = path.read_text(encoding="utf-8")
    expected = ["_loadtxt"] if path.name == "trial_io.py" else []
    assert loadtxt_callers(source) == expected
    if path.name != "trial_io.py":
        assert six_decimal_formats(source) == []
