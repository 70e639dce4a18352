"""No module of the package changes the process's warning state: the
filters belong to the program that imports the package, and swapping them
(`warnings.catch_warnings`) is not thread-safe."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaitassist"
MODULES = sorted(PACKAGE.glob("*.py"))
STATE_CHANGES = {"catch_warnings", "filterwarnings", "simplefilter", "resetwarnings"}


def warning_state_calls(source: str) -> list[tuple[int, str]]:
    """Line and name of each call in `source` of an attribute or name that
    changes the warning filters, in source order."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in STATE_CHANGES:
                calls.append((node.lineno, name))
    return sorted(calls)


def test_the_check_finds_what_it_looks_for():
    source = (
        "import warnings\n"
        "from warnings import simplefilter as simplefilter\n"
        "def read(fh):\n"
        "    with warnings.catch_warnings():\n"
        '        warnings.filterwarnings("ignore")\n'
        "        simplefilter('error')\n"
        "    warnings.warn('kept')\n"
        "warnings.resetwarnings()\n"
    )
    assert warning_state_calls(source) == [
        (4, "catch_warnings"), (5, "filterwarnings"), (6, "simplefilter"), (8, "resetwarnings"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_changes_the_warning_filters(path):
    assert warning_state_calls(path.read_text(encoding="utf-8")) == []
