"""`gait` owns the phase codes: inside the package only `gait` defines
`STATE_BY_CODE`, `gait_state_codes` and `phases_from_flips`, and every
other module that uses one imports it from `gait` under its own name and
re-exports none, so a phase becomes a code and flips become phases in one
place."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaitassist"
MODULES = sorted(PACKAGE.glob("*.py"))
OWNED = {"STATE_BY_CODE", "gait_state_codes", "phases_from_flips"}


def owned_names(source: str) -> dict[str, set[str]]:
    """The owned names `source` defines (a def, a class, an assignment or an
    import from anywhere but `.gait`, or under another name), imports from
    `.gait`, and reads as a name or as an attribute of anything but `gait`."""
    found: dict[str, set[str]] = {"defines": set(), "imports": set(), "reads": set()}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found["defines"].add(node.name)
        elif isinstance(node, ast.Name):
            found["defines" if isinstance(node.ctx, ast.Store) else "reads"].add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id == "gait"):
                found["reads"].add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            from_gait = node.module == "gait" and node.level == 1
            for alias in node.names:
                if from_gait and alias.asname is None:
                    found["imports"].add(alias.name)
                else:
                    found["defines"].add(alias.asname or alias.name)
    return {key: names & OWNED for key, names in found.items()}


def test_the_check_finds_what_it_looks_for():
    source = (
        "from . import gait\n"
        "from .gait import STATE_BY_CODE\n"
        "from .simgait import gait_state_codes\n"
        "from .gait import phases_from_flips as flips\n"
        "codes = gait.gait_state_codes(p), simgait.STATE_BY_CODE\n"
        "def phases_from_flips(): pass\n"
    )
    assert owned_names(source) == {
        "defines": {"gait_state_codes", "phases_from_flips"},
        "imports": {"STATE_BY_CODE"},
        "reads": {"STATE_BY_CODE"},
    }


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_gait_defines_the_phase_codes(path):
    found = owned_names(path.read_text(encoding="utf-8"))
    if path.name == "gait.py":
        assert found["defines"] == OWNED
    else:
        assert found["defines"] == set()
        assert found["imports"] == found["reads"]
