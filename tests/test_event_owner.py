"""`gait` owns the event layout: inside the package only `gait` defines
`FEET`, `KINDS`, `Events` and `GaitEvent`, only `Events.__iter__` builds a
`GaitEvent`, and no other module spells a foot or kind code table of its
own as `tuple(Foot)` or `tuple(EventKind)`, so an event stream is one set of
arrays from the detectors to `events.csv`."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaitassist"
MODULES = sorted(PACKAGE.glob("*.py"))
OWNED = {"FEET", "KINDS", "Events", "GaitEvent"}
ENUMS = {"Foot", "EventKind"}


def _name(node: ast.AST) -> str | None:
    """The name a call's function is read by: `f` or the attribute of `x.f`."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def event_code(source: str) -> dict[str, set[str]]:
    """The owned names `source` defines (a def, a class, an assignment or an
    import from anywhere but `.gait`, or under another name); the function
    or class each `GaitEvent(...)` call sits in, `<module>` at the top
    level; and the enums it turns into a code table with `tuple(...)`."""
    found: dict[str, set[str]] = {"defines": set(), "builds": set(), "tables": set()}

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found["defines"].add(node.name)
            scope = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found["defines"].add(node.id)
        elif isinstance(node, ast.ImportFrom):
            from_gait = node.module == "gait" and node.level == 1
            for alias in node.names:
                if not from_gait:
                    found["defines"].add(alias.asname or alias.name)
                elif alias.asname is not None:
                    found["defines"].add(alias.name)
        elif isinstance(node, ast.Call):
            if _name(node.func) == "GaitEvent":
                found["builds"].add(scope)
            elif _name(node.func) == "tuple" and len(node.args) == 1:
                found["tables"] |= {_name(node.args[0])} & ENUMS
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    found["defines"] &= OWNED
    return found


def test_the_check_finds_what_it_looks_for():
    source = (
        "from .gait import Events, GaitEvent\n"
        "from .simgait import FEET\n"
        "from .gait import KINDS as kinds\n"
        "_FEET, _KINDS = tuple(Foot), tuple(gait.EventKind)\n"
        "first = GaitEvent(0.0, Foot.LEFT, EventKind.TOE_OFF)\n"
        "def read(rows):\n"
        "    return [gait.GaitEvent(*row) for row in rows], tuple(Phase)\n"
    )
    assert event_code(source) == {
        "defines": {"FEET", "KINDS"},
        "builds": {"<module>", "read"},
        "tables": {"Foot", "EventKind"},
    }


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_gait_defines_the_event_layout(path):
    found = event_code(path.read_text(encoding="utf-8"))
    if path.name == "gait.py":
        assert found == {"defines": OWNED, "builds": {"__iter__"}, "tables": ENUMS}
    else:
        assert found == {"defines": set(), "builds": set(), "tables": set()}
