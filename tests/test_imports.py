"""Every name a module of the package imports is used in that module or
exported by its `__all__`: a standard-library stand-in for a linter's
unused-import check."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaitassist"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names that `source` imports, other than from `__future__`, and neither
    reads anywhere nor lists in a module-level `__all__`, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport numpy as np\n"
        "from math import inf, nan\nfrom json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f() -> float:\n    import sys\n    return np.pi + inf\n"
    )
    assert unused_imports(source) == ["os", "os", "nan", "sys"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
