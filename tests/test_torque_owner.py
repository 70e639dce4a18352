"""`controller` owns the torque law: inside the package only it reads the
controller's gains and ramp rate, so the split between the legs and the ramp
limit each have one home."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaitassist"
MODULES = sorted(PACKAGE.glob("*.py"))
TORQUE_SETTINGS = {"k_stance", "k_swing", "k_myo_nm", "ramp_rate_nm_s"}


def torque_setting_reads(source: str) -> list[int]:
    """Lines that read one of TORQUE_SETTINGS as an attribute, in order."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in TORQUE_SETTINGS
    )


def test_the_check_finds_what_it_looks_for():
    source = (
        '"""Names `k_stance` in a docstring."""\n'
        "def split(cfg):\n"
        "    return cfg.k_stance * 2, cfg.controller.k_swing\n"
        "step = config.ramp_rate_nm_s / 100\n"
        "k_myo_nm = 10.0\n"
    )
    assert torque_setting_reads(source) == [3, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_controller_reads_the_torque_settings(path):
    reads = torque_setting_reads(path.read_text(encoding="utf-8"))
    if path.name == "controller.py":
        assert reads
    else:
        assert reads == []
