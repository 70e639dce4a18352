"""Declared setting ranges: every settings field and CLI key has one, and
`check_ranges` enforces it at and around each bound, in the library and
through both ways the CLI takes a setting (flag and config file)."""
from __future__ import annotations

import argparse
import math
from dataclasses import fields

import pytest

from gaitassist.cli import _RUN_DEFAULTS, _SIM_DEFAULTS, build_parser, main
from gaitassist.controller import ControllerConfig
from gaitassist.errors import InvalidSpecError
from gaitassist.gait_fsr import FsrDetectorConfig
from gaitassist.gait_vel import VelDetectorConfig
from gaitassist.runner import DetectionMode
from gaitassist.signals import EmgChannel, TimeSeries
from gaitassist.simgait import ChannelRates, GaitParams
from gaitassist.trial_io import format_value

SETTINGS = (ControllerConfig, FsrDetectorConfig, VelDetectorConfig, GaitParams, ChannelRates)
UNRANGED_KEYS = {"duration_s", "mode"}  # checked by generate and by cmd_run
TINY = math.nextafter(0.0, 1.0)
# each settings key's declaring field, mapped here independently of the CLI
KEY_FIELDS = {f.name: f for cls in SETTINGS for f in fields(cls)}


def build(cls, **kwargs):
    if cls is EmgChannel:
        return EmgChannel(TimeSeries([0.0], 1000.0), **kwargs)
    if "contact_threshold_n" in kwargs:
        # the one cross-field rule a contact threshold meets: a release below it
        kwargs["release_threshold_n"] = TINY
    return cls(**kwargs)


def inside(interval: str, value: float) -> bool:
    lo, hi = (float(b) for b in interval[1:-1].split(","))
    above = lo <= value if interval[0] == "[" else lo < value
    return above and (value <= hi if interval[-1] == "]" else value < hi)


def candidates(interval: str, integer: bool) -> list:
    """NaN, both infinities, each finite bound and its float neighbours; for
    an integer field also the whole numbers next to its lower bound."""
    values = [math.nan, math.inf, -math.inf]
    for bound in (float(b) for b in interval[1:-1].split(",")):
        if math.isfinite(bound):
            values += [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
            if integer:
                values += [int(bound) - 1, int(bound), int(bound) + 1]
    return values


RANGED = [(cls, f) for cls in (*SETTINGS, EmgChannel) for f in fields(cls) if f.name != "raw"]


def test_every_setting_and_key_declares_a_range():
    for cls, f in RANGED:
        assert isinstance(f.metadata.get("range"), str), f"{cls.__name__}.{f.name}"
    integers = {f.name for _, f in RANGED if f.metadata.get("integer")}
    assert integers == {"peak_confirm_samples", "seed"}
    # a settings key is its field's name
    assert {*_SIM_DEFAULTS, *_RUN_DEFAULTS} - UNRANGED_KEYS == set(KEY_FIELDS)
    for key in {*_SIM_DEFAULTS, *_RUN_DEFAULTS} - UNRANGED_KEYS:
        assert key in KEY_FIELDS, f"settings key {key!r} maps to no declared range"
        assert _SIM_DEFAULTS.get(key, _RUN_DEFAULTS.get(key)) == KEY_FIELDS[key].default


@pytest.mark.parametrize("cls, f", RANGED, ids=[f"{c.__name__}.{f.name}" for c, f in RANGED])
def test_values_outside_the_range_raise_and_inside_construct(cls, f):
    interval, integer = f.metadata["range"], f.metadata.get("integer", False)
    for value in candidates(interval, integer):
        if inside(interval, value) and (not integer or isinstance(value, int)):
            if cls is FsrDetectorConfig and f.name == "contact_threshold_n" and value == TINY:
                # (0, TINY) holds no double for the release threshold
                with pytest.raises(InvalidSpecError, match="below contact_threshold_n"):
                    build(cls, **{f.name: value})
                continue
            assert getattr(build(cls, **{f.name: value}), f.name) == value
        else:
            with pytest.raises(InvalidSpecError, match=f"^{f.name} must be .+"):
                build(cls, **{f.name: value})
    if integer:
        for value in (True, float(f.default)):
            with pytest.raises(InvalidSpecError, match="whole number"):
                build(cls, **{f.name: value})


def _cli(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return int(exc.code)


def _actions(command: str) -> list[argparse.Action]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]._actions


def _flag(key: str) -> str:
    """The option string that sets `key`, as the parser declares it."""
    command = "simulate" if key in _SIM_DEFAULTS else "run"
    return next(a.option_strings[0] for a in _actions(command) if a.dest == key)


@pytest.mark.parametrize("command", ["simulate", "run"])
def test_help_shows_each_default_and_declared_range(command):
    shown = {a.dest: a.help for a in _actions(command)}
    keys = _SIM_DEFAULTS if command == "simulate" else {**_RUN_DEFAULTS, **_SIM_DEFAULTS}
    for key in keys:
        if key in KEY_FIELDS:
            f = KEY_FIELDS[key]
            assert shown[key] == f"default {format_value(f.default)}, range {f.metadata['range']}"
    assert shown["duration_s"] == "default 60.000000"
    if command == "run":
        modes = ", ".join(m.value for m in DetectionMode)
        assert shown["mode"] == f"default foot-sensors, one of {modes}"
        assert modes == "foot-sensors, actuators-velocity"


@pytest.mark.parametrize("key", sorted(KEY_FIELDS))
def test_out_of_range_flag_and_config_value_give_one_identical_line(key, tmp_path, capsys):
    f = KEY_FIELDS[key]
    interval, integer = f.metadata["range"], f.metadata.get("integer", False)
    flag = _flag(key)
    command = ["simulate"] if key in _SIM_DEFAULTS else ["run", "--simulate"]
    for value in candidates(interval, integer):
        if inside(interval, value) or (integer and not isinstance(value, int)):
            continue  # an int setting refuses a float as unparsable, before any range check
        out = tmp_path / "out"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value!r}\n")
        lines = []
        for extra in ([f"{flag}={value!r}"], ["--config", str(cfg)]):
            capsys.readouterr()
            assert _cli([*command, "--out", str(out), "--duration", "10", *extra]) == 1
            lines.append(capsys.readouterr().err)
            assert not out.exists()
        assert lines[0] == lines[1], (key, value)
        assert lines[0].startswith(f"gaitassist: error: {f.name} must be ")
        assert lines[0].count("\n") == 1


def test_unlimited_ramp_rate_is_accepted(tmp_path):
    assert ControllerConfig(ramp_rate_nm_s=math.inf).ramp_rate_nm_s == math.inf
    cfg = tmp_path / "ramp.cfg"
    cfg.write_text("ramp_rate_nm_s = inf\n")
    for i, extra in enumerate((["--ramp-rate", "unlimited"], ["--config", str(cfg)])):
        out = tmp_path / f"run{i}"
        argv = ["run", "--simulate", "--duration", "10", "--out", str(out), *extra]
        assert _cli(argv) == 0
        assert "ramp_rate_nm_s = unlimited\n" in (out / "run_manifest.txt").read_text()
