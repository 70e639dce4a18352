"""The CLI's other inputs, fuzzed in process.

Each example mutates one input: a metrics CSV that `compare` reads as its
baseline or as another file, or the `--config` file of `simulate` or of
`run --simulate`. The mutation is to the file's bytes (truncation, a
byte-order mark, a non-UTF-8 byte, any other byte), a cell or value, a key
or header cell, or a line, or it deletes the file. Then the command exits
0, 1 or 2; a non-zero exit writes exactly one stderr line, no traceback and
no warning, which a command process would print to stderr too. The trials
stay at 2 s, so every example is small.
"""
from __future__ import annotations

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaitassist.cli import main
from gaitassist.settings import format_named_rows

METRICS = ("emg_rms", "emg_p90", "stride_length_m", "speed_m_s")
CELLS = [
    "nan", "inf", "-inf", "", "abc", "1e400", "-1e308", "1e308", "0", "-0", "0.000000", " 1.5",
    "1_0", "+2.0", "0x10", "١٢", "1,2", "1e-320", "unlimited",
]
VALUES = [
    "", "abc", "nan", "inf", "-inf", "-1", "0", "1e308", "1e-308", "1" + "0" * 400, "true",
    "false", "1.5", "2.5", "0.75", "unlimited", "UNLIMITED", "٣", "foot-sensors",
    "actuators-velocity", "7", "200", "4000",
]
KEYS = [
    "duration_s", "cadence_hz", "control_rate_hz", "emg_rate_hz", "noise_sigma", "seed",
    "emg_level", "speed_m_s", "mode", "ramp_rate_nm_s", "k_swing", "min_phase_s",
    "peak_confirm_samples", "unknown_key", "", "duration s", "﻿seed",
]
BYTES = list(b"0123456789-.,=\n\r #eE+x\t\x00\x85")

SIM_CONFIG = "duration_s = 2.0\ncadence_hz = 2.5\nseed = 5\nnoise_sigma = 0.05\n"
RUN_CONFIG = SIM_CONFIG + (
    "mode = actuators-velocity\nramp_rate_nm_s = 50.0\nk_stance = 0.6\nmin_phase_s = 0.15\n"
    "peak_confirm_samples = 3\n"
)


def metrics_csv(scale: float) -> str:
    rows = [(f"t{i}", [scale * (i + 1) * (j + 1) for j in range(len(METRICS))]) for i in range(3)]
    return format_named_rows(["trial", *METRICS], rows)


def mutate(data: bytes, draw, table: bool) -> bytes | None:
    """One drawn mutation of a metrics table (`table`) or a config file
    holding `data`; None deletes the file."""
    kind = draw(st.sampled_from(
        ["truncate", "bom", "non-utf8", "byte", "value", "key", "line", "delete"]
    ))
    at = draw(st.integers(0, len(data)))
    lines = data.splitlines(keepends=True)
    row = draw(st.integers(0, len(lines) - 1))
    if kind == "truncate":
        return data[:at]
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "non-utf8":
        return data[:at] + b"\xff" + data[at:]
    if kind == "byte":
        return data[:at] + bytes([draw(st.sampled_from(BYTES))]) + data[at + 1 :]
    if kind == "delete":
        return None
    if kind == "line":  # drop, repeat or add a line
        extra = draw(st.sampled_from(
            [b"", lines[row], b"# a comment\n", b"\n", b"a line\n", b"= 1\n", b"seed =\n"]
        ))
        return b"".join(lines[:row] + [extra] + lines[row + (extra == b"") :])
    if table and kind == "key":  # a header cell
        row = 0
    text = lines[row].decode().rstrip("\n")
    if table:
        cells = text.split(",")
        choices = CELLS + ["trial", *METRICS] if kind == "key" else CELLS
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(choices))
        text = ",".join(cells)
    else:
        key, _, value = text.partition(" = ")
        if kind == "key":
            key = draw(st.sampled_from(KEYS))
        else:
            value = draw(st.sampled_from(VALUES))
        text = f"{key} = {value}"
    lines[row] = (text + "\n").encode()
    return b"".join(lines)


def write(path: Path, data: bytes | None) -> None:
    if data is not None:
        path.write_bytes(data)


def run(argv: list[str]) -> tuple[int, str]:
    """`main(argv)`, its exit code and its stderr: exit 0, 1 or 2, and on a
    non-zero exit one stderr line, no traceback and no warning."""
    err = io.StringIO()
    with (
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code, text)
    if code:
        assert text.endswith("\n") and text.count("\n") == 1, (argv, text)
        assert "Traceback" not in text
        assert not caught, (argv, text, [str(w.message) for w in caught])
    return code, text


_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_SETTINGS
@given(data=st.data())
def test_compare_with_a_mutated_metrics_csv_exits_0_1_or_2(tmp_path, data):
    names = ("baseline.csv", "other.csv")
    broken = data.draw(st.sampled_from(names))
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    for name, scale in zip(names, (1.0, 1.5)):
        text = metrics_csv(scale).encode()
        write(out / name, mutate(text, data.draw, table=True) if name == broken else text)
    run(["compare", "--baseline", str(out / names[0]), str(out / names[1])])


@_SETTINGS
@given(data=st.data(), command=st.sampled_from(["simulate", "run"]))
def test_a_mutated_config_file_exits_0_1_or_2(tmp_path, data, command):
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    config = out / "settings.txt"
    text = (SIM_CONFIG if command == "simulate" else RUN_CONFIG).encode()
    write(config, mutate(text, data.draw, table=False))
    inputs = ["--simulate"] if command == "run" else []
    run([command, *inputs, "--config", str(config), "--out", str(out / "result")])


def test_the_unmutated_inputs_run(tmp_path):
    for name, scale in (("baseline.csv", 1.0), ("other.csv", 1.5)):
        (tmp_path / name).write_text(metrics_csv(scale))
    (tmp_path / "sim.txt").write_text(SIM_CONFIG)
    (tmp_path / "run.txt").write_text(RUN_CONFIG)
    for argv in (
        ["compare", "--baseline", str(tmp_path / "baseline.csv"), str(tmp_path / "other.csv")],
        ["simulate", "--config", str(tmp_path / "sim.txt"), "--out", str(tmp_path / "trial")],
        ["run", "--simulate", "--config", str(tmp_path / "run.txt"), "--out", str(tmp_path / "r")],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv


SMALL = ["--duration", "2", "--cadence", "2.5"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["simulate", *SMALL, "--noise-sigma", "1e308"], 1, "left omega must be finite"),
        (["simulate", *SMALL, "--omega-amp", "1e308"], 1, "left hip_deg must be finite"),
        (["run", "--simulate", *SMALL, "--speed", "1e308"], 1, "left foot_xy must be finite"),
        (["run", "--simulate", *SMALL, "--mode", "actuators-velocity",
          "--peak-confirm", "1" + "0" * 400], 0, None),
    ],
    ids=["noise", "omega", "speed", "peak-confirm"],
)
def test_settings_past_float64_or_int64(tmp_path, argv, code, message):
    """A trial whose channels overflow is refused in one line, without
    numpy's overflow warnings; a confirmation lag past int64 confirms no
    peak."""
    got = run([*argv, "--out", str(tmp_path / "out")])
    assert got == (code, "" if message is None else f"gaitassist: error: {message}\n")
