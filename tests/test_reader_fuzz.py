"""The trial reader's boundary, fuzzed.

Each example mutates one file of a valid 2 s trial: its bytes (truncation,
CRLF line ends, a byte-order mark, a non-UTF-8 byte, any other byte), a
cell, a header, a manifest line, a truth label's tail, or the whole file,
which it deletes. Then `run --trial` and `analyze` each either exit 0,
having read the arrays that an np.loadtxt parse of every table gives, or
exit 2 with one stderr line and no traceback.
"""
from __future__ import annotations

import contextlib
import io
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaitassist.cli import main
from gaitassist.gait import Foot
from gaitassist.trial_io import load_trial

TABLES = (
    "omega.csv", "insole_left.csv", "insole_right.csv", "emg.csv", "kinematics.csv",
    "truth_labels.csv", "truth_events.csv",
)
FILES = ("manifest.txt", *TABLES)
CELLS = [
    "nan", "inf", "-1.000000", "1e400", "", "abc", " 1.5", "1.5 ", "+2.0", "0x10", "1.000000.0",
    "é", "-0", "99999999.000000", "1,2", "0.010000", "left", "swing", "toe_off",
]
VALUES = ["", "abc", "nan", "inf", "-1", "0", "1e308", "1" + "0" * 400, "true", "1.5", "2.5"]
TAILS = [
    "walking,stance,stance", "double_stance,swing,stance", "double_stance,stance,hover",
    " double_stance,stance,stance", "double_stance,stance,stance ",
    "double_stance,stance,stance # a comment", "double_swing,swing,swing",
    "double_stance,stance", "double_stance,stance,stance,stance",
]
BYTES = list(b"0123456789-.,\n\r #eE+x\t\x00")


@pytest.fixture(scope="module")
def trial(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("fuzz") / "trial"
    argv = ["simulate", "--out", str(out), "--duration", "2", "--cadence", "2.5", "--seed", "5",
            "--noise-sigma", "0.05"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return out


def _lines(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True)


def mutate(data: bytes, draw, name: str) -> bytes | None:
    """One drawn mutation of the file `name` holding `data`; None deletes it."""
    kind = draw(st.sampled_from(
        ["truncate", "crlf", "bom", "non-utf8", "byte", "cell", "header", "line", "tail", "delete"]
    ))
    at = draw(st.integers(0, len(data)))
    lines = _lines(data)
    row = draw(st.integers(0, len(lines) - 1))
    if kind == "truncate":
        return data[:at]
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "non-utf8":
        return data[:at] + b"\xff" + data[at:]
    if kind == "byte":
        return data[:at] + bytes([draw(st.sampled_from(BYTES))]) + data[at + 1 :]
    if kind == "delete":
        return None
    if kind == "line":  # drop, repeat or add a line
        extra = draw(st.sampled_from([b"", lines[row], b"# a comment\n", b"\n", b"a line\n"]))
        return b"".join(lines[:row] + [extra] + lines[row + (extra == b"") :])
    text = lines[row].decode()
    end = text[len(text.rstrip("\r\n")) :]
    if kind == "header":
        row, text = 0, lines[0].decode()
        cells = text.rstrip("\n").split(",")
        i = draw(st.integers(0, len(cells) - 1))
        cells[i] = draw(st.sampled_from([cells[-1 - i], cells[i].upper(), f" {cells[i]}", ""]))
        text, end = ",".join(cells), "\n"
    elif name == "manifest.txt" or kind == "cell":
        if name == "manifest.txt":  # a value
            key, _, _ = text.partition("=")
            text = f"{key.strip()} = {draw(st.sampled_from(VALUES))}"
        else:
            cells = text.rstrip("\r\n").split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS))
            text = ",".join(cells)
    else:  # a tail, in whichever table holds the row
        text = text.split(",")[0] + "," + draw(st.sampled_from(TAILS))
    lines[row] = (text + end).encode()
    return b"".join(lines)


def reference(trial: Path) -> dict[str, np.ndarray]:
    """Each channel of `trial` as np.loadtxt reads its table."""

    def table(name: str, **kwargs) -> np.ndarray:
        with warnings.catch_warnings():  # numpy's notes on blank lines and empty tables
            warnings.filterwarnings("ignore", "Input line|loadtxt: input contained", UserWarning)
            return np.loadtxt(trial / name, delimiter=",", skiprows=1, encoding="utf-8", **kwargs)

    omega, emg, kin = (table(name, ndmin=2) for name in ("omega.csv", "emg.csv", "kinematics.csv"))
    out = {"omega_left": omega[:, 1], "omega_right": omega[:, 2], "emg": emg[:, 1]}
    for i, foot in enumerate(Foot):
        out[f"insole_{foot.value}"] = table(f"insole_{foot.value}.csv", ndmin=2)[:, 1:]
        out[f"foot_xy_{foot.value}"] = kin[:, 1 + 2 * i : 3 + 2 * i]
        out[f"hip_{foot.value}"], out[f"knee_{foot.value}"] = kin[:, 5 + i], kin[:, 7 + i]
    labels = table("truth_labels.csv", dtype=str, ndmin=2)
    events = table("truth_events.csv", dtype=str, ndmin=2)
    for i, foot in enumerate(Foot):
        out[f"phases_{foot.value}"] = (labels[:, 2 + i] == "swing").astype(np.int8)
    out["event_times"] = events[:, 0].astype(float)
    out["event_names"] = np.array([f"{foot},{kind}" for _, foot, kind in events])
    return out


def arrays(trial: Path) -> dict[str, np.ndarray]:
    """The same channels as `load_trial` reads them."""
    log = load_trial(trial)
    out = {"omega_left": log.omega[Foot.LEFT], "omega_right": log.omega[Foot.RIGHT],
           "emg": log.emg.raw.samples}
    for foot in Foot:
        out[f"insole_{foot.value}"] = log.insole[foot]
        out[f"foot_xy_{foot.value}"] = log.foot_xy[foot]
        out[f"hip_{foot.value}"], out[f"knee_{foot.value}"] = log.hip_deg[foot], log.knee_deg[foot]
        out[f"phases_{foot.value}"] = log.truth.phases[foot]
    out["event_times"] = np.array([ev.t for ev in log.truth.events], float)
    out["event_names"] = np.array([f"{ev.foot.value},{ev.kind.value}" for ev in log.truth.events])
    return out


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check(broken: Path, out: Path) -> None:
    for argv in (["run", "--trial", str(broken), "--out", str(out)], ["analyze", str(broken)]):
        code, err = run(argv)
        assert code in (0, 2), (argv[0], code, err)
        if code == 0:
            assert err == ""
            got, want = arrays(broken), reference(broken)
            assert got.keys() == want.keys()
            for key in want:
                assert got[key].shape == want[key].shape, key
                assert got[key].tobytes() == want[key].tobytes(), key
        else:
            assert err.endswith("\n") and err.count("\n") == 1, err
            assert "Traceback" not in err


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_trial_loads_as_loadtxt_reads_it_or_is_one_line(trial, tmp_path_factory, data):
    name = data.draw(st.sampled_from(FILES))
    broken = tmp_path_factory.mktemp("broken") / "trial"
    shutil.copytree(trial, broken)
    path = broken / name
    mutated = mutate(path.read_bytes(), data.draw, name)
    if mutated is None:
        path.unlink()
    else:
        path.write_bytes(mutated)
    check(broken, broken.parent / "out")


@pytest.mark.parametrize("name", FILES)
@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data[: len(data) // 2],
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: b"\xef\xbb\xbf" + data,
        lambda data: data[:40] + b"\xff" + data[40:],
        lambda data: None,
    ],
    ids=["truncated", "crlf", "bom", "non-utf8", "missing"],
)
def test_each_named_mutation_loads_as_loadtxt_reads_it_or_is_one_line(trial, tmp_path, name, edit):
    broken = tmp_path / "trial"
    shutil.copytree(trial, broken)
    mutated = edit((broken / name).read_bytes())
    if mutated is None:
        (broken / name).unlink()
    else:
        (broken / name).write_bytes(mutated)
    check(broken, tmp_path / "out")


def test_the_unmutated_trial_loads(trial, tmp_path):
    assert run(["run", "--trial", str(trial), "--out", str(tmp_path / "out")]) == (0, "")
    check(trial, tmp_path / "out")
