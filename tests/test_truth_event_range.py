"""Truth events outside the trial: `load_trial` refuses an event time
outside [0, duration_s], so `run --trial` and `analyze` exit 2 with one line
naming `truth_events.csv`, while events at 0 and at duration_s load."""
from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from gaitassist.cli import main


def run_cli(*argv: str) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code)


@pytest.fixture(scope="module")
def trial_dir(tmp_path_factory):
    """A 10 s trial; its right foot's first event is a toe off, its left
    foot's last event a toe off."""
    out = tmp_path_factory.mktemp("truth") / "trial"
    assert run_cli("simulate", "--out", str(out), "--duration", "10", "--seed", "2") == 0
    lines = (out / "truth_events.csv").read_text().splitlines()
    assert lines[1].endswith(",right,toe_off") and lines[-1].endswith(",left,toe_off")
    return out


def with_rows(trial_dir: Path, dst: Path, first: str | None, last: str | None) -> Path:
    """A copy of `trial_dir` with `first` inserted as the first data row of
    `truth_events.csv` and `last` appended; either may be None."""
    shutil.copytree(trial_dir, dst)
    events = dst / "truth_events.csv"
    lines = events.read_text().splitlines()
    lines[1:1] = [first] if first else []
    lines += [last] if last else []
    events.write_text("\n".join(lines) + "\n")
    return dst


# each added row keeps the events alternating per foot
@pytest.mark.parametrize(
    "first, last, t_s, data_row",
    [
        (None, "500.000000,left,heel_strike", "500.000000", 28),
        ("-0.500000,right,heel_strike", None, "-0.500000", 1),
    ],
)
def test_truth_event_outside_the_trial_is_one_line_data_error(
    trial_dir, tmp_path, capsys, first, last, t_s, data_row
):
    broken = with_rows(trial_dir, tmp_path / "broken", first, last)
    message = (
        f"truth_events.csv: t_s {t_s} in data row {data_row} is outside the trial, "
        "0 to duration_s 10.000000\n"
    )
    capsys.readouterr()
    assert run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"gaitassist: data error: {message}"
    assert not (tmp_path / "o").exists()
    assert run_cli("analyze", str(broken)) == 2
    assert capsys.readouterr().err == f"analyze: {broken}: {message}"


def test_truth_events_at_zero_and_at_duration_load(trial_dir, tmp_path, capsys):
    edges = with_rows(
        trial_dir, tmp_path / "edges", "0.000000,right,heel_strike", "10.000000,left,heel_strike"
    )
    assert run_cli("analyze", str(edges)) == 0
    assert capsys.readouterr().err == ""
