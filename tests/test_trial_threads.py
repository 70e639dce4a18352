"""A trial's tables are written and read two at a time: the same bytes,
arrays and first message as a serial run, with the worker count forced to
one and to two whatever the machine has."""
from __future__ import annotations

import dataclasses
import shutil
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaitassist import trial_io
from gaitassist.cli import main
from gaitassist.gait import Foot
from gaitassist.simgait import GaitParams, TrialLog, generate
from gaitassist.trial_io import load_trial, save_trial


@pytest.fixture(scope="module")
def log() -> TrialLog:
    return generate(GaitParams(noise_sigma=0.05, seed=11), 12.0)


@pytest.fixture(scope="module")
def serial_trial(log, tmp_path_factory) -> Path:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trial_io, "_THREADS", 1)
        return save_trial(log, tmp_path_factory.mktemp("serial") / "trial")


def threads(monkeypatch, count: int) -> None:
    monkeypatch.setattr(trial_io, "_THREADS", count)


def files(trial: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(trial.iterdir())}


def arrays(log: TrialLog) -> dict[str, np.ndarray]:
    out = {"emg": log.emg.raw.samples}
    for foot in Foot:
        for name in ("omega", "insole", "foot_xy", "hip_deg", "knee_deg"):
            out[f"{name}_{foot.value}"] = getattr(log, name)[foot]
        out[f"phases_{foot.value}"] = log.truth.phases[foot]
    out["events"] = np.array([(e.t, e.foot.value, e.kind.value) for e in log.truth.events])
    return out


def assert_same_arrays(got: TrialLog, expected: TrialLog) -> None:
    got, expected = arrays(got), arrays(expected)
    assert got.keys() == expected.keys()
    for name, value in expected.items():
        assert got[name].dtype == value.dtype and got[name].shape == value.shape, name
        assert got[name].tobytes() == value.tobytes(), name


class TestRunJobs:
    @pytest.mark.parametrize("count", [1, 2])
    def test_results_come_in_list_order(self, monkeypatch, count):
        threads(monkeypatch, count)
        assert trial_io._run_jobs([lambda k=k: k * k for k in range(9)]) == [
            k * k for k in range(9)
        ]

    def test_two_jobs_run_at_once_on_two_threads(self, monkeypatch):
        threads(monkeypatch, 2)
        both = threading.Barrier(2, timeout=30)
        names = trial_io._run_jobs([lambda: both.wait() or threading.current_thread()] * 2)
        assert names[0] is not names[1]

    def test_one_thread_runs_the_jobs_in_order_on_the_caller(self, monkeypatch):
        threads(monkeypatch, 1)
        ran = []
        jobs = [lambda k=k: ran.append((k, threading.current_thread())) for k in range(4)]
        trial_io._run_jobs(jobs)
        assert ran == [(k, threading.current_thread()) for k in range(4)]

    def test_the_first_failure_in_list_order_is_raised(self, monkeypatch):
        """The second job fails first; the first job's failure is raised."""
        threads(monkeypatch, 2)
        second_failed = threading.Event()

        def first():
            assert second_failed.wait(timeout=30)
            raise ValueError("first")

        def second():
            second_failed.set()
            raise ValueError("second")

        with pytest.raises(ValueError, match="^first$"):
            trial_io._run_jobs([first, second])

    @pytest.mark.parametrize("count", [1, 2])
    def test_a_job_after_a_failure_does_not_run(self, monkeypatch, count):
        threads(monkeypatch, count)
        ran = []

        def fail():
            raise KeyError("fail")

        # with two threads the worker may start the second job before the
        # first fails, but never the third
        jobs = [fail, lambda: None, lambda: ran.append("third")]
        with pytest.raises(KeyError):
            trial_io._run_jobs(jobs)
        assert ran == []

    def test_every_job_runs_once_under_frequent_switches(self, monkeypatch):
        """Four threads, more than the cores, on a shortened switch interval:
        a job taken twice or lost would show in the counts."""
        threads(monkeypatch, 4)
        counts = [0] * 3000
        lock = threading.Lock()

        def job(k: int) -> int:
            with lock:
                counts[k] += 1
            return k

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = trial_io._run_jobs([lambda k=k: job(k) for k in range(len(counts))])
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(len(counts))) and counts == [1] * len(counts)

    def test_at_most_two_threads(self):
        assert trial_io._THREADS in (1, 2)


class TestSameAsSerial:
    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no-truth"])
    def test_save_writes_the_same_bytes(self, log, serial_trial, tmp_path, monkeypatch, count,
                                        with_truth):
        threads(monkeypatch, count)
        expected = files(serial_trial)
        if not with_truth:
            log = dataclasses.replace(log, truth=None)
            expected = files(save_trial(log, tmp_path / "serial-no-truth"))
        assert files(save_trial(log, tmp_path / "trial")) == expected

    @pytest.mark.parametrize("count", [1, 2])
    def test_load_returns_the_same_arrays(self, serial_trial, monkeypatch, count):
        with monkeypatch.context() as mp:
            threads(mp, 1)
            expected = load_trial(serial_trial)
        threads(monkeypatch, count)
        assert_same_arrays(load_trial(serial_trial), expected)

    @pytest.mark.parametrize("count", [1, 2])
    def test_the_first_broken_table_is_reported(self, serial_trial, tmp_path, capsys,
                                                monkeypatch, count):
        """omega.csv is read first and emg.csv later; with both broken, both
        commands report omega.csv, whichever thread fails first."""
        trial = tmp_path / "broken"
        shutil.copytree(serial_trial, trial)
        lines = (trial / "omega.csv").read_text().splitlines(keepends=True)
        lines[5] = "oops" + lines[5][lines[5].index(",") :]
        (trial / "omega.csv").write_text("".join(lines))
        (trial / "emg.csv").write_text("t_s,emg\n")
        message = "omega.csv: t_s 'oops' in data row 5 is not a number"
        threads(monkeypatch, count)
        capsys.readouterr()
        assert main(["run", "--trial", str(trial), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"gaitassist: data error: {message}\n"
        assert main(["analyze", str(trial), "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == f"analyze: {trial}: {message}\n"

    @pytest.mark.parametrize("count", [1, 2])
    def test_rows_the_files_cannot_hold_are_refused_before_any_allocation(
        self, serial_trial, tmp_path, capsys, monkeypatch, count
    ):
        """The reader's arrays are allocated up front, but only for a table
        long enough to hold the manifest's rows: 10**11 ticks would be
        2.2 TiB for omega.csv alone."""
        trial = tmp_path / "long"
        shutil.copytree(serial_trial, trial)
        manifest = (trial / "manifest.txt").read_text()
        manifest = manifest.replace("n_ticks = 1200\n", "n_ticks = 100000000000\n")
        manifest = manifest.replace("duration_s = 12.000000\n", "duration_s = 1000000000.000000\n")
        (trial / "manifest.txt").write_text(manifest)
        threads(monkeypatch, count)
        capsys.readouterr()
        assert main(["analyze", str(trial), "--out", str(tmp_path / "m.csv")]) == 2
        message = "omega.csv: expected 100000000000 rows, got 1200"
        assert capsys.readouterr().err == f"analyze: {trial}: {message}\n"


def test_crlf_trial_reads_the_same_on_two_threads(serial_trial, tmp_path, monkeypatch):
    """Every table of a CRLF trial goes through np.loadtxt, on both threads
    at once: the arrays of a serial read, no warning, and the process's
    warning filters as they were."""
    crlf = tmp_path / "crlf"
    shutil.copytree(serial_trial, crlf)
    for path in crlf.glob("*.csv"):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    with monkeypatch.context() as mp:
        threads(mp, 1)
        expected = load_trial(crlf)
    threads(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        filters = list(warnings.filters)
        got = load_trial(crlf)
        assert warnings.filters == filters
    assert caught == []
    assert_same_arrays(got, expected)


def test_two_fallback_reads_at_once_leave_the_warning_filters(tmp_path, monkeypatch):
    """np.loadtxt runs inside warnings.catch_warnings, which swaps the
    process's filters and puts its own back on exit. Two reads of an empty
    table: the first waits up to 0.5 s for the second to start and then
    leaves first; the filters must end as they began."""
    path = tmp_path / "empty.csv"
    path.write_text("t_s,a\n")
    loadtxt, entered, second_in = np.loadtxt, [], threading.Event()

    def staggered_loadtxt(*args, **kwargs):
        entered.append(threading.current_thread())
        if len(entered) == 1:
            second_in.wait(timeout=0.5)
        else:
            second_in.set()
            time.sleep(0.1)
        return loadtxt(*args, **kwargs)

    def read() -> np.ndarray:
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            return trial_io._loadtxt(fh, path.name, ["t_s", "a"])

    monkeypatch.setattr(np, "loadtxt", staggered_loadtxt)
    threads(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        filters = list(warnings.filters)
        assert [table.size for table in trial_io._run_jobs([read, read])] == [0, 0]
        assert warnings.filters == filters
    assert caught == [] and len(set(entered)) == 2
