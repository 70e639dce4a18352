"""`run_trial` filters the EMG beside the detector and the scorer: the same
`RunResult`, bit for bit, and the same first exception as a serial run, with
the worker count forced to one and to two whatever the machine has."""
from __future__ import annotations

import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest

from gaitassist import gait_fsr, gait_vel, runner, signals, trial_io
from gaitassist.controller import ControllerConfig
from gaitassist.gait import Foot
from gaitassist.runner import DetectionMode, RunResult, run_trial
from gaitassist.simgait import GaitParams, TrialLog, generate

MODES = list(DetectionMode)


def digest(result: RunResult) -> str:
    """Every array, event and score of a run."""
    h = hashlib.sha256()
    arrays = [result.t, result.tau_left, result.tau_right, result.tau_exo]
    arrays += [result.emg_norm.samples, result.state_codes]
    arrays += [result.causal_phases[foot] for foot in Foot]
    arrays += [result.event_phases[foot] for foot in Foot]
    arrays += [result.events.t, result.events.foot, result.events.kind]
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr((result.mode, result.emg_norm.rate_hz, result.score)).encode())
    return h.hexdigest()


def run_on(monkeypatch, count: int, log: TrialLog, mode: DetectionMode, **cfgs) -> str:
    monkeypatch.setattr(trial_io, "_THREADS", count)
    return digest(run_trial(log, mode, **cfgs))


def without_truth(log: TrialLog) -> TrialLog:
    return dataclasses.replace(log, truth=None)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize(
    "seed, noise", [(0, 0.0), (11, 0.05), (42, 0.4), (5, 1.0), (9, 3.0)]
)
def test_two_threads_give_the_serial_result(monkeypatch, mode, seed, noise):
    log = generate(GaitParams(seed=seed, noise_sigma=noise), 12.0)
    assert run_on(monkeypatch, 2, log, mode) == run_on(monkeypatch, 1, log, mode)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_a_finite_ramp_and_a_log_without_truth_give_the_serial_result(monkeypatch, mode):
    log = generate(GaitParams(seed=7, noise_sigma=0.05), 12.0)
    ramp = {"controller_cfg": ControllerConfig(ramp_rate_nm_s=50.0)}
    for trial, cfgs in ((log, ramp), (without_truth(log), {}), (without_truth(log), ramp)):
        serial = run_on(monkeypatch, 1, trial, mode, **cfgs)
        assert run_on(monkeypatch, 2, trial, mode, **cfgs) == serial
    assert run_trial(without_truth(log), mode).score is None


def test_the_envelope_runs_beside_detection(monkeypatch):
    """Each job waits at a barrier that only the other job can open."""
    monkeypatch.setattr(trial_io, "_THREADS", 2)
    both = threading.Barrier(2, timeout=30)
    threads = {}
    envelope, detect = runner.control_envelope, gait_fsr.detect

    def waiting(name, fn):
        def call(*args):
            threads[name] = threading.current_thread()
            both.wait()
            return fn(*args)

        return call

    monkeypatch.setattr(runner, "control_envelope", waiting("envelope", envelope))
    monkeypatch.setattr(gait_fsr, "detect", waiting("detect", detect))
    log = generate(GaitParams(seed=3), 10.0)
    result = run_trial(log, DetectionMode.FOOT_SENSORS)
    assert threads["envelope"] is not threads["detect"]
    monkeypatch.undo()
    assert digest(result) == digest(run_trial(log, DetectionMode.FOOT_SENSORS))


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_the_detector_starts_once_the_envelope_filters(monkeypatch, mode):
    """Whichever thread takes the envelope holds the interpreter lock until
    its first compiled filter pass releases it, so the detector never starts
    first. A switch interval longer than the run leaves only those releases
    to decide the order."""
    log = generate(GaitParams(seed=3), 10.0)
    run_trial(log, mode)  # the filters designed and the kernel imported
    module = gait_fsr if mode is DetectionMode.FOOT_SENSORS else gait_vel
    filter_rows, detect = signals._filter_rows, module.detect
    filtering, seen = threading.Event(), []

    def entering(*args):
        filtering.set()
        return filter_rows(*args)

    def detecting(*args):
        seen.append(filtering.is_set())
        return detect(*args)

    monkeypatch.setattr(trial_io, "_THREADS", 2)
    monkeypatch.setattr(signals, "_filter_rows", entering)
    monkeypatch.setattr(module, "detect", detecting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(30.0)
    try:
        for _ in range(5):
            filtering.clear()
            run_trial(log, mode)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [True] * 5


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_no_leg_value_is_read_before_the_envelope_filters(monkeypatch, mode):
    """run_trial checks no channel: the first numpy pass over a leg's
    samples, on any thread, comes after the envelope's first filter pass has
    begun. The switch interval leaves only the lock's own releases to decide."""
    log = generate(GaitParams(seed=3), 10.0)
    run_trial(log, mode)  # the filters designed and the kernel imported
    filter_rows = signals._filter_rows
    filtering, touched, seen = threading.Event(), threading.Event(), []

    class Watched(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if not touched.is_set():
                touched.set()
                seen.append(filtering.is_set())
            inputs = [x.view(np.ndarray) if isinstance(x, Watched) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    def entering(*args):
        filtering.set()
        return filter_rows(*args)

    for legs in (log.omega, log.insole):  # changed in place, so not checked again
        for foot in Foot:
            legs[foot] = legs[foot].view(Watched)
    monkeypatch.setattr(trial_io, "_THREADS", 2)
    monkeypatch.setattr(signals, "_filter_rows", entering)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(30.0)
    try:
        for _ in range(5):
            filtering.clear()
            touched.clear()
            run_trial(log, mode)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [True] * 5


class Failed(Exception):
    pass


def fail(what: str):
    def call(*args):
        raise Failed(what)

    return call


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize(
    "broken, message",
    [({"envelope"}, "envelope"), ({"detect"}, "detect"), ({"envelope", "detect"}, "envelope")],
    ids=["envelope", "detect", "both"],
)
def test_a_failing_job_raises_the_serial_exception(monkeypatch, count, broken, message):
    """Serially the envelope runs before the detector, so when both fail the
    envelope's exception is the one raised."""
    monkeypatch.setattr(trial_io, "_THREADS", count)
    if "envelope" in broken:
        monkeypatch.setattr(runner, "control_envelope", fail("envelope"))
    if "detect" in broken:
        monkeypatch.setattr(gait_fsr, "detect", fail("detect"))
    log = generate(GaitParams(seed=3), 10.0)
    with pytest.raises(Failed, match=f"^{message}$"):
        run_trial(log, DetectionMode.FOOT_SENSORS)


def test_runs_under_frequent_switches_give_the_serial_result(monkeypatch):
    log = generate(GaitParams(seed=13, noise_sigma=0.2), 10.0)
    serial = {mode: run_on(monkeypatch, 1, log, mode) for mode in MODES}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        overlapped = [run_on(monkeypatch, 2, log, mode) == serial[mode] for mode in MODES * 3]
    finally:
        sys.setswitchinterval(interval)
    assert all(overlapped)
