"""Acceptance gate: one test per release criterion.

Each test prints a single ``ACCEPTANCE n (...): PASS/FAIL`` line (visible
with ``pytest tests/test_acceptance.py -s``) and then asserts, so the gate
reads as a checklist while still failing loudly under plain pytest.
"""
from __future__ import annotations

import dataclasses
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from gaitassist.cli import main as cli_main
from gaitassist.controller import UNLIMITED, ControllerConfig
from gaitassist.gait import (
    STATE_BY_CODE, EventKind, Foot, GaitState, check_event_stream, gait_state_codes,
)
from gaitassist.metrics import percentile, rms, stride_length
from gaitassist.runner import (
    DetectionMode,
    RunResult,
    command_torque,
    control_envelope,
    run_trial,
)
from gaitassist.signals import (
    DEFAULT_FILTER_ORDER,
    EMG_BAND_HZ,
    ENVELOPE_LOWPASS_HZ,
    EmgChannel,
    FilterSpec,
    TimeSeries,
    design_filter,
    emg_envelope,
    filter_causal,
)
from gaitassist.simgait import GaitParams, generate

GAUSS_RECTIFIED_MEAN = math.sqrt(2.0 / math.pi)

# swing-leg gain is zero by default; stance legs share 0.5 each
LEFT_GAIN_BY_CODE = np.array([0.5, 0.5, 0.0, 0.0])
RIGHT_GAIN_BY_CODE = np.array([0.5, 0.0, 0.5, 0.0])


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({label}){suffix}"


def relative_error(actual: float, expected: float) -> float:
    if expected == 0.0:
        return 0.0 if actual == 0.0 else math.inf
    return abs(actual - expected) / abs(expected)


@pytest.fixture(scope="module")
def clean_mode_runs(clean_trial_60s):
    """Both detection frameworks on the 60 s clean trial, with wall time."""
    start = time.perf_counter()
    results = {mode: run_trial(clean_trial_60s, mode) for mode in DetectionMode}
    return time.perf_counter() - start, results


def test_criterion_1_torque_law_exactness():
    rng = np.random.default_rng(20260814)
    base = ControllerConfig(ramp_rate_nm_s=UNLIMITED)
    states = list(GaitState)
    gains = {
        GaitState.DOUBLE_STANCE: (0.5, 0.5),
        GaitState.LEFT_STANCE_RIGHT_SWING: (0.5, 0.0),
        GaitState.RIGHT_STANCE_LEFT_SWING: (0.0, 0.5),
        GaitState.DOUBLE_SWING: (0.0, 0.0),
    }
    worst = 0.0
    swing_exact = True
    start = time.perf_counter()
    for _ in range(10_000):
        gait = states[int(rng.integers(len(states)))]
        emg = float(rng.uniform(0.0, 1.0))
        k_myo = float(rng.uniform(0.0, 40.0))
        cfg = dataclasses.replace(base, k_myo_nm=k_myo)
        code = np.array([STATE_BY_CODE.index(gait)], dtype=np.int8)
        left, right, _ = command_torque(code, np.array([emg]), cfg, 100.0)
        tau_left, tau_right = float(left[0]), float(right[0])
        gain_l, gain_r = gains[gait]
        worst = max(
            worst,
            relative_error(tau_left, gain_l * k_myo * emg),
            relative_error(tau_right, gain_r * k_myo * emg),
        )
        if gait is GaitState.LEFT_STANCE_RIGHT_SWING and tau_right != 0.0:
            swing_exact = False
        if gait is GaitState.RIGHT_STANCE_LEFT_SWING and tau_left != 0.0:
            swing_exact = False
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and swing_exact and elapsed < 1.0
    report(
        1, "torque law exactness", ok,
        f"max rel err {worst:.2e}, swing zero {swing_exact}, {elapsed:.3f} s",
    )


def test_criterion_2_double_stance_split(clean_trial):
    emg_norm = control_envelope(clean_trial).samples[: clean_trial.n_ticks]
    codes = gait_state_codes(clean_trial.truth.phases)
    tau_left, tau_right, tau_exo = command_torque(
        codes, emg_norm, ControllerConfig(), clean_trial.rates.control_rate_hz
    )
    double = np.array([STATE_BY_CODE[code] is GaitState.DOUBLE_STANCE for code in codes])
    n_checked = int(double.sum())
    half = 0.5 * tau_exo[double]
    exact = bool((tau_left[double] == half).all() and (tau_right[double] == half).all())
    ok = exact and n_checked > 0
    report(2, "double-stance equal split", ok, f"{n_checked} samples, exact {exact}")


def test_criterion_3_clean_detector_accuracy(clean_mode_runs):
    elapsed, results = clean_mode_runs
    ok = elapsed < 5.0
    details = [f"{elapsed:.2f} s"]
    for mode, res in results.items():
        score = res.score
        worst_mae = max(s.timing_mae_s for s in score.by_kind.values())
        ok &= (
            score.phase_accuracy >= 0.99
            and score.recall == 1.0
            and worst_mae <= 0.030
        )
        details.append(
            f"{mode.value}: acc {score.phase_accuracy:.4f}, "
            f"recall {score.recall:.2f}, mae {worst_mae * 1e3:.1f} ms"
        )
    report(3, "clean detector accuracy", ok, "; ".join(details))


def test_criterion_4_noisy_detector_robustness():
    worst_accuracy = 1.0
    alternation_ok = True
    for seed in range(20):
        log = generate(GaitParams(seed=seed, noise_sigma=0.05), duration_s=20.0)
        for mode in DetectionMode:
            res = run_trial(log, mode)
            worst_accuracy = min(worst_accuracy, res.score.phase_accuracy)
            try:
                check_event_stream(res.events)
            except ValueError:
                alternation_ok = False
    ok = worst_accuracy >= 0.95 and alternation_ok
    report(
        4, "noisy detector robustness", ok,
        f"worst accuracy {worst_accuracy:.4f} over 20 seeds x 2 modes, "
        f"alternation {alternation_ok}",
    )


def test_criterion_5_emg_pipeline():
    def gain_db(coeffs, f_hz: float) -> float:
        n = 32_000
        x = np.zeros(n)
        x[0] = 1.0
        h = filter_causal(coeffs, TimeSeries(x, coeffs.rate_hz)).samples
        bin_index = int(round(f_hz / (coeffs.rate_hz / n)))
        assert math.isclose(bin_index * coeffs.rate_hz / n, f_hz, abs_tol=1e-9)
        return 20.0 * math.log10(abs(np.fft.rfft(h)[bin_index]))

    band = design_filter(
        FilterSpec("band-pass", DEFAULT_FILTER_ORDER, EMG_BAND_HZ, 2000.0)
    )
    smooth = design_filter(
        FilterSpec("low-pass", DEFAULT_FILTER_ORDER, (ENVELOPE_LOWPASS_HZ,), 1000.0)
    )
    edges = [gain_db(band, EMG_BAND_HZ[0]), gain_db(band, EMG_BAND_HZ[1]),
             gain_db(smooth, ENVELOPE_LOWPASS_HZ)]
    edges_ok = all(abs(g + 3.0) <= 0.5 for g in edges)

    rate, mvc = 1000.0, 1.0
    rng = np.random.default_rng(55)
    spec = FilterSpec("band-pass", DEFAULT_FILTER_ORDER, (50.0, 350.0), rate)
    noise = filter_causal(
        design_filter(spec), TimeSeries(rng.standard_normal(6000), rate)
    ).samples
    noise /= noise.std()
    raw = np.zeros(6000)
    raw[2000:5000] = 0.5 * mvc / GAUSS_RECTIFIED_MEAN * noise[2000:5000]
    env = emg_envelope(EmgChannel(TimeSeries(raw, rate), mvc_mv=mvc))
    plateau = float(env.samples[3200:4800].mean())
    plateau_ok = abs(plateau - 0.50) <= 0.05

    report(
        5, "EMG pipeline", edges_ok and plateau_ok,
        f"edges {edges[0]:+.2f}/{edges[1]:+.2f}/{edges[2]:+.2f} dB, "
        f"plateau {plateau:.3f}",
    )


def test_criterion_6_metrics_oracle_equivalence(clean_trial):
    def brute_rms(values) -> float:
        return math.sqrt(sum(v * v for v in values) / len(values))

    def brute_percentile(values, p: float) -> float:
        ordered = sorted(values)
        rank = (p / 100.0) * (len(ordered) - 1)
        lo, hi = math.floor(rank), math.ceil(rank)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        x = rng.normal(0.0, float(rng.uniform(0.1, 50.0)), n)
        p = float(rng.uniform(0.001, 100.0))
        worst = max(
            worst,
            relative_error(rms(x), brute_rms(x)),
            relative_error(percentile(x, p), brute_percentile(x, p)),
        )
    oracle_ok = worst <= 1e-12

    params = clean_trial.params
    measured = stride_length(
        clean_trial.foot_xy, clean_trial.times(), clean_trial.truth.events
    )
    expected = params.speed_m_s / params.cadence_hz
    stride_err = relative_error(measured, expected)
    stride_ok = stride_err <= 0.01

    report(
        6, "metrics oracle equivalence", oracle_ok and stride_ok,
        f"max rel err {worst:.2e}; stride {measured:.4f} m vs {expected:.4f} m "
        f"({stride_err * 100:.2f}%)",
    )


def test_criterion_7_slew_limit_contract(clean_trial):
    cfg = ControllerConfig(ramp_rate_nm_s=50.0)
    budget = 50.0 / clean_trial.rates.control_rate_hz
    worst = 0.0
    for mode in DetectionMode:
        res = run_trial(clean_trial, mode, controller_cfg=cfg)
        for leg in (res.tau_left, res.tau_right):
            steps = np.abs(np.diff(np.concatenate([[0.0], leg])))
            worst = max(worst, float(steps.max()))
    ok = worst <= budget + 1e-12
    report(
        7, "slew-limit contract", ok,
        f"max per-tick delta {worst:.6f} N*m vs budget {budget:.1f} N*m",
    )


def test_criterion_8_determinism(tmp_path):
    def pipeline(root: Path) -> dict[str, bytes]:
        trial = root / "trial"
        run_dir = root / "run"
        assert cli_main([
            "simulate", "--out", str(trial), "--duration", "12",
            "--seed", "5", "--noise-sigma", "0.03",
        ]) == 0
        assert cli_main([
            "run", "--trial", str(trial), "--out", str(run_dir),
        ]) == 0
        assert cli_main([
            "analyze", str(trial), "--out", str(root / "metrics.csv"),
        ]) == 0
        return {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()
        }

    # identical configs means identical paths too; rerun in place
    root = tmp_path / "workspace"
    first = pipeline(root)
    shutil.rmtree(root)
    second = pipeline(root)
    same_names = first.keys() == second.keys()
    same_bytes = same_names and all(first[name] == second[name] for name in first)
    report(
        8, "byte-identical determinism", same_bytes,
        f"{len(first)} artifacts compared",
    )


def _event_times(res: RunResult, foot: Foot, kind: EventKind) -> np.ndarray:
    return np.array([ev.t for ev in res.events if ev.foot is foot and ev.kind is kind])


def test_criterion_9_framework_interchangeability(clean_mode_runs):
    _, results = clean_mode_runs
    fsr = results[DetectionMode.FOOT_SENSORS]
    vel = results[DetectionMode.ACTUATORS_VELOCITY]

    # detected event times agree across frameworks (tail-aligned per stream)
    deltas = []
    for foot in Foot:
        for kind in EventKind:
            a, b = _event_times(fsr, foot, kind), _event_times(vel, foot, kind)
            m = min(len(a), len(b))
            assert m > 0
            deltas.extend(np.abs(a[-m:] - b[-m:]))
    mae = float(np.mean(deltas))
    timing_ok = mae <= 0.050

    # criterion 1-2 invariants on each framework's own detected stream
    invariants_ok = True
    for res in (fsr, vel):
        k_myo = ControllerConfig().k_myo_nm
        codes = res.state_codes
        tau_ok = (
            np.array_equal(res.tau_exo, k_myo * res.emg_norm.samples)
            and np.array_equal(res.tau_left, LEFT_GAIN_BY_CODE[codes] * res.tau_exo)
            and np.array_equal(res.tau_right, RIGHT_GAIN_BY_CODE[codes] * res.tau_exo)
        )
        ds = codes == 0
        split_ok = bool(
            ds.any()
            and np.array_equal(res.tau_left[ds], 0.5 * res.tau_exo[ds])
            and np.array_equal(res.tau_right[ds], 0.5 * res.tau_exo[ds])
        )
        invariants_ok &= tau_ok and split_ok

    report(
        9, "framework interchangeability", timing_ok and invariants_ok,
        f"inter-mode event MAE {mae * 1e3:.1f} ms over {len(deltas)} pairs, "
        f"invariants {invariants_ok}",
    )
