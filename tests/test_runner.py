"""Closed-loop runner tests on synthetic trials."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from gaitassist.controller import ControllerConfig
from gaitassist.errors import DataFormatError, InvalidSpecError
from gaitassist.gait import STATE_BY_CODE, EventKind, Foot, check_event_stream
from gaitassist.runner import DetectionMode, control_envelope, run_trial
from gaitassist.signals import EmgChannel, TimeSeries, causal_envelope
from gaitassist.simgait import ChannelRates, GaitParams, generate


@pytest.fixture(scope="module", params=list(DetectionMode), ids=lambda m: m.value)
def clean_result(request, clean_trial):
    return run_trial(clean_trial, request.param)


class TestCleanTrialRuns:
    def test_detects_every_truth_event(self, clean_result):
        score = clean_result.score
        assert score is not None
        assert score.recall == 1.0
        assert score.phase_accuracy >= 0.99

    def test_event_stream_alternates(self, clean_result):
        check_event_stream(clean_result.events)

    def test_timing_error_within_three_ticks(self, clean_result):
        for s in clean_result.score.by_kind.values():
            assert s.timing_mae_s <= 0.03

    def test_torque_respects_state_split(self, clean_result):
        # double stance must split equally; swing legs idle at k_swing = 0
        cfg = ControllerConfig()
        codes = clean_result.state_codes
        tl, tr, te = clean_result.tau_left, clean_result.tau_right, clean_result.tau_exo
        ds = codes == 0
        np.testing.assert_array_equal(tl[ds], tr[ds])
        np.testing.assert_allclose(tl[ds], cfg.k_stance * te[ds], rtol=1e-12)
        ls = codes == 1
        np.testing.assert_array_equal(tr[ls], np.zeros(ls.sum()))
        rs = codes == 2
        np.testing.assert_array_equal(tl[rs], np.zeros(rs.sum()))

    def test_emg_envelope_tracks_activation_level(self, clean_result, clean_trial):
        mid = slice(500, 1900)
        plateau = clean_result.emg_norm.samples[mid].mean()
        assert plateau == pytest.approx(clean_trial.params.emg_level, abs=0.05)


class TestRunnerContracts:
    def test_controller_rate_must_match_trial(self):
        # the ramp limit is per second: at 200 Hz a tick moves at most half
        # as far as at 100 Hz, and the rising edge from rest takes full steps
        log = generate(GaitParams(seed=5), 10.0, ChannelRates(control_rate_hz=200.0))
        cfg = ControllerConfig(ramp_rate_nm_s=50.0)
        result = run_trial(log, DetectionMode.FOOT_SENSORS, controller_cfg=cfg)
        steps = np.abs(np.diff(result.tau_left, prepend=0.0))
        assert steps.max() == pytest.approx(50.0 / 200.0, rel=1e-12)

    def test_zero_gain_commands_zero_torque(self, clean_trial):
        result = run_trial(
            clean_trial,
            DetectionMode.ACTUATORS_VELOCITY,
            controller_cfg=ControllerConfig(k_myo_nm=0.0),
        )
        assert np.all(result.tau_left == 0.0)
        assert np.all(result.tau_right == 0.0)

    def test_slew_limited_run_obeys_per_tick_budget(self, clean_trial):
        cfg = ControllerConfig(ramp_rate_nm_s=50.0)
        result = run_trial(clean_trial, DetectionMode.FOOT_SENSORS, controller_cfg=cfg)
        budget = 50.0 / clean_trial.rates.control_rate_hz
        assert np.abs(np.diff(result.tau_left)).max() <= budget + 1e-12
        assert np.abs(np.diff(result.tau_right)).max() <= budget + 1e-12

    def test_runs_without_truth_have_no_score(self, clean_trial):
        import copy

        stripped = copy.copy(clean_trial)
        stripped.truth = None
        result = run_trial(stripped, DetectionMode.FOOT_SENSORS)
        assert result.score is None
        assert len(result.events) > 0

    def test_causal_labels_lag_event_labels(self, clean_trial):
        # causal velocity-mode labels flip peak_confirm_samples ticks after the
        # backdated event labels; the two streams must still mostly agree
        result = run_trial(clean_trial, DetectionMode.ACTUATORS_VELOCITY)
        for foot in Foot:
            agreement = np.mean(result.causal_phases[foot] == result.event_phases[foot])
            assert agreement >= 0.95

    def test_state_codes_match_causal_phases(self, clean_result):
        codes = (
            2 * clean_result.causal_phases[Foot.LEFT]
            + clean_result.causal_phases[Foot.RIGHT]
        )
        np.testing.assert_array_equal(clean_result.state_codes, codes.astype(np.int8))
        assert set(np.unique(clean_result.state_codes)) <= set(range(len(STATE_BY_CODE)))


class TestModeAgreement:
    def test_modes_detect_nearly_identical_event_times(self, clean_trial):
        fsr = run_trial(clean_trial, DetectionMode.FOOT_SENSORS)
        vel = run_trial(clean_trial, DetectionMode.ACTUATORS_VELOCITY)
        diffs = []
        for foot in Foot:
            for kind in EventKind:
                a = [e.t for e in fsr.events if e.foot is foot and e.kind is kind]
                b = [e.t for e in vel.events if e.foot is foot and e.kind is kind]
                # align on the common truth grid: drop any startup extras by
                # matching from the tail
                m = min(len(a), len(b))
                diffs.extend(abs(x - y) for x, y in zip(a[-m:], b[-m:]))
        assert np.mean(diffs) <= 0.05


def test_control_envelope_is_decimated_causal_path(clean_trial):
    env = control_envelope(clean_trial)
    assert env.rate_hz == clean_trial.rates.control_rate_hz
    assert len(env) == clean_trial.n_ticks
    assert np.all(env.samples >= 0.0) and np.all(env.samples <= 1.0)



def _with(bad: float):
    """A copy of a channel with its third tick's first value set to `bad`."""

    def change(x: np.ndarray) -> np.ndarray:
        x = x.copy()
        x.reshape(len(x), -1)[2, 0] = bad
        return x

    return change


# (channel, foot, change of that foot's channel or None to drop it, error, message)
_FORCES = "right insole forces must be finite and non-negative"
_BAD_CHANNELS = {
    "missing left omega": (
        "omega", Foot.LEFT, None, DataFormatError, "trial log is missing the left omega channel"
    ),
    "missing right insole": (
        "insole", Foot.RIGHT, None, DataFormatError, "trial log is missing the right insole channel"
    ),
    "insole of 7 forces": (
        "insole", Foot.LEFT, lambda x: x[:, :7], InvalidSpecError,
        "left insole needs shape (1000, 8), got (1000, 7)",
    ),
    **{
        f"force of {bad}": ("insole", Foot.RIGHT, _with(bad), InvalidSpecError, _FORCES)
        for bad in (-1.0, math.nan, math.inf)
    },
    **{
        f"omega of {bad}": ("omega", Foot.LEFT, _with(bad), InvalidSpecError,
                            "left omega must be finite")
        for bad in (math.nan, math.inf)
    },
    "short omega": (
        "omega", Foot.RIGHT, lambda x: x[:-1], InvalidSpecError,
        "right omega needs shape (1000,), got (999,)",
    ),
}


@pytest.fixture(scope="module")
def seed3_log():
    return generate(GaitParams(seed=3), 10.0)


@pytest.mark.parametrize("case", list(_BAD_CHANNELS))
def test_every_run_channel_is_checked_when_the_log_is_built(case, seed3_log):
    # a TrialLog checks both feet's omega and insole channels, which either
    # framework's run reads, before any run can start
    channel, foot, change, error, message = _BAD_CHANNELS[case]
    channels = dict(getattr(seed3_log, channel))
    if change is None:
        del channels[foot]
    else:
        channels[foot] = change(channels[foot])
    with pytest.raises(error) as info:
        dataclasses.replace(seed3_log, **{channel: channels})
    assert str(info.value) == message


# (change of the raw EMG samples, samples left); a 10 s trial has 1000 ticks at
# 10 EMG samples per tick
_BAD_EMG = {
    "nan": (lambda x: np.where(np.arange(len(x)) == 9990, math.nan, x), 10000),
    "inf": (lambda x: np.where(np.arange(len(x)) == 5, math.inf, x), 10000),
    "short": (lambda x: x[:9990], 9990),
}


@pytest.mark.parametrize("case", list(_BAD_EMG))
def test_raw_emg_is_checked_when_the_log_is_built(case, seed3_log):
    change, got = _BAD_EMG[case]
    raw = seed3_log.emg.raw
    emg = EmgChannel(raw.with_samples(change(raw.samples)), seed3_log.emg.mvc_mv)
    message = f"^emg channel needs 10000 samples, all finite; got {got}$"
    with pytest.raises(InvalidSpecError, match=message):
        dataclasses.replace(seed3_log, emg=emg)


# an EMG rate that a TrialLog takes and the control envelope refuses
_ENVELOPE_REFUSES = {
    "off-multiple": (1000.0001, "cannot decimate 1000.0001 Hz to 100.0 Hz by an integer factor"),
    "too-low": (500.0, "EMG rate 500.0 Hz too low; the 400.0 Hz band edge needs at least 800.0 Hz"),
}


@pytest.mark.parametrize("mode", list(DetectionMode), ids=lambda m: m.value)
@pytest.mark.parametrize("case", list(_ENVELOPE_REFUSES))
def test_an_emg_rate_the_envelope_refuses_is_raised_by_run_trial(case, mode, seed3_log):
    rate, message = _ENVELOPE_REFUSES[case]
    rates = ChannelRates(emg_rate_hz=rate)
    samples = np.resize(seed3_log.emg.raw.samples, rates.emg_samples(seed3_log.n_ticks))
    emg = EmgChannel(TimeSeries(samples, rate), seed3_log.emg.mvc_mv)
    log = dataclasses.replace(seed3_log, rates=rates, emg=emg)
    with pytest.raises(InvalidSpecError) as info:
        run_trial(log, mode)
    assert str(info.value) == message


@pytest.mark.parametrize("tail", ["cut", "nan"])
def test_emg_past_the_last_tick_is_not_read(tail, seed3_log):
    # the envelope keeps samples 0, 10, ..., 9990 for the 1000 ticks, so a
    # channel cut after sample 9990, or NaN past it, keeps the same ones
    raw, rate = seed3_log.emg.raw, seed3_log.rates.control_rate_hz
    full = causal_envelope(seed3_log.emg, rate).samples
    samples = raw.samples[:9991] if tail == "cut" else np.where(
        np.arange(len(raw)) > 9990, math.nan, raw.samples
    )
    short = causal_envelope(EmgChannel(raw.with_samples(samples), seed3_log.emg.mvc_mv), rate)
    assert len(full) == 1000
    assert short.samples.tobytes() == full.tobytes()
