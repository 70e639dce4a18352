"""Closed-loop runner tests on synthetic trials."""
from __future__ import annotations

import numpy as np
import pytest

from gaitassist.controller import ControllerConfig
from gaitassist.errors import InvalidSpecError
from gaitassist.gait import EventKind, Foot, check_event_stream
from gaitassist.runner import DetectionMode, control_envelope, run_trial
from gaitassist.simgait import STATE_BY_CODE


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
    def test_controller_rate_must_match_trial(self, clean_trial):
        bad = ControllerConfig(rate_hz=200.0)
        with pytest.raises(InvalidSpecError):
            run_trial(clean_trial, DetectionMode.FOOT_SENSORS, controller_cfg=bad)

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
        budget = 50.0 / clean_trial.rates.control_hz
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
    assert env.rate_hz == clean_trial.rates.control_hz
    assert len(env) == clean_trial.n_ticks
    assert np.all(env.samples >= 0.0) and np.all(env.samples <= 1.0)
