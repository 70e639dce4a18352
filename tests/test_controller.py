"""Torque controller contract tests."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitassist.controller import (
    UNLIMITED,
    AssistState,
    ControllerConfig,
    TorqueCommand,
    controller_tick,
    distribute,
    slew_limit,
    total_torque,
)
from gaitassist.errors import InvalidSpecError
from gaitassist.gait import GaitState

STATES = list(GaitState)


def leg_gains(gait: GaitState, cfg: ControllerConfig) -> tuple[float, float]:
    """Closed-form per-leg share used as the oracle throughout."""
    table = {
        GaitState.DOUBLE_STANCE: (cfg.k_stance, cfg.k_stance),
        GaitState.LEFT_STANCE_RIGHT_SWING: (cfg.k_stance, cfg.k_swing),
        GaitState.RIGHT_STANCE_LEFT_SWING: (cfg.k_swing, cfg.k_stance),
        GaitState.DOUBLE_SWING: (0.0, 0.0),
    }
    return table[gait]


class TestTotalTorque:
    def test_scales_linearly_with_activation(self):
        cfg = ControllerConfig(k_myo_nm=10.0)
        assert total_torque(0.0, cfg) == 0.0
        assert total_torque(0.37, cfg) == pytest.approx(3.7, rel=1e-15)
        assert total_torque(1.0, cfg) == 10.0

    def test_out_of_range_activation_rejected(self):
        cfg = ControllerConfig()
        for bad in (-0.01, 1.01, math.nan):
            with pytest.raises(ValueError):
                total_torque(bad, cfg)


class TestDistribute:
    def test_double_stance_splits_equally(self):
        cfg = ControllerConfig()
        left, right = distribute(GaitState.DOUBLE_STANCE, 8.0, cfg)
        assert left == right == 4.0

    def test_single_stance_swing_leg_gets_exact_zero(self):
        cfg = ControllerConfig()
        left, right = distribute(GaitState.LEFT_STANCE_RIGHT_SWING, 8.0, cfg)
        assert (left, right) == (4.0, 0.0)
        left, right = distribute(GaitState.RIGHT_STANCE_LEFT_SWING, 8.0, cfg)
        assert (left, right) == (0.0, 4.0)

    def test_double_swing_commands_nothing(self):
        cfg = ControllerConfig(k_swing=0.5)
        assert distribute(GaitState.DOUBLE_SWING, 8.0, cfg) == (0.0, 0.0)

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            distribute(GaitState.DOUBLE_STANCE, -1.0, ControllerConfig())

    @settings(max_examples=100, deadline=None)
    @given(
        gait=st.sampled_from(STATES),
        tau=st.floats(min_value=0.0, max_value=50.0),
        k_stance=st.floats(min_value=0.0, max_value=1.0),
        k_swing_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sum_bounded_and_matches_gain_table(self, gait, tau, k_stance, k_swing_frac):
        cfg = ControllerConfig(k_stance=k_stance, k_swing=k_swing_frac * k_stance)
        left, right = distribute(gait, tau, cfg)
        gl, gr = leg_gains(gait, cfg)
        assert left == gl * tau
        assert right == gr * tau
        assert left + right <= 2 * cfg.k_stance * tau + 1e-12


class TestSlewLimit:
    def test_step_clamped_to_ramp_per_tick(self):
        cfg = ControllerConfig(ramp_rate_nm_s=50.0, rate_hz=100.0)
        state = AssistState.initial()
        target = TorqueCommand(0.01, 5.0, -5.0)
        out = slew_limit(state, target, cfg)
        assert out.tau_left_nm == 0.5
        assert out.tau_right_nm == -0.5

    def test_target_within_step_passes_exactly(self):
        cfg = ControllerConfig(ramp_rate_nm_s=50.0, rate_hz=100.0)
        state = AssistState(TorqueCommand(0.0, 1.0, 1.0))
        out = slew_limit(state, TorqueCommand(0.01, 1.2, 0.9), cfg)
        assert (out.tau_left_nm, out.tau_right_nm) == (1.2, 0.9)

    def test_unlimited_ramp_is_identity(self):
        cfg = ControllerConfig(ramp_rate_nm_s=UNLIMITED)
        state = AssistState(TorqueCommand(0.0, 0.0, 0.0))
        target = TorqueCommand(0.01, 123.456, -7.0)
        assert slew_limit(state, target, cfg) is target

    @settings(max_examples=100, deadline=None)
    @given(
        prev=st.floats(min_value=-20, max_value=20),
        target=st.floats(min_value=-20, max_value=20),
        ramp=st.floats(min_value=0.1, max_value=500.0),
    )
    def test_never_exceeds_per_tick_budget(self, prev, target, ramp):
        cfg = ControllerConfig(ramp_rate_nm_s=ramp, rate_hz=100.0)
        state = AssistState(TorqueCommand(0.0, prev, prev))
        out = slew_limit(state, TorqueCommand(0.01, target, target), cfg)
        budget = ramp / 100.0
        assert abs(out.tau_left_nm - prev) <= budget + 1e-12
        # moves toward the target, never past it
        assert min(prev, target) - 1e-12 <= out.tau_left_nm <= max(prev, target) + 1e-12


class TestControllerTick:
    def test_matches_closed_form_for_each_state(self):
        cfg = ControllerConfig(k_myo_nm=12.0)
        for gait in STATES:
            state, cmd = controller_tick(0.0, gait, 0.6, AssistState.initial(), cfg)
            gl, gr = leg_gains(gait, cfg)
            assert cmd.tau_left_nm == pytest.approx(gl * 12.0 * 0.6, rel=1e-15)
            assert cmd.tau_right_nm == pytest.approx(gr * 12.0 * 0.6, rel=1e-15)
            assert state.tau_exo_nm == pytest.approx(12.0 * 0.6, rel=1e-15)
            assert state.last_command is cmd

    def test_pure_and_repeatable(self):
        cfg = ControllerConfig(ramp_rate_nm_s=30.0)
        state = AssistState(TorqueCommand(0.0, 0.2, 0.1), tau_exo_nm=1.0)
        a = controller_tick(0.01, GaitState.DOUBLE_STANCE, 0.5, state, cfg)
        b = controller_tick(0.01, GaitState.DOUBLE_STANCE, 0.5, state, cfg)
        assert a == b

    def test_zero_gain_always_commands_zero(self):
        cfg = ControllerConfig(k_myo_nm=0.0)
        state = AssistState.initial()
        for k, gait in enumerate(STATES * 3):
            state, cmd = controller_tick(k * 0.01, gait, 0.9, state, cfg)
            assert cmd.tau_left_nm == 0.0
            assert cmd.tau_right_nm == 0.0

    def test_monotone_in_activation(self):
        cfg = ControllerConfig()
        taus = []
        for emg in (0.0, 0.25, 0.5, 0.75, 1.0):
            _, cmd = controller_tick(0.0, GaitState.DOUBLE_STANCE, emg, AssistState.initial(), cfg)
            taus.append(cmd.tau_left_nm)
        assert taus == sorted(taus)

    @settings(max_examples=200, deadline=None)
    @given(
        gait=st.sampled_from(STATES),
        emg=st.floats(min_value=0.0, max_value=1.0),
        k_myo=st.floats(min_value=0.0, max_value=40.0),
    )
    def test_unlimited_ramp_equals_closed_form(self, gait, emg, k_myo):
        cfg = ControllerConfig(k_myo_nm=k_myo)
        _, cmd = controller_tick(0.0, gait, emg, AssistState.initial(), cfg)
        gl, gr = leg_gains(gait, cfg)
        for got, gain in ((cmd.tau_left_nm, gl), (cmd.tau_right_nm, gr)):
            expected = gain * k_myo * emg
            # relative error is meaningless below the normal float range, so
            # allow a vanishing absolute slack for subnormal products
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-320)


class TestConfigValidation:
    def test_negative_gain_rejected(self):
        with pytest.raises(InvalidSpecError):
            ControllerConfig(k_myo_nm=-1.0)

    def test_infinite_gain_rejected(self):
        with pytest.raises(InvalidSpecError):
            ControllerConfig(k_myo_nm=math.inf)

    def test_swing_share_above_stance_rejected(self):
        with pytest.raises(InvalidSpecError):
            ControllerConfig(k_stance=0.3, k_swing=0.4)

    def test_non_positive_ramp_rejected(self):
        with pytest.raises(InvalidSpecError):
            ControllerConfig(ramp_rate_nm_s=0.0)
        with pytest.raises(InvalidSpecError):
            ControllerConfig(ramp_rate_nm_s=-5.0)

    def test_non_positive_rate_rejected(self):
        with pytest.raises(InvalidSpecError):
            ControllerConfig(rate_hz=0.0)
