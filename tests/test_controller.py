"""Torque controller contract tests."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitassist.controller import UNLIMITED, ControllerConfig, distribute
from gaitassist.errors import InvalidSpecError
from gaitassist.gait import GaitState
from gaitassist.runner import command_torque
from gaitassist.simgait import STATE_BY_CODE

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


def torque(states, emg, cfg: ControllerConfig):
    """(left, right, total) torque per tick for the given gait states and activations."""
    codes = np.array([STATE_BY_CODE.index(state) for state in states], dtype=np.int8)
    return command_torque(codes, np.asarray(emg, dtype=float), cfg)


class TestTotalTorque:
    def test_scales_linearly_with_activation(self):
        cfg = ControllerConfig(k_myo_nm=10.0)
        _, _, total = torque([GaitState.DOUBLE_STANCE] * 3, [0.0, 0.37, 1.0], cfg)
        assert total[0] == 0.0
        assert total[1] == pytest.approx(3.7, rel=1e-15)
        assert total[2] == 10.0

    def test_out_of_range_activation_rejected(self):
        cfg = ControllerConfig()
        for bad in (-0.01, 1.01, math.nan):
            with pytest.raises(ValueError):
                torque([GaitState.DOUBLE_STANCE] * 2, [0.5, bad], cfg)


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
        # a 5 N*m target from rest moves 0.5 N*m per tick, and back down the same
        cfg = ControllerConfig(ramp_rate_nm_s=50.0, rate_hz=100.0)
        left, right, _ = torque([GaitState.DOUBLE_STANCE] * 12, [1.0] * 11 + [0.0], cfg)
        assert left[0] == 0.5 and right[0] == 0.5
        assert left[9] == right[9] == 5.0
        assert left[11] == right[11] == 4.5

    def test_target_within_step_passes_exactly(self):
        cfg = ControllerConfig(k_stance=0.5, k_swing=0.4, ramp_rate_nm_s=50.0, rate_hz=100.0)
        states = [GaitState.DOUBLE_STANCE] * 2 + [GaitState.LEFT_STANCE_RIGHT_SWING]
        emg = [0.2, 0.2, 0.24]
        left, right, total = torque(states, emg, cfg)
        assert (left[1], right[1]) == (1.0, 1.0)
        # from 1.0 N*m, targets of 1.2 and 0.96 N*m lie within one 0.5 N*m step
        assert (left[2], right[2]) == distribute(states[2], total[2], cfg)

    def test_unlimited_ramp_is_identity(self):
        cfg = ControllerConfig(ramp_rate_nm_s=UNLIMITED)
        rng = np.random.default_rng(3)
        states = [STATES[i] for i in rng.integers(len(STATES), size=200)]
        left, right, total = torque(states, rng.uniform(0.0, 1.0, 200), cfg)
        targets = [distribute(state, tau, cfg) for state, tau in zip(states, total)]
        assert left.tolist() == [target[0] for target in targets]
        assert right.tolist() == [target[1] for target in targets]

    @settings(max_examples=100, deadline=None)
    @given(
        ticks=st.lists(
            st.tuples(st.sampled_from(STATES), st.floats(min_value=0.0, max_value=1.0)),
            min_size=1,
            max_size=40,
        ),
        k_myo=st.floats(min_value=0.0, max_value=40.0),
        ramp=st.floats(min_value=0.1, max_value=500.0),
    )
    def test_never_exceeds_per_tick_budget(self, ticks, k_myo, ramp):
        cfg = ControllerConfig(k_myo_nm=k_myo, ramp_rate_nm_s=ramp, rate_hz=100.0)
        states = [state for state, _ in ticks]
        emg = [level for _, level in ticks]
        left, right, total = torque(states, emg, cfg)
        budget = ramp / 100.0
        for leg, out in enumerate((left, right)):
            prev = 0.0
            for state, tau, got in zip(states, total, out):
                target = distribute(state, tau, cfg)[leg]
                assert abs(got - prev) <= budget + 1e-12
                # moves toward the target, never past it
                assert min(prev, target) - 1e-12 <= got <= max(prev, target) + 1e-12
                prev = got


class TestControllerTick:
    def test_matches_closed_form_for_each_state(self):
        cfg = ControllerConfig(k_myo_nm=12.0)
        left, right, total = torque(STATES, [0.6] * len(STATES), cfg)
        for i, gait in enumerate(STATES):
            gl, gr = leg_gains(gait, cfg)
            assert left[i] == pytest.approx(gl * 12.0 * 0.6, rel=1e-15)
            assert right[i] == pytest.approx(gr * 12.0 * 0.6, rel=1e-15)
            assert total[i] == pytest.approx(12.0 * 0.6, rel=1e-15)

    def test_pure_and_repeatable(self):
        cfg = ControllerConfig(ramp_rate_nm_s=30.0)
        codes = np.array([0, 1, 2, 3, 0], dtype=np.int8)
        emg = np.array([0.5, 0.7, 0.1, 0.9, 0.5])
        a = command_torque(codes, emg, cfg)
        b = command_torque(codes, emg, cfg)
        assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
        assert codes.tolist() == [0, 1, 2, 3, 0] and emg.tolist() == [0.5, 0.7, 0.1, 0.9, 0.5]

    def test_zero_gain_always_commands_zero(self):
        cfg = ControllerConfig(k_myo_nm=0.0)
        left, right, _ = torque(STATES * 3, [0.9] * 12, cfg)
        assert left.tolist() == [0.0] * 12
        assert right.tolist() == [0.0] * 12

    def test_monotone_in_activation(self):
        cfg = ControllerConfig()
        left, _, _ = torque([GaitState.DOUBLE_STANCE] * 5, [0.0, 0.25, 0.5, 0.75, 1.0], cfg)
        assert left.tolist() == sorted(left.tolist())

    @settings(max_examples=200, deadline=None)
    @given(
        gait=st.sampled_from(STATES),
        emg=st.floats(min_value=0.0, max_value=1.0),
        k_myo=st.floats(min_value=0.0, max_value=40.0),
    )
    def test_unlimited_ramp_equals_closed_form(self, gait, emg, k_myo):
        cfg = ControllerConfig(k_myo_nm=k_myo)
        left, right, _ = torque([gait], [emg], cfg)
        gl, gr = leg_gains(gait, cfg)
        for got, gain in ((left[0], gl), (right[0], gr)):
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
