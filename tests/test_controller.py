"""Torque controller contract tests."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitassist.controller import UNLIMITED, ControllerConfig, command_torque
from gaitassist.errors import InvalidSpecError
from gaitassist.gait import STATE_BY_CODE, GaitState
from gaitassist.simgait import ChannelRates

from gait_reference import distribute, toward

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
    return command_torque(codes, np.asarray(emg, dtype=float), cfg, 100.0)


def split(gait: GaitState, tau: float, cfg: ControllerConfig) -> tuple[float, float]:
    """`command_torque`'s (left, right) torque on one tick of `gait` whose
    total is `tau`: full activation at a myoelectric gain of `tau`."""
    left, right, total = torque([gait], [1.0], dataclasses.replace(cfg, k_myo_nm=tau))
    assert total[0] == tau
    return left[0], right[0]


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
        left, right = split(GaitState.DOUBLE_STANCE, 8.0, cfg)
        assert left == right == 4.0

    def test_single_stance_swing_leg_gets_exact_zero(self):
        cfg = ControllerConfig()
        left, right = split(GaitState.LEFT_STANCE_RIGHT_SWING, 8.0, cfg)
        assert (left, right) == (4.0, 0.0)
        left, right = split(GaitState.RIGHT_STANCE_LEFT_SWING, 8.0, cfg)
        assert (left, right) == (0.0, 4.0)

    def test_double_swing_commands_nothing(self):
        cfg = ControllerConfig(k_swing=0.5)
        assert split(GaitState.DOUBLE_SWING, 8.0, cfg) == (0.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        gait=st.sampled_from(STATES),
        tau=st.floats(min_value=0.0, max_value=50.0),
        k_stance=st.floats(min_value=0.0, max_value=1.0),
        k_swing_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sum_bounded_and_matches_gain_table(self, gait, tau, k_stance, k_swing_frac):
        cfg = ControllerConfig(k_stance=k_stance, k_swing=k_swing_frac * k_stance)
        left, right = split(gait, tau, cfg)
        gl, gr = leg_gains(gait, cfg)
        assert left == gl * tau
        assert right == gr * tau
        assert left + right <= 2 * cfg.k_stance * tau + 1e-12


class TestSlewLimit:
    def test_step_clamped_to_ramp_per_tick(self):
        # a 5 N*m target from rest moves 0.5 N*m per tick, and back down the same
        cfg = ControllerConfig(ramp_rate_nm_s=50.0)
        left, right, _ = torque([GaitState.DOUBLE_STANCE] * 12, [1.0] * 11 + [0.0], cfg)
        assert left[0] == 0.5 and right[0] == 0.5
        assert left[9] == right[9] == 5.0
        assert left[11] == right[11] == 4.5

    def test_target_within_step_passes_exactly(self):
        cfg = ControllerConfig(k_stance=0.5, k_swing=0.4, ramp_rate_nm_s=50.0)
        states = [GaitState.DOUBLE_STANCE] * 2 + [GaitState.LEFT_STANCE_RIGHT_SWING]
        emg = [0.2, 0.2, 0.24]
        left, right, total = torque(states, emg, cfg)
        assert (left[1], right[1]) == (1.0, 1.0)
        # from 1.0 N*m, targets of 1.2 and 0.96 N*m lie within one 0.5 N*m step
        gl, gr = leg_gains(states[2], cfg)
        assert (left[2], right[2]) == (gl * total[2], gr * total[2])

    def test_unlimited_ramp_is_identity(self):
        cfg = ControllerConfig(ramp_rate_nm_s=UNLIMITED)
        rng = np.random.default_rng(3)
        states = [STATES[i] for i in rng.integers(len(STATES), size=200)]
        left, right, total = torque(states, rng.uniform(0.0, 1.0, 200), cfg)
        targets = [leg_gains(state, cfg) for state in states]
        targets = [(gl * tau, gr * tau) for (gl, gr), tau in zip(targets, total)]
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
        cfg = ControllerConfig(k_myo_nm=k_myo, ramp_rate_nm_s=ramp)
        states = [state for state, _ in ticks]
        emg = [level for _, level in ticks]
        left, right, total = torque(states, emg, cfg)
        budget = ramp / 100.0
        for leg, out in enumerate((left, right)):
            prev = 0.0
            for state, tau, got in zip(states, total, out):
                target = leg_gains(state, cfg)[leg] * tau
                assert abs(got - prev) <= budget + 1e-12
                # moves toward the target, never past it
                assert min(prev, target) - 1e-12 <= got <= max(prev, target) + 1e-12
                prev = got


def ramp_fold(states, emg, cfg: ControllerConfig, rate_hz: float):
    """(left, right) torque per tick, one tick at a time: the reference's
    split of each tick's total, then one `toward` step per leg from 0 N*m."""
    step = cfg.ramp_rate_nm_s / rate_hz
    previous, out = (0.0, 0.0), []
    for state, level in zip(states, emg):
        target = distribute(state, cfg.k_myo_nm * level, cfg)
        previous = tuple(toward(p, g, step) for p, g in zip(previous, target))
        out.append(previous)
    return [leg for leg, _ in out], [leg for _, leg in out]


LEFT_STANCE = [GaitState.DOUBLE_STANCE, GaitState.LEFT_STANCE_RIGHT_SWING]


@st.composite
def ramp_cases(draw):
    """(states, activations, config, rate) for a finite ramp rate. With unit
    gains at 1 Hz, where the left leg's target is the activation itself and
    the step the ramp rate, a tick may put the target exactly on the left
    command so far plus or minus the step, or one ulp either side of it."""
    exact = draw(st.booleans())
    if exact:
        k_swing = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        step = draw(st.sampled_from([0.25, 0.1, 1e-3, 1.0]) | st.floats(1e-6, 1.0))
        cfg = ControllerConfig(k_myo_nm=1.0, k_stance=1.0, k_swing=k_swing, ramp_rate_nm_s=step)
        rate_hz = 1.0
    else:
        k_stance = draw(st.floats(0.0, 1.0))
        cfg = ControllerConfig(
            k_myo_nm=draw(st.floats(0.0, 40.0)),
            k_stance=k_stance,
            k_swing=k_stance * draw(st.floats(0.0, 1.0)),
            ramp_rate_nm_s=draw(st.floats(0.1, 500.0)),
        )
        rate_hz = draw(st.sampled_from([100.0, 50.0, 137.0, 1.0]))
    step = cfg.ramp_rate_nm_s / rate_hz
    levels = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)
    states, emg, left = [], [], 0.0
    for _ in range(draw(st.integers(1, 40))):
        state, level = draw(st.sampled_from(STATES)), draw(levels)
        if exact and draw(st.booleans()):
            state = draw(st.sampled_from(LEFT_STANCE))
            level = left + draw(st.sampled_from([step, -step]))
            level = np.nextafter(level, draw(st.sampled_from([level, -math.inf, math.inf])))
            if not 0.0 <= level <= 1.0:
                level = draw(levels)
        states.append(state)
        emg.append(float(level))
        left = toward(left, leg_gains(state, cfg)[0] * (cfg.k_myo_nm * float(level)), step)
    return states, emg, cfg, rate_hz


class TestRampEqualsFold:
    """`command_torque` at a finite ramp rate is a fold of `toward`, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=ramp_cases())
    def test_bits_equal_the_fold(self, case):
        states, emg, cfg, rate_hz = case
        codes = np.array([STATE_BY_CODE.index(state) for state in states], dtype=np.int8)
        left, right, _ = command_torque(codes, np.array(emg), cfg, rate_hz)
        ref_left, ref_right = ramp_fold(states, emg, cfg, rate_hz)
        assert left.tobytes() == np.array(ref_left).tobytes()
        assert right.tobytes() == np.array(ref_right).tobytes()

    def test_ties_and_signed_zeros(self):
        # the left target is the activation and the step 0.25 N*m: targets
        # exactly one step away pass, one ulp past a step is clamped, one ulp
        # short passes, and a -0.0 target within a step stays -0.0
        cfg = ControllerConfig(k_myo_nm=1.0, k_stance=1.0, ramp_rate_nm_s=0.25)
        below, above = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
        emg = [0.25, above, -0.0, 0.0, -0.0, 0.25, 0.5, np.nextafter(0.25, 0.0), below]
        expected = [0.25, 0.5, 0.25, 0.0, -0.0, 0.25, 0.5, 0.25, below]
        codes = np.zeros(len(emg), dtype=np.int8)
        left, right, _ = command_torque(codes, np.array(emg), cfg, 1.0)
        ref_left, _ = ramp_fold([GaitState.DOUBLE_STANCE] * len(emg), emg, cfg, 1.0)
        assert left.tobytes() == right.tobytes() == np.array(ref_left).tobytes()
        assert left.tobytes() == np.array(expected).tobytes()


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
        a = command_torque(codes, emg, cfg, 100.0)
        b = command_torque(codes, emg, cfg, 100.0)
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
        # the controller runs at the trial's control rate, which ChannelRates checks
        for rate in (0.0, -100.0):
            with pytest.raises(InvalidSpecError):
                ChannelRates(control_rate_hz=rate)


class TestGainTake:
    """Each leg's gains are gathered with a 1-D `take` from its gain column:
    the bytes of the 2-D gather `gains[codes, leg]`, whatever the codes and
    the ramp rate, and the same IndexError for a code past the table."""

    @settings(max_examples=200, deadline=None)
    @given(
        codes=st.lists(st.integers(-len(STATES), len(STATES) - 1), min_size=1, max_size=300),
        seed=st.integers(0, 2**32 - 1),
        ramp=st.sampled_from([UNLIMITED, 50.0, 0.5]),
    )
    def test_bytes_equal_the_two_d_gather(self, codes, seed, ramp):
        codes = np.array(codes, dtype=np.int8)
        emg = np.random.default_rng(seed).uniform(0.0, 1.0, len(codes))
        cfg = ControllerConfig(k_myo_nm=12.0, k_stance=0.7, k_swing=0.2, ramp_rate_nm_s=ramp)
        left, right, total = command_torque(codes, emg, cfg, 100.0)
        gains = np.array([leg_gains(state, cfg) for state in STATE_BY_CODE])
        want = [gains[codes, 0] * total, gains[codes, 1] * total]
        if ramp != UNLIMITED:  # the fold of the gathered targets, a list index per tick
            want = ramp_fold([STATE_BY_CODE[c] for c in codes.tolist()], emg, cfg, 100.0)
        assert left.tobytes() == np.array(want[0]).tobytes()
        assert right.tobytes() == np.array(want[1]).tobytes()

    @pytest.mark.parametrize("code", [len(STATES), -len(STATES) - 1, 127, -128])
    def test_a_code_past_the_table_raises_index_error(self, code):
        codes = np.array([0, code], dtype=np.int8)
        with pytest.raises(IndexError):
            np.zeros((len(STATES), 2))[codes, 0]
        with pytest.raises(IndexError):
            command_torque(codes, np.array([0.5, 0.5]), ControllerConfig(), 100.0)
