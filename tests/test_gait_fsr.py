"""Insole (force-sensing) gait phase detector tests.

Oracle cases are hand-built force schedules with known crossing times.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitassist.errors import InvalidSpecError
from gaitassist.gait import EventKind, Foot, GaitEvent, GaitState, Phase, check_event_stream
from gaitassist.gait_fsr import (
    INITIAL_STATE,
    FsrDetectorConfig,
    check_forces,
    detect_fsr,
    force_sums,
    fsr_transition,
)
from gaitassist.simgait import STATE_BY_CODE, gait_state_codes

DT = 0.01


def frame(total_n: float, front_share: float = 0.5) -> np.ndarray:
    """Eight insole forces with `total_n` split between clusters, evenly per sensor."""
    front = total_n * front_share / 4.0
    back = total_n * (1.0 - front_share) / 4.0
    return np.array((front,) * 4 + (back,) * 4)


def step(state, t: float, forces: np.ndarray, cfg=None):
    """One frame through the leg's transition; returns (state, kind or None)."""
    front, back = force_sums(forces)
    state, fired = fsr_transition(state, t, float(front), float(back), cfg or FsrDetectorConfig())
    return state, None if fired is None else fired[0]


def run_schedule(totals, cfg=None, foot: Foot = Foot.LEFT, start=None, front_share=0.5):
    cfg = cfg or FsrDetectorConfig()
    state = start or INITIAL_STATE
    events = []
    for k, total in enumerate(totals):
        front, back = force_sums(frame(total, front_share))
        state, fired = fsr_transition(state, k * DT, float(front), float(back), cfg)
        if fired is not None:
            events.append(GaitEvent(fired[1], foot, fired[0]))
    return state, events


def stance_state(last_event_t: float = -10.0) -> tuple[Phase, float]:
    return (Phase.STANCE, last_event_t)


class TestHeelStrike:
    def test_loading_ramp_crosses_contact_threshold(self):
        # total = 40 * t newtons: first frame strictly above 20 N is t = 0.51
        totals = [40.0 * k * DT for k in range(100)]
        _, events = run_schedule(totals)
        assert [e.kind for e in events] == [EventKind.HEEL_STRIKE]
        assert events[0].t == pytest.approx(0.51, abs=1e-12)
        assert events[0].foot is Foot.LEFT

    def test_threshold_is_strict(self):
        # holding exactly at the threshold never counts as contact
        _, events = run_schedule([20.0] * 50)
        assert events == []

    def test_total_force_triggers_even_if_clusters_are_small(self):
        # 24 N split 12/12: neither cluster alone exceeds the threshold
        state, kind = step(INITIAL_STATE, 0.0, frame(24.0))
        assert kind is EventKind.HEEL_STRIKE
        assert state[0] is Phase.STANCE

    def test_first_loaded_frame_bootstraps_stance(self):
        state, events = run_schedule([300.0], foot=Foot.RIGHT)
        assert events == [GaitEvent(0.0, Foot.RIGHT, EventKind.HEEL_STRIKE)]
        assert state == (Phase.STANCE, 0.0)


class TestToeOff:
    def test_release_needs_both_clusters_low(self):
        state = stance_state()
        # front stays loaded: no toe-off even though the total is falling
        state, kind = step(state, 0.0, frame(30.0, front_share=1.0))
        assert kind is None
        # both clusters below 10 N: toe-off
        state, kind = step(state, DT, frame(18.0, front_share=0.5))
        assert kind is EventKind.TOE_OFF
        assert state[0] is Phase.SWING

    def test_unloading_ramp_crossing_time(self):
        # total = 40 - 40t, split evenly; both clusters < 10 when total < 20,
        # first frame strictly below is t = 0.51
        totals = [max(0.0, 40.0 - 40.0 * k * DT) for k in range(100)]
        _, events = run_schedule(totals, start=stance_state())
        assert [e.kind for e in events] == [EventKind.TOE_OFF]
        assert events[0].t == pytest.approx(0.51, abs=1e-12)


class TestDebounce:
    def test_suppressed_transition_fires_when_condition_persists(self):
        # contact at t = 0.20, then immediate unload from t = 0.22 onward
        totals = [100.0 if 0.20 <= k * DT < 0.22 else 0.0 for k in range(60)]
        _, events = run_schedule(totals)
        assert [(e.kind, e.t) for e in events] == [
            (EventKind.HEEL_STRIKE, pytest.approx(0.20)),
            (EventKind.TOE_OFF, pytest.approx(0.35)),
        ]

    def test_chatter_inside_window_emits_nothing(self):
        # a heel strike at t = 0, then wild chatter for 0.14 s: all suppressed
        rng = np.random.default_rng(5)
        state = stance_state(last_event_t=0.0)
        kinds = []
        for k in range(1, 15):
            state, kind = step(state, k * DT, frame(float(rng.uniform(0, 200))))
            kinds.append(kind)
        assert kinds == [None] * 14


class TestHysteresisMonotonicity:
    def test_higher_contact_threshold_never_fires_earlier(self):
        totals = [60.0 * k * DT for k in range(120)]
        first_hs = []
        for contact in (15.0, 20.0, 30.0, 45.0):
            cfg = FsrDetectorConfig(contact_threshold_n=contact)
            _, events = run_schedule(totals, cfg=cfg)
            first_hs.append(events[0].t)
        assert first_hs == sorted(first_hs)

    def test_lower_release_threshold_never_fires_earlier(self):
        totals = [max(0.0, 60.0 - 60.0 * k * DT) for k in range(120)]
        first_to = []
        for release in (15.0, 10.0, 5.0, 2.0):
            cfg = FsrDetectorConfig(contact_threshold_n=20.0, release_threshold_n=release)
            _, events = run_schedule(totals, cfg=cfg, start=stance_state())
            first_to.append(events[0].t)
        assert first_to == sorted(first_to)


class TestStreamContracts:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_walk_loads_keep_alternation(self, seed):
        rng = np.random.default_rng(seed)
        level = 0.0
        totals = []
        for _ in range(600):
            level = max(0.0, level + rng.normal(0.0, 15.0))
            if rng.random() < 0.02:
                level = 0.0
            totals.append(level)
        _, events = run_schedule(totals)
        check_event_stream(events)
        # the whole-channel detector emits the same stream for a lone loaded leg
        loaded = np.array([frame(total) for total in totals])
        both, _ = detect_fsr(
            {Foot.LEFT: loaded, Foot.RIGHT: np.zeros_like(loaded)},
            np.arange(len(totals)) * DT,
            FsrDetectorConfig(),
        )
        assert both == events
        assert all(ev.foot is Foot.LEFT for ev in both)


class TestValidation:
    def test_frame_needs_eight_forces(self):
        with pytest.raises(InvalidSpecError):
            check_forces(np.ones(7))
        with pytest.raises(InvalidSpecError):
            detect_fsr(
                {foot: np.ones((3, 7)) for foot in Foot}, np.arange(3) * DT, FsrDetectorConfig()
            )

    def test_negative_or_non_finite_force_rejected(self):
        for bad in (-1.0, math.nan, math.inf):
            forces = np.zeros(8)
            forces[0] = bad
            with pytest.raises(InvalidSpecError):
                check_forces(forces)
            insole = {foot: np.zeros((3, 8)) for foot in Foot}
            insole[Foot.RIGHT][2] = forces
            with pytest.raises(InvalidSpecError):
                detect_fsr(insole, np.arange(3) * DT, FsrDetectorConfig())

    def test_release_must_sit_below_contact(self):
        with pytest.raises(InvalidSpecError):
            FsrDetectorConfig(contact_threshold_n=10.0, release_threshold_n=10.0)
        with pytest.raises(InvalidSpecError):
            FsrDetectorConfig(contact_threshold_n=10.0, release_threshold_n=15.0)

    def test_cluster_sums(self):
        forces = np.array([1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0])
        assert force_sums(forces) == (10.0, 100.0)
        front, back = force_sums(np.stack([forces, 2.0 * forces]))
        np.testing.assert_array_equal(front, [10.0, 20.0])
        np.testing.assert_array_equal(back, [100.0, 200.0])


def test_both_feet_phases_combines_states():
    # a loaded left insole strikes at once; the unloaded right one keeps swinging
    insole = {Foot.LEFT: np.tile(frame(300.0), (2, 1)), Foot.RIGHT: np.zeros((2, 8))}
    _, phases = detect_fsr(insole, np.arange(2) * DT, FsrDetectorConfig())
    states = [STATE_BY_CODE[code] for code in gait_state_codes(phases)]
    assert states == [GaitState.LEFT_STANCE_RIGHT_SWING] * 2
