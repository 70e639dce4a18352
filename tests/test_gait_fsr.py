"""Insole (force-sensing) gait phase detector tests.

Oracle cases are hand-built force schedules with known crossing times.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaitassist import gait_fsr
from gaitassist.errors import InvalidSpecError
from gaitassist.gait import (
    STATE_BY_CODE, EventKind, Foot, GaitEvent, GaitState, Phase, check_event_stream,
    events_and_phases, gait_state_codes,
)
from gaitassist.gait_fsr import INITIAL_STATE, FsrDetectorConfig, detect, detect_block, force_sums
from gaitassist.simgait import GaitParams, generate

from gait_reference import PHASE_AFTER_EVENT, events_of

DT = 0.01


def frame(total_n: float, front_share: float = 0.5) -> np.ndarray:
    """Eight insole forces with `total_n` split between clusters, evenly per sensor."""
    front = total_n * front_share / 4.0
    back = total_n * (1.0 - front_share) / 4.0
    return np.array((front,) * 4 + (back,) * 4)


def step(state, t: float, forces: np.ndarray, cfg=None):
    """One frame through the leg's detector; returns (state, kind or None),
    an event's kind being the one that enters the leg's new phase."""
    front, back = force_sums(forces[None, :])
    state, _, times = detect_block(state, np.array([t]), front, back, cfg or FsrDetectorConfig())
    entering = {phase: kind for kind, phase in PHASE_AFTER_EVENT.items()}
    return state, entering[state[0]] if times else None


def run_schedule(totals, cfg=None, foot: Foot = Foot.LEFT, start=None, front_share=0.5):
    """The leg's events over `totals`, as `GaitEvent`s of `foot`."""
    start = start or INITIAL_STATE
    front, back = force_sums(np.array([frame(total, front_share) for total in totals]))
    state, ticks, times = detect_block(
        start, np.arange(len(totals)) * DT, front, back, cfg or FsrDetectorConfig()
    )
    legs = {foot: (ticks, times), foot.other(): ([], [])}
    return state, list(events_and_phases(legs, len(totals), start[0])[0])


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
        check_event_stream(events_of(events))
        # the whole-channel detector emits the same stream for a lone loaded leg
        loaded = np.array([frame(total) for total in totals])
        both, _ = detect(
            {Foot.LEFT: loaded, Foot.RIGHT: np.zeros_like(loaded)},
            np.arange(len(totals)) * DT,
            FsrDetectorConfig(),
        )
        assert list(both) == events
        assert all(ev.foot is Foot.LEFT for ev in both)


class TestValidation:
    def test_frame_needs_eight_forces(self):
        log = generate(GaitParams(), 10.0)
        message = r"^left insole needs shape \(1000, 8\), got \(1000, 7\)$"
        with pytest.raises(InvalidSpecError, match=message):
            dataclasses.replace(log, insole={foot: np.ones((log.n_ticks, 7)) for foot in Foot})

    def test_negative_or_non_finite_force_rejected(self):
        log = generate(GaitParams(), 10.0)
        for bad in (-1.0, math.nan, math.inf):
            insole = dict(log.insole)
            insole[Foot.RIGHT] = insole[Foot.RIGHT].copy()
            insole[Foot.RIGHT][2, 0] = bad
            message = "^right insole forces must be finite and non-negative$"
            with pytest.raises(InvalidSpecError, match=message):
                dataclasses.replace(log, insole=insole)

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


# zeros of both signs, subnormals, and values near 1e308 whose sums overflow
_FORCE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, 1.5e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _insoles(draw) -> np.ndarray:
    """Force arrays of shape (8,), (0, 8) or (n, 8): C- or Fortran-ordered,
    or strided views of a larger array."""
    rows = draw(st.sampled_from([None, 0, 1, 2, 7, 50]))
    layout = draw(st.sampled_from(["C", "F", "column slice", "row slice"]))
    shape = (8,) if rows is None else (rows, 8)
    if layout == "column slice":
        shape = shape[:-1] + (11,)
    elif layout == "row slice" and rows is not None:
        shape = (2 * rows, 8)
    forces = draw(hnp.arrays(np.float64, shape, elements=_FORCE_VALUES))
    if layout == "F":
        return np.asfortranarray(forces)
    if layout == "column slice":
        return forces[..., 2:10]
    return forces[::2] if layout == "row slice" and rows is not None else forces


@settings(max_examples=300, deadline=None)
@given(forces=_insoles())
def test_force_sums_equal_numpy_sums_bit_for_bit(forces):
    # numpy does not document its summation order over a strided last axis,
    # so the column adds are held to its bytes, signed zeros and inf included
    with np.errstate(over="ignore", invalid="ignore"):
        got = force_sums(forces)
        want = forces[..., 0:4].sum(axis=-1), forces[..., 4:8].sum(axis=-1)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert np.shape(g) == np.shape(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def column_fold(forces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's four columns added in order from +0.0, whole columns at a time."""
    front = back = 0.0
    for j in range(4):
        front += forces[..., j]
        back += forces[..., 4 + j]
    return front, back


@settings(max_examples=200, deadline=None)
@given(
    block=st.sampled_from([1, 3, gait_fsr._SUM_ROWS]),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_force_sums_equal_the_column_fold(block, data, seed):
    """One row up to several blocks and a remainder; forces of both signs
    from subnormals to 1e300, signed zeros among them."""
    rows = data.draw(st.integers(1, 4 * block - 1 if block > 1 else 5))
    rng = np.random.default_rng(seed)
    forces = rng.choice([-1.0, 1.0], (rows, 8)) * 10.0 ** rng.uniform(-323.5, 300.0, (rows, 8))
    forces[rng.random((rows, 8)) < 0.1] = 0.0
    forces[rng.random((rows, 8)) < 0.1] = -0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gait_fsr, "_SUM_ROWS", block)
        got, want = force_sums(forces), column_fold(forces)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (rows,) and g.tobytes() == w.tobytes()


def test_force_sums_overflow_to_inf_like_numpy():
    forces = np.full((3, 8), 1e308)
    forces[1] = 0.0
    with np.errstate(over="ignore"):
        front, back = force_sums(forces)
        want = forces[:, 4:8].sum(axis=-1)
    np.testing.assert_array_equal(front, [np.inf, 0.0, np.inf])
    assert back.tobytes() == want.tobytes()


def test_both_feet_phases_combines_states():
    # a loaded left insole strikes at once; the unloaded right one keeps swinging
    insole = {Foot.LEFT: np.tile(frame(300.0), (2, 1)), Foot.RIGHT: np.zeros((2, 8))}
    _, phases = detect(insole, np.arange(2) * DT, FsrDetectorConfig())
    states = [STATE_BY_CODE[code] for code in gait_state_codes(phases)]
    assert states == [GaitState.LEFT_STANCE_RIGHT_SWING] * 2
