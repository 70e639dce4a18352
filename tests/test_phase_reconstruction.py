"""Events to per-tick phases against the one-event-at-a-time reference.

`gait.phases_from_flips` builds a leg's per-tick phase codes from its flip
ticks; `gait.events_and_phases` and `metrics.phases_from_events` call it.
These properties pin all three to `gait_reference.set_phases` and
`phases_by_event`, on alternating streams whose events share a tick, fall
before the trial or at or past its last tick, or are missing for a foot,
from both initial phases and at several control rates. `score_detection`'s
guard band is held to a brute-force mask, and a last test counts Python
calls, so that no per-event call can come back unnoticed.
"""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitassist.gait import EventKind, Foot, GaitEvent, Phase, events_and_phases, phases_from_flips
from gaitassist.metrics import phases_from_events, score_detection
from gaitassist.simgait import GaitParams, generate

from gait_reference import (
    PHASE_AFTER_EVENT, events_and_phases_by_event, events_of, phases_by_event, set_phases,
)

RATES_HZ = (50.0, 100.0, 137.0, 200.0)
# tick offsets in ticks: on the tick, at and near the rounding ties, or anywhere between
OFFSETS = st.sampled_from([0.0, -0.5, 0.5, -0.49, 0.49, 0.25]) | st.floats(-0.5, 0.5)


def alternating(first: EventKind, count: int) -> list[EventKind]:
    """`count` kinds alternating from `first`."""
    other = {EventKind.HEEL_STRIKE: EventKind.TOE_OFF, EventKind.TOE_OFF: EventKind.HEEL_STRIKE}
    kinds = [first]
    while len(kinds) < count:
        kinds.append(other[kinds[-1]])
    return kinds[:count]


def leaving(phase: Phase) -> EventKind:
    """The event kind that ends `phase`."""
    return next(kind for kind, entered in PHASE_AFTER_EVENT.items() if entered is not phase)


@st.composite
def event_streams(draw, n: int, rate_hz: float) -> list[GaitEvent]:
    """Per-foot alternating events at (k + offset) / rate_hz, k from 20
    ticks before the trial to 20 past it, so events share a tick or lie
    outside [0, n); a foot may have none. Time ordered across feet."""
    events = []
    for foot in Foot:
        ticks = draw(st.lists(st.integers(-20, n + 20), max_size=12))
        times = sorted({(k + draw(OFFSETS)) / rate_hz for k in ticks})
        kinds = alternating(draw(st.sampled_from(list(EventKind))), len(times))
        events += [GaitEvent(t, foot, kind) for t, kind in zip(times, kinds)]
    return sorted(events, key=lambda ev: ev.t)


def same_phases(got: dict[Foot, np.ndarray], expected: dict[Foot, np.ndarray]) -> bool:
    return all(got[f].dtype == np.int8 and got[f].tolist() == expected[f].tolist() for f in Foot)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    rate_hz=st.sampled_from(RATES_HZ),
    n=st.integers(1, 300),
    initial=st.sampled_from(list(Phase)),
)
def test_phases_from_events_equals_the_event_loop(data, rate_hz, n, initial):
    events = data.draw(event_streams(n, rate_hz))
    assert same_phases(
        phases_from_events(events_of(events), n, rate_hz, initial),
        phases_by_event(events, n, rate_hz, initial),
    )


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    rate_hz=st.sampled_from(RATES_HZ),
    n=st.integers(1, 300),
    initial=st.sampled_from(list(Phase)),
)
def test_events_and_phases_equals_the_event_loop(data, rate_hz, n, initial):
    """Emission ticks and times as a `detect_block` returns them: ticks
    increasing inside the block, times equal across feet as often as not,
    a leg possibly without events; each leg's kinds alternate away from
    `initial`, as `events_and_phases_by_event` is given them."""
    legs, fired = {}, {}
    for foot in Foot:
        ticks = sorted(set(data.draw(st.lists(st.integers(0, n - 1), max_size=12))))
        kinds = alternating(leaving(initial), len(ticks))
        times = [(k - data.draw(st.integers(0, 3))) / rate_hz for k in ticks]
        legs[foot] = (ticks, times)
        fired[foot] = (ticks, list(zip(kinds, times)))
    events, phases = events_and_phases(legs, n, initial)
    expected_events, expected_phases = events_and_phases_by_event(fired, n, initial)
    assert same_phases(phases, expected_phases)
    assert list(events) == expected_events
    assert events.foot.dtype == events.kind.dtype == np.int8
    assert list(events) == [
        GaitEvent(t, foot, kind)
        for k in range(n)
        for foot in Foot
        for tick, (kind, t) in zip(*fired[foot])
        if tick == k
    ]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 300), start=st.sampled_from(list(Phase)))
def test_flips_equal_the_event_loop(data, n, start):
    """Repeated ticks (two flips on one tick cancel), ticks before 0 and at
    or past n."""
    ticks = sorted(data.draw(st.lists(st.integers(-20, n + 20), max_size=16)))
    kinds = alternating(leaving(start), len(ticks))
    got = phases_from_flips(start, np.array(ticks, dtype=np.intp), n)
    assert got.dtype == np.int8
    assert got.tolist() == set_phases(start, list(zip(ticks, kinds)), n).tolist()


@pytest.mark.parametrize("rate_hz", RATES_HZ)
@pytest.mark.parametrize("initial", list(Phase))
def test_listed_cases_equal_the_event_loop(rate_hz, initial):
    """Two events that round to one tick, events at and past tick n, a
    negative time, and a foot with no events."""
    n = 40
    hs, to = EventKind.HEEL_STRIKE, EventKind.TOE_OFF
    events = [
        GaitEvent(-0.5, Foot.LEFT, hs),
        GaitEvent(9.6 / rate_hz, Foot.LEFT, to),
        GaitEvent(10.4 / rate_hz, Foot.LEFT, hs),
        GaitEvent(20.0 / rate_hz, Foot.LEFT, to),
        GaitEvent(n / rate_hz, Foot.LEFT, hs),
        GaitEvent((n + 5) / rate_hz, Foot.LEFT, to),
    ]
    got = phases_from_events(events_of(events), n, rate_hz, initial)
    assert same_phases(got, phases_by_event(events, n, rate_hz, initial))
    assert got[Foot.LEFT].tolist() == [0] * 20 + [1] * (n - 20)
    assert got[Foot.RIGHT].tolist() == [list(Phase).index(initial)] * n


def brute_phase_accuracy(predicted, truth_phases, truth_events, rate_hz) -> float:
    """Mean over legs of the label agreement outside the ticks next to and
    at each true event's nearest tick, one tick at a time."""
    accuracies = []
    for foot in Foot:
        n = len(truth_phases[foot])
        masked = set()
        for ev in truth_events:
            if ev.foot is foot:
                k = int(round(ev.t * rate_hz))
                masked |= {j for j in (k - 1, k, k + 1) if 0 <= j < n}
        kept = [j for j in range(n) if j not in masked]
        if kept:
            agree = sum(int(predicted[foot][j] == truth_phases[foot][j]) for j in kept)
            accuracies.append(agree / len(kept))
    return float(np.mean(accuracies)) if accuracies else math.nan


@pytest.fixture(scope="module")
def trial():
    return generate(GaitParams(seed=2), 10.0)


NO_EVENTS = events_of([])


def all_stance(n: int) -> dict[Foot, np.ndarray]:
    return {foot: np.zeros(n, dtype=np.int8) for foot in Foot}


def test_truth_event_before_the_trial_masks_nothing(trial):
    """An event at tick -50 masks no sample: a slice of the mask from
    max(0, k - 1) to k + 2 would end at -48 and mask all but 48."""
    truth = trial.truth
    n = trial.n_ticks
    before = events_of([GaitEvent(-0.5, Foot.RIGHT, EventKind.HEEL_STRIKE), *truth.events])
    rate = trial.rates.control_rate_hz
    plain = score_detection(NO_EVENTS, all_stance(n), truth.events, truth.phases, rate)
    added = score_detection(NO_EVENTS, all_stance(n), before, truth.phases, rate)
    assert added.phase_accuracy == plain.phase_accuracy
    assert plain.phase_accuracy == brute_phase_accuracy(all_stance(n), truth.phases, before, rate)


@pytest.mark.parametrize("rate_hz", RATES_HZ)
@pytest.mark.parametrize("tick", [-3, -2, -1, 0, 1, "n-2", "n-1", "n", "n+1", "n+2"])
def test_guard_band_at_the_edges_equals_brute_force(trial, rate_hz, tick):
    truth = trial.truth
    n = trial.n_ticks
    k = tick if isinstance(tick, int) else n + int(tick[1:] or 0)
    events = events_of([*truth.events, GaitEvent(k / rate_hz, Foot.RIGHT, EventKind.TOE_OFF)])
    got = score_detection(NO_EVENTS, all_stance(n), events, truth.phases, rate_hz).phase_accuracy
    assert got == brute_phase_accuracy(all_stance(n), truth.phases, events, rate_hz)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rate_hz=st.sampled_from(RATES_HZ), n=st.integers(1, 200))
def test_phase_accuracy_equals_brute_force(data, rate_hz, n):
    truth_events = events_of(data.draw(event_streams(n, rate_hz)))
    predicted = phases_from_events(events_of(data.draw(event_streams(n, rate_hz))), n, rate_hz)
    truth = phases_from_events(truth_events, n, rate_hz)
    got = score_detection(NO_EVENTS, predicted, truth_events, truth, rate_hz).phase_accuracy
    expected = brute_phase_accuracy(predicted, truth, truth_events, rate_hz)
    assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_phases_from_events_calls_do_not_grow_with_events():
    n, rate = 30_000, 100.0

    def calls(count: int) -> int:
        hs, to = EventKind.HEEL_STRIKE, EventKind.TOE_OFF
        events = events_of([
            GaitEvent(k * 25.0 / rate, foot, hs if k % 2 == 0 else to)
            for k in range(count // 2)
            for foot in Foot
        ])
        total = 0

        def count_calls(frame, event, arg):
            nonlocal total
            total += event == "call"

        sys.setprofile(count_calls)
        try:
            phases_from_events(events, n, rate)
        finally:
            sys.setprofile(None)
        return total

    assert calls(10) == calls(1000)
