"""Shared gait vocabulary tests, and `gait.Events` and its stream check
against the one-event-at-a-time reference in `gait_reference`."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitassist.gait import (
    FEET,
    KINDS,
    EventKind,
    Events,
    Foot,
    GaitEvent,
    GaitState,
    Phase,
    check_event_stream,
)
from gaitassist.simgait import GaitParams, _truth_events

from gait_reference import (
    PHASE_AFTER_EVENT,
    check_stream_by_event,
    events_of,
    gait_state_from_phases,
    truth_events_by_cycle,
)


def test_other_is_involutive():
    for foot in Foot:
        assert foot.other().other() is foot
    for phase in Phase:
        assert phase.other().other() is phase


def test_events_imply_phases():
    assert PHASE_AFTER_EVENT[EventKind.HEEL_STRIKE] is Phase.STANCE
    assert PHASE_AFTER_EVENT[EventKind.TOE_OFF] is Phase.SWING


def test_a_kind_code_is_the_code_of_the_phase_it_enters():
    assert FEET == tuple(Foot) and KINDS == tuple(EventKind)
    for code, kind in enumerate(KINDS):
        assert tuple(Phase).index(PHASE_AFTER_EVENT[kind]) == code


def test_state_classification_round_trips():
    # each pair of leg phases names its own state, and every state is named
    states = [gait_state_from_phases(left, right) for left in Phase for right in Phase]
    assert sorted(states, key=list(GaitState).index) == list(GaitState)


def test_state_table():
    assert gait_state_from_phases(Phase.STANCE, Phase.STANCE) is GaitState.DOUBLE_STANCE
    assert (
        gait_state_from_phases(Phase.STANCE, Phase.SWING)
        is GaitState.LEFT_STANCE_RIGHT_SWING
    )
    assert (
        gait_state_from_phases(Phase.SWING, Phase.STANCE)
        is GaitState.RIGHT_STANCE_LEFT_SWING
    )
    assert gait_state_from_phases(Phase.SWING, Phase.SWING) is GaitState.DOUBLE_SWING


class TestCheckEventStream:
    def test_alternating_stream_accepted(self):
        events = [
            GaitEvent(0.1, Foot.LEFT, EventKind.HEEL_STRIKE),
            GaitEvent(0.2, Foot.RIGHT, EventKind.TOE_OFF),
            GaitEvent(0.9, Foot.LEFT, EventKind.TOE_OFF),
            GaitEvent(1.0, Foot.RIGHT, EventKind.HEEL_STRIKE),
        ]
        check_event_stream(events_of(events))

    def test_duplicate_kind_rejected(self):
        events = [
            GaitEvent(0.1, Foot.LEFT, EventKind.HEEL_STRIKE),
            GaitEvent(0.5, Foot.LEFT, EventKind.HEEL_STRIKE),
        ]
        with pytest.raises(ValueError):
            check_event_stream(events_of(events))

    def test_non_increasing_time_rejected(self):
        events = [
            GaitEvent(0.5, Foot.LEFT, EventKind.HEEL_STRIKE),
            GaitEvent(0.5, Foot.LEFT, EventKind.TOE_OFF),
        ]
        with pytest.raises(ValueError):
            check_event_stream(events_of(events))

    def test_feet_are_independent(self):
        # same timestamps on different feet are fine
        events = [
            GaitEvent(0.5, Foot.LEFT, EventKind.HEEL_STRIKE),
            GaitEvent(0.5, Foot.RIGHT, EventKind.HEEL_STRIKE),
        ]
        check_event_stream(events_of(events))


SAMPLE = [
    GaitEvent(0.25, Foot.RIGHT, EventKind.TOE_OFF),
    GaitEvent(0.5, Foot.LEFT, EventKind.HEEL_STRIKE),
    GaitEvent(0.5, Foot.RIGHT, EventKind.HEEL_STRIKE),
    GaitEvent(1.0, Foot.LEFT, EventKind.TOE_OFF),
]


class TestEvents:
    def test_iteration_gives_the_listed_events_with_python_floats(self):
        events = events_of(SAMPLE)
        assert list(events) == SAMPLE
        assert all(type(ev.t) is float for ev in events)
        assert len(events) == 4 and len(events_of([])) == 0 and list(events_of([])) == []

    def test_times_in_stream_order(self):
        events = events_of(SAMPLE)
        assert events.times(Foot.LEFT).tolist() == [0.5, 1.0]
        assert events.times(Foot.RIGHT, EventKind.TOE_OFF).tolist() == [0.25]
        assert events.times(Foot.RIGHT, EventKind.HEEL_STRIKE).tolist() == [0.5]
        assert events_of([]).times(Foot.LEFT, EventKind.TOE_OFF).tolist() == []

    def test_a_mask_keeps_stream_order(self):
        events = events_of(SAMPLE)
        kept = events[events.t > 0.25]
        assert isinstance(kept, Events)
        assert list(kept) == SAMPLE[1:]


# Few distinct times, so that events share a time across feet and kinds and
# a foot's events repeat a time or a kind as often as not.
stream_events = st.builds(
    GaitEvent,
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 1.5]),
    st.sampled_from(list(Foot)),
    st.sampled_from(list(EventKind)),
)


def check_message(check, events) -> str | None:
    try:
        check(events)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=500, deadline=None)
@given(st.lists(stream_events, max_size=12))
def test_check_event_stream_equals_the_event_loop(events):
    """Accepted or refused alike, with the message of the same first bad event."""
    expected = check_message(check_stream_by_event, events)
    assert check_message(check_event_stream, events_of(events)) == expected


@pytest.mark.parametrize(
    "events, message",
    [
        (  # the left foot's break comes first, then the right foot's
            [
                GaitEvent(0.1, Foot.RIGHT, EventKind.HEEL_STRIKE),
                GaitEvent(0.2, Foot.LEFT, EventKind.HEEL_STRIKE),
                GaitEvent(0.3, Foot.LEFT, EventKind.HEEL_STRIKE),
                GaitEvent(0.05, Foot.RIGHT, EventKind.TOE_OFF),
            ],
            "duplicated heel_strike for left at t=0.3",
        ),
        (  # the right foot's break comes first in stream order, the left's first by foot
            [
                GaitEvent(0.1, Foot.LEFT, EventKind.HEEL_STRIKE),
                GaitEvent(0.5, Foot.RIGHT, EventKind.TOE_OFF),
                GaitEvent(0.4, Foot.RIGHT, EventKind.HEEL_STRIKE),
                GaitEvent(0.2, Foot.LEFT, EventKind.HEEL_STRIKE),
            ],
            "events for right not strictly increasing: 0.4 after 0.5",
        ),
        (  # a late event that also repeats its kind is reported as late
            [
                GaitEvent(0.5, Foot.LEFT, EventKind.TOE_OFF),
                GaitEvent(0.5, Foot.LEFT, EventKind.TOE_OFF),
            ],
            "events for left not strictly increasing: 0.5 after 0.5",
        ),
    ],
)
def test_both_feet_break_the_rules(events, message):
    assert check_message(check_stream_by_event, events) == message
    with pytest.raises(ValueError) as err:
        check_event_stream(events_of(events))
    assert str(err.value) == message


@settings(max_examples=300, deadline=None)
@given(
    cadence=st.floats(0.2, 3.0),
    stance=st.floats(0.5, 0.8, exclude_min=True, exclude_max=True),
    t_last=st.floats(0.0, 40.0),
)
def test_truth_events_equal_the_cycle_loop(cadence, stance, t_last):
    params = GaitParams(cadence_hz=cadence, stance_fraction=stance)
    events = _truth_events(params, t_last)
    assert events.foot.dtype == events.kind.dtype == np.int8
    assert list(events) == truth_events_by_cycle(params, t_last)
