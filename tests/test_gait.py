"""Shared gait vocabulary tests."""
from __future__ import annotations

import pytest

from gaitassist.gait import (
    PHASE_AFTER_EVENT,
    EventKind,
    Foot,
    GaitEvent,
    GaitState,
    Phase,
    check_event_stream,
)

from gait_reference import gait_state_from_phases


def test_other_is_involutive():
    for foot in Foot:
        assert foot.other().other() is foot
    for phase in Phase:
        assert phase.other().other() is phase


def test_events_imply_phases():
    assert PHASE_AFTER_EVENT[EventKind.HEEL_STRIKE] is Phase.STANCE
    assert PHASE_AFTER_EVENT[EventKind.TOE_OFF] is Phase.SWING


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
        check_event_stream(events)

    def test_duplicate_kind_rejected(self):
        events = [
            GaitEvent(0.1, Foot.LEFT, EventKind.HEEL_STRIKE),
            GaitEvent(0.5, Foot.LEFT, EventKind.HEEL_STRIKE),
        ]
        with pytest.raises(ValueError):
            check_event_stream(events)

    def test_non_increasing_time_rejected(self):
        events = [
            GaitEvent(0.5, Foot.LEFT, EventKind.HEEL_STRIKE),
            GaitEvent(0.5, Foot.LEFT, EventKind.TOE_OFF),
        ]
        with pytest.raises(ValueError):
            check_event_stream(events)

    def test_feet_are_independent(self):
        # same timestamps on different feet are fine
        events = [
            GaitEvent(0.5, Foot.LEFT, EventKind.HEEL_STRIKE),
            GaitEvent(0.5, Foot.RIGHT, EventKind.HEEL_STRIKE),
        ]
        check_event_stream(events)
