"""Shared gait vocabulary: feet, leg phases, gait events, and the combined two-leg state.

Also the step both detectors' `detect` take after their per-leg kernels:
`events_and_phases` merges both legs' emitted events into one stream and
gives the per-tick phases, which `phases_from_flips` builds.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Foot(Enum):
    LEFT = "left"
    RIGHT = "right"

    def other(self) -> Foot:
        return Foot.RIGHT if self is Foot.LEFT else Foot.LEFT


class Phase(Enum):
    STANCE = "stance"
    SWING = "swing"

    def other(self) -> Phase:
        return Phase.SWING if self is Phase.STANCE else Phase.STANCE


class EventKind(Enum):
    HEEL_STRIKE = "heel_strike"
    TOE_OFF = "toe_off"


# Phase entered by each event kind: heel strike starts stance, toe off starts swing.
PHASE_AFTER_EVENT = {EventKind.HEEL_STRIKE: Phase.STANCE, EventKind.TOE_OFF: Phase.SWING}


@dataclass(frozen=True)
class GaitEvent:
    """One detected or ground-truth gait event.

    For a single foot, events alternate between heel strike and toe off and
    are strictly increasing in time.
    """

    t: float
    foot: Foot
    kind: EventKind


class GaitState(Enum):
    """Combined state of both legs, used to distribute assistive torque."""

    DOUBLE_STANCE = "double_stance"
    LEFT_STANCE_RIGHT_SWING = "left_stance_right_swing"
    RIGHT_STANCE_LEFT_SWING = "right_stance_left_swing"
    DOUBLE_SWING = "double_swing"


# A phase's code in per-tick arrays is its position in `Phase` (0 stance, 1
# swing); a two-leg state's is its position here, 2 * left code + right code.
STATE_BY_CODE = tuple(GaitState)


def gait_state_codes(phases: dict[Foot, np.ndarray]) -> np.ndarray:
    """Per-tick index into STATE_BY_CODE from both legs' phase codes."""
    return (2 * phases[Foot.LEFT] + phases[Foot.RIGHT]).astype(np.int8)


def phases_from_flips(start: Phase, ticks: np.ndarray | list[int], n: int) -> np.ndarray:
    """A leg's int8 phase codes over n ticks: `start`'s code, flipped from
    each of `ticks` on. A tick before 0 flips from tick 0, one at or past n
    never, and two flips on one tick cancel."""
    ticks = np.asarray(ticks)
    flips = np.bincount(np.maximum(ticks[ticks < n], 0).astype(np.intp), minlength=n)
    return ((tuple(Phase).index(start) + np.cumsum(flips)) & 1).astype(np.int8)


def check_event_stream(events: list[GaitEvent]) -> None:
    """Raise ValueError if per-foot events do not alternate with increasing time."""
    last: dict[Foot, GaitEvent] = {}
    for ev in events:
        prev = last.get(ev.foot)
        if prev is not None:
            if ev.t <= prev.t:
                raise ValueError(
                    f"events for {ev.foot.value} not strictly increasing: "
                    f"{ev.t} after {prev.t}"
                )
            if ev.kind is prev.kind:
                raise ValueError(
                    f"duplicated {ev.kind.value} for {ev.foot.value} at t={ev.t}"
                )
        last[ev.foot] = ev


def events_and_phases(
    legs: dict[Foot, tuple[list[int], list[tuple[EventKind, float]]]], n: int, initial: Phase
) -> tuple[list[GaitEvent], dict[Foot, np.ndarray]]:
    """Both legs' events and causal phases over n ticks, from each leg's
    emission ticks and (kind, event time) pairs as a `detect_block` returns
    them; `initial` is each leg's phase before its first tick.

    The events are ordered by emission tick, left before right within a
    tick, as a tick-by-tick loop emits them. Each event flips its leg's
    phase from its emission tick on.
    """
    tagged: list[tuple[int, GaitEvent]] = []
    phases: dict[Foot, np.ndarray] = {}
    for foot in Foot:
        ticks, fired = legs[foot]
        tagged += [(k, GaitEvent(t_event, foot, kind)) for k, (kind, t_event) in zip(ticks, fired)]
        phases[foot] = phases_from_flips(initial, ticks, n)
    tagged.sort(key=lambda item: item[0])  # stable, so left stays before right
    return [event for _, event in tagged], phases
