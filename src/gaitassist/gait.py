"""Shared gait vocabulary: feet, leg phases, gait events, and the combined two-leg state.

Also the whole-trial fold both detectors share: `detect` steps each leg's
plain-float transition over a trial and returns the event stream and the
per-tick phases.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import count
from typing import Any, Callable

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


def gait_state_from_phases(left: Phase, right: Phase) -> GaitState:
    """Classify the two-leg state from per-leg phases."""
    if left is Phase.STANCE:
        if right is Phase.STANCE:
            return GaitState.DOUBLE_STANCE
        return GaitState.LEFT_STANCE_RIGHT_SWING
    if right is Phase.STANCE:
        return GaitState.RIGHT_STANCE_LEFT_SWING
    return GaitState.DOUBLE_SWING


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


# Ticks converted from numpy to Python floats at a time by the array-native
# loops: enough to amortise each conversion, few enough that no loop ever
# holds a whole trial as Python lists.
BLOCK_TICKS = 4096


def detect(
    transition: Callable[..., tuple[Any, tuple[EventKind, float] | None]],
    initial: tuple,
    cfg: Any,
    t: np.ndarray,
    legs: dict[Foot, tuple[np.ndarray, np.ndarray]],
) -> tuple[list[GaitEvent], dict[Foot, np.ndarray]]:
    """Fold each leg's transition over a whole trial, one tick per sample.

    Args:
        transition: the detector's plain-float transition, called as
            `transition(state, t, a, b, cfg) -> (state, fired)`; `fired` is
            None or the (kind, event time) of the event emitted at t.
        initial: each leg's state before the first tick, its phase first.
        cfg: detector configuration, passed through to `transition`.
        t: the n tick times in seconds.
        legs: each leg's two input channels (a, b), n values each.

    Returns:
        The events ordered by emission tick, left before right within a
        tick, as a tick-by-tick loop emits them, and each leg's causal
        per-tick phase (0 stance, 1 swing): every event flips its leg's
        phase from its emission tick on.
    """
    tagged: list[tuple[int, GaitEvent]] = []
    phases: dict[Foot, np.ndarray] = {}
    for foot in Foot:
        a, b = legs[foot]
        state, ticks = initial, []
        for start in range(0, len(t), BLOCK_TICKS):
            stop = start + BLOCK_TICKS
            for k, tk, ak, bk in zip(
                count(start), t[start:stop].tolist(), a[start:stop].tolist(), b[start:stop].tolist()
            ):
                state, fired = transition(state, tk, ak, bk, cfg)
                if fired is not None:
                    ticks.append(k)
                    tagged.append((k, GaitEvent(fired[1], foot, fired[0])))
        flips = np.zeros(len(t), dtype=np.int8)
        flips[np.array(ticks, dtype=np.intp)] = 1
        phases[foot] = ((int(initial[0] is Phase.SWING) + np.cumsum(flips)) & 1).astype(np.int8)
    tagged.sort(key=lambda item: item[0])  # stable, so left stays before right
    return [event for _, event in tagged], phases
