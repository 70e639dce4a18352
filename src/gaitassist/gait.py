"""Shared gait vocabulary: feet, leg phases, gait events, and the combined two-leg state.

`Events` holds an event stream, from the detectors to `events.csv`, as
arrays. `events_and_phases`, the step after both detectors' per-leg
kernels, builds it and the per-tick phases, which `phases_from_flips` gives.
"""
from __future__ import annotations

from collections.abc import Iterator
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


# A foot's and a kind's code in `Events` are its position here; a kind's code
# is that of the phase it enters (heel strike 0 stance, toe off 1 swing).
FEET, KINDS = tuple(Foot), tuple(EventKind)


@dataclass(frozen=True)
class GaitEvent:
    """One event of an `Events` stream."""

    t: float
    foot: Foot
    kind: EventKind


@dataclass(frozen=True, eq=False)
class Events:
    """Gait events in stream order: event i is at `t[i]` seconds (float64),
    of foot `FEET[foot[i]]` and kind `KINDS[kind[i]]` (int8 codes). Per
    foot, kinds alternate and times strictly increase. Iterating gives each
    event as a GaitEvent."""

    t: np.ndarray
    foot: np.ndarray
    kind: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index: np.ndarray) -> Events:
        return Events(self.t[index], self.foot[index], self.kind[index])

    def __iter__(self) -> Iterator[GaitEvent]:
        for t, foot, kind in zip(self.t.tolist(), self.foot.tolist(), self.kind.tolist()):
            yield GaitEvent(t, FEET[foot], KINDS[kind])

    def times(self, foot: Foot, kind: EventKind | None = None) -> np.ndarray:
        """Times of `foot`'s events of `kind`, or of every kind, in stream order."""
        mine = self.foot == FEET.index(foot)
        return self.t[mine if kind is None else mine & (self.kind == KINDS.index(kind))]


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


def check_event_stream(events: Events) -> None:
    """Raise ValueError, naming the first bad event in stream order, if
    per-foot events do not alternate with increasing time."""
    by_foot = np.argsort(events.foot, kind="stable")  # each foot's events in stream order
    t, foot, kind = events.t[by_foot], events.foot[by_foot], events.kind[by_foot]
    follows = foot[1:] == foot[:-1]
    late, repeated = follows & (t[1:] <= t[:-1]), follows & (kind[1:] == kind[:-1])
    if not (bad := np.flatnonzero(late | repeated)).size:
        return
    i = bad[np.argmin(by_foot[bad + 1])]  # the first in stream order: event i + 1 after i
    prev, t_event, name = float(t[i]), float(t[i + 1]), FEET[foot[i]].value
    if late[i]:
        raise ValueError(f"events for {name} not strictly increasing: {t_event} after {prev}")
    raise ValueError(f"duplicated {KINDS[kind[i]].value} for {name} at t={t_event}")


def events_and_phases(
    legs: dict[Foot, tuple[list[int], list[float]]], n: int, initial: Phase
) -> tuple[Events, dict[Foot, np.ndarray]]:
    """Both legs' events and causal phases over n ticks, from each leg's
    emission ticks and event times as a `detect_block` returns them;
    `initial` is each leg's phase before its first tick.

    A leg's events alternate in kind from the one that ends `initial`, and
    each flips its phase from its emission tick on. The events are ordered
    by emission tick, left before right within a tick, as a tick-by-tick
    loop emits them.
    """
    ticks = [np.asarray(legs[foot][0], np.intp) for foot in FEET]
    order = np.argsort(np.concatenate(ticks), kind="stable")  # left stays before right
    first = 1 - tuple(Phase).index(initial)  # the code of the kind that ends `initial`
    kind = np.concatenate([(first + np.arange(len(k))) & 1 for k in ticks]).astype(np.int8)
    foot = np.repeat(np.arange(len(FEET), dtype=np.int8), [len(k) for k in ticks])
    t = np.concatenate([np.asarray(legs[f][1], float) for f in FEET])
    phases = {f: phases_from_flips(initial, k, n) for f, k in zip(FEET, ticks)}
    return Events(t[order], foot[order], kind[order]), phases
