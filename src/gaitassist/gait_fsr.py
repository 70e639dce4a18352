"""Gait phase detection from force-sensitive-resistor insoles.

Each insole carries eight sensors: indices 0-3 under the forefoot, 4-7 under
the heel. A leg enters stance when total contact force rises above the
contact threshold (heel strike) and enters swing when both sensor clusters
drop below the release threshold (toe off). The two thresholds form a
hysteresis band and a minimum-phase debounce rejects chatter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gait
from .errors import InvalidSpecError, check_ranges, ranged
from .gait import EventKind, Foot, GaitEvent, Phase

FRONT_SENSORS = slice(0, 4)
BACK_SENSORS = slice(4, 8)


def force_sums(forces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(front, back) cluster force sums of one frame or of one row per frame."""
    return forces[..., FRONT_SENSORS].sum(axis=-1), forces[..., BACK_SENSORS].sum(axis=-1)


@dataclass(frozen=True)
class FsrDetectorConfig:
    """Thresholds and debounce for the insole detector.

    contact_threshold_n: total force above which a swinging foot is in contact.
    release_threshold_n: per-cluster force below which a stance foot has left
        the ground; must sit below the contact threshold (hysteresis).
    min_phase_s: shortest accepted phase duration (debounce), in (0, inf) s.
    """

    contact_threshold_n: float = ranged(20.0, "(0, inf)")
    release_threshold_n: float = ranged(10.0, "(0, inf)")
    min_phase_s: float = ranged(0.15, "(0, inf)")

    def __post_init__(self) -> None:
        check_ranges(self)
        if not self.release_threshold_n < self.contact_threshold_n:
            raise InvalidSpecError("release_threshold_n must be below contact_threshold_n")


# A leg's state before its first frame: swinging, with no event yet.
INITIAL_STATE = (Phase.SWING, -math.inf)


def fsr_transition(
    state: tuple[Phase, float], t: float, front: float, back: float, cfg: FsrDetectorConfig
) -> tuple[tuple[Phase, float], tuple[EventKind, float] | None]:
    """One leg's phase machine on plain floats: the single copy of its logic.

    Args:
        state: (phase, time of the last event) before this frame.
        t: frame time in seconds.
        front, back: the frame's cluster force sums in newtons.
        cfg: thresholds and debounce.

    Returns:
        The state after the frame and, if the leg changed phase, the
        (kind, time) of the event it emitted.
    """
    phase, last_event_t = state
    if t - last_event_t < cfg.min_phase_s:
        return state, None
    if phase is Phase.SWING:
        if front + back > cfg.contact_threshold_n:
            return (Phase.STANCE, t), (EventKind.HEEL_STRIKE, t)
    elif front < cfg.release_threshold_n and back < cfg.release_threshold_n:
        return (Phase.SWING, t), (EventKind.TOE_OFF, t)
    return state, None


def detect(
    insole: dict[Foot, np.ndarray], t: np.ndarray, cfg: FsrDetectorConfig
) -> tuple[list[GaitEvent], dict[Foot, np.ndarray]]:
    """Both legs' :func:`fsr_transition` folded over whole insole channels
    (see :func:`gait.detect`); `insole` holds each foot's (n, 8) forces in
    newtons, one row per tick, as `simgait.check_channels` checks them."""
    return gait.detect(
        fsr_transition, INITIAL_STATE, cfg, t, {foot: force_sums(insole[foot]) for foot in Foot}
    )
