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

from .errors import InvalidSpecError
from .gait import EventKind, Foot, GaitEvent, Phase, merge_legs, scan_leg

FRONT_SENSORS = slice(0, 4)
BACK_SENSORS = slice(4, 8)


def check_forces(forces: np.ndarray) -> None:
    """Raise InvalidSpecError unless `forces` holds rows of 8 finite, non-negative forces."""
    width = forces.shape[-1] if forces.ndim else 0
    if width != 8:
        raise InvalidSpecError(f"insole frame needs 8 forces, got {width}")
    if not ((forces >= 0.0) & (forces < math.inf)).all():
        raise InvalidSpecError("insole forces must be finite and non-negative")


def force_sums(forces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(front, back) cluster force sums of one frame or of one row per frame."""
    return forces[..., FRONT_SENSORS].sum(axis=-1), forces[..., BACK_SENSORS].sum(axis=-1)


@dataclass(frozen=True)
class FsrDetectorConfig:
    """Thresholds and debounce for the insole detector.

    contact_threshold_n: total force above which a swinging foot is in contact.
    release_threshold_n: per-cluster force below which a stance foot has left
        the ground; must sit below the contact threshold (hysteresis).
    min_phase_s: shortest accepted phase duration (debounce), at least two
        control periods.
    """

    contact_threshold_n: float = 20.0
    release_threshold_n: float = 10.0
    min_phase_s: float = 0.15

    def __post_init__(self) -> None:
        if not self.contact_threshold_n > 0:
            raise InvalidSpecError("contact_threshold_n must be positive")
        if not 0 < self.release_threshold_n < self.contact_threshold_n:
            raise InvalidSpecError(
                "release_threshold_n must be positive and below contact_threshold_n"
            )
        if not self.min_phase_s > 0:
            raise InvalidSpecError("min_phase_s must be positive")


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


def detect_fsr(
    insole: dict[Foot, np.ndarray], t: np.ndarray, cfg: FsrDetectorConfig
) -> tuple[list[GaitEvent], dict[Foot, np.ndarray]]:
    """Run both legs' detectors over whole insole channels.

    Each leg folds :func:`fsr_transition` over its frames from INITIAL_STATE.

    Args:
        insole: per-foot (n, 8) forces in newtons, one row per tick.
        t: the n tick times in seconds.
        cfg: thresholds and debounce.

    Returns:
        The events in emission order and each leg's per-tick phase after
        the tick (0 stance, 1 swing). Raises InvalidSpecError for a force
        that is negative or not finite.
    """
    fired = {}
    for foot in Foot:
        forces = np.asarray(insole[foot], dtype=float)
        if forces.ndim != 2 or len(forces) != len(t):
            raise InvalidSpecError(
                f"{foot.value} insole needs {len(t)} rows of 8 forces, got shape {forces.shape}"
            )
        check_forces(forces)
        fired[foot] = scan_leg(fsr_transition, INITIAL_STATE, cfg, t, *force_sums(forces))
    return merge_legs(len(t), INITIAL_STATE[0], fired)

