"""Gait phase detection from hip angular velocities.

A leg's stance begins when the opposite hip's angular velocity crosses zero
(either direction, guarded by a hysteresis band), and its swing begins when
the leg's own angular velocity tops out: once the signal has exceeded a
minimum peak height and then declined for a fixed number of consecutive
samples, a toe-off is emitted backdated to the sample where the maximum
occurred. The confirmation lag is therefore exactly `peak_confirm_samples`
control periods.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gait
from .errors import check_ranges, ranged
from .gait import EventKind, Foot, GaitEvent, Phase


@dataclass(frozen=True)
class VelDetectorConfig:
    """Thresholds for the hip-velocity detector.

    zero_hysteresis_rad_s: half-width of the band around zero that the
        contralateral velocity must leave to confirm a crossing.
    peak_min_rad_s: smallest peak of the leg's own velocity taken as toe off.
    peak_confirm_samples: declining samples that confirm a peak (the lag).
    min_event_gap_s: shortest time between two events of one leg.
    """

    zero_hysteresis_rad_s: float = ranged(0.05, "(0, inf)")
    peak_min_rad_s: float = ranged(0.5, "(0, inf)")
    peak_confirm_samples: int = field(default=3, metadata={"range": "[2, inf)", "integer": True})
    min_event_gap_s: float = ranged(0.3, "[0, inf)")

    def __post_init__(self) -> None:
        check_ranges(self)


# A leg's state as plain values: (phase, last_event_t, peak_max, peak_max_t,
# decline_count, cross_region, cross_pending_t). peak_max and peak_max_t are
# the running maximum of the leg's own angular velocity after its last event,
# and decline_count the samples after that maximum. cross_region tracks the
# contralateral signal: +1 above the hysteresis band, -1 below it, 0 before
# it first leaves the band; cross_pending_t is when it last passed zero.
_Plain = tuple[Phase, float, float, float, int, int, float]

# A leg's state before the first tick: in stance, matching a standing
# posture before walking, with no event, peak or crossing yet.
INITIAL_STATE: _Plain = (Phase.STANCE, -math.inf, -math.inf, math.nan, 0, 0, math.nan)


def vel_transition(
    state: _Plain, t: float, own: float, contra: float, cfg: VelDetectorConfig
) -> tuple[_Plain, tuple[EventKind, float] | None]:
    """One leg's detector on plain floats: the single copy of its logic.

    Args:
        state: the leg's plain state before this tick (see `_Plain`).
        t: tick time in seconds.
        own, contra: this leg's and the other leg's hip angular velocity.
        cfg: detector thresholds.

    Returns:
        The state after the tick and, if the leg changed phase, the
        (kind, time) of the event it emitted; a toe off is backdated to
        the sample of the confirmed peak.
    """
    phase, last_event_t, peak_max, peak_max_t, decline, region, pending = state
    h = cfg.zero_hysteresis_rad_s
    fired: tuple[EventKind, float] | None = None

    # Heel strike: contralateral velocity passes through zero, confirmed when
    # it emerges on the far side of the hysteresis band. The event time is
    # the first sample past zero, not the confirmation sample.
    crossed = False
    if region == +1:
        if math.isnan(pending) and contra <= 0.0:
            pending = t
        elif not math.isnan(pending) and contra > 0.0:
            pending = math.nan
        if contra < -h:
            crossed = True
            region = -1
    elif region == -1:
        if math.isnan(pending) and contra >= 0.0:
            pending = t
        elif not math.isnan(pending) and contra < 0.0:
            pending = math.nan
        if contra > h:
            crossed = True
            region = +1
    else:
        if contra > h:
            region = +1
        elif contra < -h:
            region = -1

    if crossed:
        t_event = pending if not math.isnan(pending) else t
        pending = math.nan
        if (
            phase is Phase.SWING
            and t - last_event_t >= cfg.min_event_gap_s
            and t_event > last_event_t
        ):
            fired = (EventKind.HEEL_STRIKE, t_event)

    # Toe off: causal peak confirmation on the leg's own velocity.
    if fired is None:
        if own > peak_max:
            peak_max, peak_max_t, decline = own, t, 0
        else:
            decline += 1
        if decline >= cfg.peak_confirm_samples and peak_max >= cfg.peak_min_rad_s:
            if (
                phase is Phase.STANCE
                and t - last_event_t >= cfg.min_event_gap_s
                and peak_max_t > last_event_t
            ):
                fired = (EventKind.TOE_OFF, peak_max_t)
            else:
                # stale or suppressed peak: start the tracker over
                peak_max, peak_max_t, decline = -math.inf, math.nan, 0

    if fired is not None:
        phase = phase.other()
        last_event_t = t
        peak_max, peak_max_t, decline = -math.inf, math.nan, 0

    return (phase, last_event_t, peak_max, peak_max_t, decline, region, pending), fired


def detect(
    omega: dict[Foot, np.ndarray], t: np.ndarray, cfg: VelDetectorConfig
) -> tuple[list[GaitEvent], dict[Foot, np.ndarray]]:
    """Both legs' :func:`vel_transition` folded over whole channels (see
    :func:`gait.detect`); `omega` holds each foot's hip angular velocity in
    rad/s, one finite value per tick. A leg reads its own velocity, then the
    other leg's."""
    legs = {foot: (omega[foot], omega[foot.other()]) for foot in Foot}
    return gait.detect(vel_transition, INITIAL_STATE, cfg, t, legs)
