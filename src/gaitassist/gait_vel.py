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
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpecError
from .gait import (
    EventKind,
    Foot,
    GaitEvent,
    GaitState,
    Phase,
    gait_state_from_phases,
    merge_legs,
    scan_leg,
)


@dataclass(frozen=True)
class VelDetectorConfig:
    zero_hysteresis_rad_s: float = 0.05
    peak_min_rad_s: float = 0.5
    peak_confirm_samples: int = 3
    min_event_gap_s: float = 0.3

    def __post_init__(self) -> None:
        if not self.zero_hysteresis_rad_s > 0:
            raise InvalidSpecError("zero_hysteresis_rad_s must be positive")
        if not self.peak_min_rad_s > 0:
            raise InvalidSpecError("peak_min_rad_s must be positive")
        if self.peak_confirm_samples < 2:
            raise InvalidSpecError("peak_confirm_samples must be at least 2")
        if self.min_event_gap_s < 0:
            raise InvalidSpecError("min_event_gap_s must be non-negative")


@dataclass(frozen=True)
class _LegState:
    """One leg's phase plus its peak tracker and the contralateral crossing tracker."""

    foot: Foot
    phase: Phase = Phase.STANCE
    since: float = -math.inf
    last_event_t: float = -math.inf
    # running maximum of the leg's own angular velocity since the last event
    peak_max: float = -math.inf
    peak_max_t: float = math.nan
    decline_count: int = 0
    # hysteresis tracker for the contralateral signal: +1 above the band,
    # -1 below it, 0 before the signal first leaves the band
    cross_region: int = 0
    cross_pending_t: float = math.nan


@dataclass(frozen=True)
class VelDetectorState:
    """Both legs' detector state; step with :func:`vel_step`.

    Both legs start in stance, matching a standing posture before walking.
    """

    left: _LegState
    right: _LegState

    @classmethod
    def initial(cls) -> VelDetectorState:
        return cls(left=_LegState(Foot.LEFT), right=_LegState(Foot.RIGHT))


# A leg's state as plain values: (phase, last_event_t, peak_max, peak_max_t,
# decline_count, cross_region, cross_pending_t), the fields of _LegState
# that the transition reads.
_Plain = tuple[Phase, float, float, float, int, int, float]


def _plain(leg: _LegState) -> _Plain:
    return (
        leg.phase,
        leg.last_event_t,
        leg.peak_max,
        leg.peak_max_t,
        leg.decline_count,
        leg.cross_region,
        leg.cross_pending_t,
    )


def vel_transition(
    state: _Plain, t: float, own: float, contra: float, cfg: VelDetectorConfig
) -> tuple[_Plain, tuple[EventKind, float] | None]:
    """One leg's detector on plain floats: the single copy of its logic.

    Args:
        state: the leg's plain state before this tick (see `_plain`).
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


def _step_leg(
    leg: _LegState, cfg: VelDetectorConfig, t: float, own: float, contra: float
) -> tuple[_LegState, GaitEvent | None]:
    state, fired = vel_transition(_plain(leg), t, own, contra, cfg)
    phase, last_event_t, peak_max, peak_max_t, decline, region, pending = state
    event = None if fired is None else GaitEvent(fired[1], leg.foot, fired[0])
    return (
        replace(
            leg,
            phase=phase,
            since=leg.since if event is None else event.t,
            last_event_t=last_event_t,
            peak_max=peak_max,
            peak_max_t=peak_max_t,
            decline_count=decline,
            cross_region=region,
            cross_pending_t=pending,
        ),
        event,
    )


def _check_finite(t: float, omega_left: float, omega_right: float) -> None:
    if not (math.isfinite(omega_left) and math.isfinite(omega_right)):
        raise ValueError(
            f"non-finite angular velocity at t={t}: ({omega_left}, {omega_right})"
        )


def vel_step(
    state: VelDetectorState,
    cfg: VelDetectorConfig,
    t: float,
    omega_left: float,
    omega_right: float,
) -> tuple[VelDetectorState, list[GaitEvent]]:
    """Advance both legs by one control tick.

    Args:
        state: detector state from the previous tick.
        cfg: detector thresholds.
        t: tick time in seconds.
        omega_left, omega_right: hip angular velocities in rad/s.

    Returns:
        The new state and any events emitted this tick (at most one per leg).
        Toe-off events are backdated to the sample where the peak occurred.
    """
    _check_finite(t, omega_left, omega_right)
    new_left, ev_left = _step_leg(state.left, cfg, t, omega_left, omega_right)
    new_right, ev_right = _step_leg(state.right, cfg, t, omega_right, omega_left)
    events = [ev for ev in (ev_left, ev_right) if ev is not None]
    return VelDetectorState(left=new_left, right=new_right), events


def vel_phases(state: VelDetectorState) -> GaitState:
    """Combine the two per-leg phases into the two-leg gait state."""
    return gait_state_from_phases(state.left.phase, state.right.phase)


def detect_vel(
    omega_left: np.ndarray, omega_right: np.ndarray, t: np.ndarray, cfg: VelDetectorConfig
) -> tuple[list[GaitEvent], dict[Foot, np.ndarray]]:
    """Run both legs' detectors over whole angular velocity channels.

    Equivalent to stepping :func:`vel_step` over every tick from
    :meth:`VelDetectorState.initial`, but builds no object per tick.

    Args:
        omega_left, omega_right: hip angular velocities in rad/s, one per tick.
        t: the tick times in seconds.
        cfg: detector thresholds.

    Returns:
        The events in emission order and each leg's per-tick phase after
        the tick (0 stance, 1 swing). Raises ValueError at the first tick
        whose angular velocity is not finite.
    """
    bad = ~(np.isfinite(omega_left) & np.isfinite(omega_right))
    if bad.any():
        k = int(bad.argmax())
        _check_finite(float(t[k]), float(omega_left[k]), float(omega_right[k]))
    initial = VelDetectorState.initial()
    fired = {
        Foot.LEFT: scan_leg(
            vel_transition, _plain(initial.left), cfg, t, omega_left, omega_right
        ),
        Foot.RIGHT: scan_leg(
            vel_transition, _plain(initial.right), cfg, t, omega_right, omega_left
        ),
    }
    return merge_legs(len(t), initial.left.phase, fired)
