"""The detectors' executable specification: one leg's transition per tick.

`fsr_transition` and `vel_transition` are the plain-float, one-tick-at-a-time
phase machines that the package's event-skipping kernels
(`gait_fsr.detect_block`, `gait_vel.detect_block`) must reproduce bit for
bit; `fold` steps one of them over a block of ticks and returns what a
kernel returns. `gait_state_from_phases` names the two-leg state of a tick.
`set_phases` and `phases_by_event` turn events into per-tick phases one event
at a time, the specification of `gait.events_and_phases` and
`metrics.phases_from_events`. `distribute` and `toward` are the torque law
one tick at a time, the specification of `controller.command_torque`: the
split of one tick's total torque and one ramp-limited step. The tests run
these as the reference; the package never calls them.
"""
from __future__ import annotations

import math

import numpy as np

from gaitassist.controller import ControllerConfig
from gaitassist.gait import PHASE_AFTER_EVENT, EventKind, Foot, GaitEvent, GaitState, Phase
from gaitassist.gait_fsr import FsrDetectorConfig
from gaitassist.gait_vel import VelDetectorConfig, _Plain


def gait_state_from_phases(left: Phase, right: Phase) -> GaitState:
    """Classify the two-leg state from per-leg phases."""
    if left is Phase.STANCE:
        if right is Phase.STANCE:
            return GaitState.DOUBLE_STANCE
        return GaitState.LEFT_STANCE_RIGHT_SWING
    if right is Phase.STANCE:
        return GaitState.RIGHT_STANCE_LEFT_SWING
    return GaitState.DOUBLE_SWING


def fsr_transition(
    state: tuple[Phase, float], t: float, front: float, back: float, cfg: FsrDetectorConfig
) -> tuple[tuple[Phase, float], tuple[EventKind, float] | None]:
    """One leg's insole phase machine, one frame at a time.

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


def vel_transition(
    state: _Plain, t: float, own: float, contra: float, cfg: VelDetectorConfig
) -> tuple[_Plain, tuple[EventKind, float] | None]:
    """One leg's hip-velocity detector, one tick at a time.

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


def fold(transition, state, t, a, b, cfg):
    """Step `transition` over ticks t with channels a and b from `state`;
    returns (state, emission ticks, fired), as a `detect_block` does."""
    ticks, fired = [], []
    for k, (tk, ak, bk) in enumerate(zip(t.tolist(), a.tolist(), b.tolist())):
        state, event = transition(state, tk, ak, bk, cfg)
        if event is not None:
            ticks.append(k)
            fired.append(event)
    return state, ticks, fired


def set_phases(start: Phase, marks: list[tuple[int, EventKind]], n: int) -> np.ndarray:
    """One leg's per-tick phase codes over n ticks (0 stance, 1 swing):
    `start`, then, one (tick, kind) mark at a time, the phase the kind
    enters from that tick on; a negative tick sets every tick, one at or
    past n none."""
    code = {Phase.STANCE: 0, Phase.SWING: 1}
    labels = np.full(n, code[start], dtype=np.int8)
    for k, kind in marks:
        if k < n:
            labels[max(0, k):] = code[PHASE_AFTER_EVENT[kind]]
    return labels


def phases_by_event(
    events: list[GaitEvent], n: int, rate_hz: float, initial: Phase = Phase.STANCE
) -> dict[Foot, np.ndarray]:
    """`metrics.phases_from_events` one event at a time: each foot starts in
    the phase its first event ends, or in `initial` without events, and each
    event sets the phase from the tick nearest its time on."""
    out = {}
    for foot in Foot:
        evs = [ev for ev in events if ev.foot is foot]
        start = PHASE_AFTER_EVENT[evs[0].kind].other() if evs else initial
        out[foot] = set_phases(start, [(int(round(ev.t * rate_hz)), ev.kind) for ev in evs], n)
    return out


def distribute(gait: GaitState, tau_exo_nm: float, cfg: ControllerConfig) -> tuple[float, float]:
    """Split one tick's total torque between the (left, right) legs by gait state.

    Double stance shares equally at the stance gain; in single stance the
    swing leg gets the swing gain (zero by default); with both feet off the
    ground each leg's gain is zero. Every leg's torque is its gain times the
    total, so a zero gain gives -0.0 for a total of -0.0 in every state.
    """
    ks, kw = cfg.k_stance, cfg.k_swing
    if gait is GaitState.DOUBLE_STANCE:
        return (ks * tau_exo_nm, ks * tau_exo_nm)
    if gait is GaitState.LEFT_STANCE_RIGHT_SWING:
        return (ks * tau_exo_nm, kw * tau_exo_nm)
    if gait is GaitState.RIGHT_STANCE_LEFT_SWING:
        return (kw * tau_exo_nm, ks * tau_exo_nm)
    return (0.0 * tau_exo_nm, 0.0 * tau_exo_nm)


def toward(previous: float, target: float, max_step: float) -> float:
    """One ramp-limited tick: `target`, or `previous` moved `max_step` toward it."""
    if target > previous + max_step:
        return previous + max_step
    if target < previous - max_step:
        return previous - max_step
    return target
