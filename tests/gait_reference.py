"""The detectors' executable specification: one leg's transition per tick.

`fsr_transition` and `vel_transition` are the plain-float, one-tick-at-a-time
phase machines that the package's event-skipping kernels
(`gait_fsr.detect_block`, `gait_vel.detect_block`) must reproduce bit for
bit; `fold` steps one of them over a block of ticks and returns what a
kernel returns, with each event's kind. `gait_state_from_phases` names the two-leg state of a tick.
`set_phases` and `phases_by_event` turn events into per-tick phases one event
at a time, the specification of `gait.events_and_phases` and
`metrics.phases_from_events`. `events_and_phases_by_event`,
`check_stream_by_event` and `truth_events_by_cycle` build and check event
streams one `GaitEvent` at a time: the specification of
`gait.events_and_phases`, `gait.check_event_stream` and
`simgait._truth_events`, which work on `gait.Events` arrays; `events_of`
turns such a list into `Events`. `distribute` and `toward` are the torque law
one tick at a time, the specification of `controller.command_torque`: the
split of one tick's total torque and one ramp-limited step. `rom_by_stride`
is `metrics.rom` one stride at a time, and `match_times` is
`metrics._match_times` on numpy scalars. The tests run these as the
reference; the package never calls them.
"""
from __future__ import annotations

import math

import numpy as np

from gaitassist.controller import ControllerConfig
from gaitassist.gait import FEET, KINDS, EventKind, Events, Foot, GaitEvent, GaitState, Phase
from gaitassist.gait_fsr import FsrDetectorConfig
from gaitassist.gait_vel import VelDetectorConfig, _Plain
from gaitassist.simgait import _PHASE_OFFSET, GaitParams

# Phase entered by each event kind: heel strike starts stance, toe off starts swing.
PHASE_AFTER_EVENT = {EventKind.HEEL_STRIKE: Phase.STANCE, EventKind.TOE_OFF: Phase.SWING}


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
    returns (state, emission ticks, (kind, time) of each event): what a
    `detect_block` returns, with the kinds."""
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


def events_of(events: list[GaitEvent]) -> Events:
    """The `gait.Events` of `events`, in list order."""
    return Events(
        np.array([ev.t for ev in events], float),
        np.array([FEET.index(ev.foot) for ev in events], np.int8),
        np.array([KINDS.index(ev.kind) for ev in events], np.int8),
    )


def events_and_phases_by_event(
    legs: dict[Foot, tuple[list[int], list[tuple[EventKind, float]]]], n: int, initial: Phase
) -> tuple[list[GaitEvent], dict[Foot, np.ndarray]]:
    """`gait.events_and_phases` one event at a time, from each leg's
    emission ticks and (kind, time) pairs as `fold` returns them: the events
    ordered by emission tick, left before right within a tick, and each
    leg's phases set by `set_phases` from `initial`."""
    tagged: list[tuple[int, GaitEvent]] = []
    phases: dict[Foot, np.ndarray] = {}
    for foot in Foot:
        ticks, fired = legs[foot]
        tagged += [(k, GaitEvent(t_event, foot, kind)) for k, (kind, t_event) in zip(ticks, fired)]
        phases[foot] = set_phases(initial, [(k, kind) for k, (kind, _) in zip(ticks, fired)], n)
    tagged.sort(key=lambda item: item[0])  # stable, so left stays before right
    return [event for _, event in tagged], phases


def check_stream_by_event(events: list[GaitEvent]) -> None:
    """`gait.check_event_stream` one event at a time: ValueError at the
    first event that does not follow its foot's last one in time, or that
    repeats its kind."""
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


def truth_events_by_cycle(params: GaitParams, t_last: float) -> list[GaitEvent]:
    """`simgait._truth_events` one gait cycle at a time: each leg's heel
    strikes and toe offs in (0, t_last], sorted by time, foot and kind."""
    events: list[GaitEvent] = []
    c = params.cadence_hz
    sf = params.stance_fraction
    n_cycles = int(math.ceil(t_last * c)) + 2
    for foot in (Foot.LEFT, Foot.RIGHT):
        off = _PHASE_OFFSET[foot]
        for k in range(n_cycles):
            t_hs = (k - off) / c
            t_to = (k - off + sf) / c
            if 0.0 < t_hs <= t_last:
                events.append(GaitEvent(t_hs, foot, EventKind.HEEL_STRIKE))
            if 0.0 < t_to <= t_last:
                events.append(GaitEvent(t_to, foot, EventKind.TOE_OFF))
    events.sort(key=lambda ev: (ev.t, ev.foot.value, ev.kind.value))
    return events


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


def rom_by_stride(angle_deg: np.ndarray, times: np.ndarray, events: Events, foot: Foot):
    """`metrics.rom` one stride at a time: the mean over `foot`'s strides,
    heel strike to heel strike, of max - min, skipping strides of fewer
    than two samples."""
    hs = [ev.t for ev in events if ev.foot is foot and ev.kind is EventKind.HEEL_STRIKE]
    if len(hs) < 2:
        raise ValueError(f"need at least two heel strikes for {foot.value}")
    angle_deg = np.asarray(angle_deg, dtype=float)
    idx = np.clip(np.searchsorted(times, np.array(hs, float)), 0, len(angle_deg))
    spans = []
    for a, b in zip(idx[:-1], idx[1:]):
        if b - a < 2:
            continue
        seg = angle_deg[a:b]
        spans.append(float(seg.max() - seg.min()))
    if not spans:
        raise ValueError("no usable strides for range of motion")
    return float(np.mean(spans))


def match_times(
    truth: np.ndarray, predicted: np.ndarray, window_s: float
) -> tuple[list[float], int, int]:
    """`metrics._match_times` indexing the arrays one numpy scalar at a time:
    each true time, in order, takes the first unused predicted time within
    `window_s`, skipping the ones too early for it; returns (abs errors,
    missed, spurious)."""
    errors: list[float] = []
    j = 0
    for t in truth:
        while j < len(predicted) and predicted[j] < t - window_s:
            j += 1
        if j < len(predicted) and abs(predicted[j] - t) <= window_s:
            errors.append(abs(predicted[j] - t))
            j += 1
    missed = len(truth) - len(errors)
    spurious = int(len(predicted) - len(errors))
    return errors, missed, spurious
