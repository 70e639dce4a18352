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
from bisect import bisect_left

import numpy as np

from . import gait
from .gait import Events, Foot, Phase
from .settings import VelDetectorConfig


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


def detect_block(
    state: _Plain, t: np.ndarray, own: np.ndarray, contra: np.ndarray, cfg: VelDetectorConfig
) -> tuple[_Plain, list[int], list[float]]:
    """One leg's detector over a block of ticks, jumping from event to event.

    A swinging leg strikes at the first crossing of the other leg's velocity
    past the event gap whose event time is after the last event. A leg in
    stance lifts off at the first peak its tracker confirms past the gap.
    The tracker starts over after every event and every confirmed peak.

    Args:
        state: the leg's state before the block (see `_Plain`): any state
            a tick-by-tick run from `INITIAL_STATE` can reach.
        t: the block's increasing tick times in seconds.
        own, contra: this leg's and the other leg's hip angular velocity.
        cfg: detector thresholds.

    Returns:
        The state after the block, and each event's emission tick and time
        (a toe off's peak); kinds alternate from the one ending the phase.
    """
    phase, last_event_t, peak_max, peak_max_t, decline, region, pending = state
    n, c, gap = len(t), cfg.peak_confirm_samples, cfg.min_event_gap_s
    crossings, region, pending = _crossings(t, contra, cfg.zero_hysteresis_rad_s, region, pending)
    # ticks whose sample reaches the peak height and is not exceeded by the
    # next c samples: a peak recorded there is confirmed c ticks later
    head = own[: max(n - c, 0)]
    peaks = np.flatnonzero((head >= cfg.peak_min_rad_s) & (head >= _window_max(own[1:], c)))
    peak_ticks, peak_values, peak_t = peaks.tolist(), own[peaks].tolist(), t[peaks].tolist()
    confirm_t = t[peaks + c].tolist()

    def confirmation(s: int) -> tuple[int, float, float] | None:
        """(tick, peak time, tick time) of the tracker's next confirmed peak from
        tick s: the carried one, or else the first candidate above it, since no
        sample after the last earlier candidate as high as a candidate reaches it."""
        if peak_max >= cfg.peak_min_rad_s:
            j = s + max(0, c - decline - 1)
            if j < n and own[s : j + 1].max() <= peak_max:
                return j, peak_max_t, float(t[j])
        for i in range(bisect_left(peak_ticks, s), len(peak_ticks)):
            if peak_values[i] > peak_max:
                return peak_ticks[i] + c, peak_t[i], confirm_t[i]
        return None

    ticks, times, s = [], [], 0
    while True:
        if phase is Phase.SWING:
            i = bisect_left(crossings, (s,))  # then skip the crossings that cannot fire
            while i < len(crossings) and not (
                crossings[i][1] - last_event_t >= gap and crossings[i][2] > last_event_t
            ):
                i += 1
            if i == len(crossings):
                break
            k, t_k, t_event = crossings[i]
        else:
            if (hit := confirmation(s)) is None:
                break
            k, t_event, t_k = hit
        s, peak_max, peak_max_t, decline = k + 1, -math.inf, math.nan, 0  # the tracker starts over
        if not (t_k - last_event_t >= gap and t_event > last_event_t):
            continue  # a stale or suppressed peak; every crossing found above passes
        ticks.append(k)
        times.append(t_event)
        phase, last_event_t = phase.other(), t_k
    while (hit := confirmation(s)) is not None:  # a swinging leg's peaks are discarded
        s, peak_max, peak_max_t, decline = hit[0] + 1, -math.inf, math.nan, 0
    if s < n:
        k = s + int(np.argmax(own[s:]))
        if own[k] > peak_max:
            peak_max, peak_max_t, decline = float(own[k]), float(t[k]), n - 1 - k
        else:
            decline += n - s
    return (phase, last_event_t, peak_max, peak_max_t, decline, region, pending), ticks, times


def _window_max(x: np.ndarray, w: int) -> np.ndarray:
    """max(x[i : i + w]) for each i in range(len(x) - w + 1), by doubling."""
    if len(x) < w:
        return x[:0]
    m, span = x, 1
    while 2 * span <= w:
        m, span = np.maximum(m[:-span], m[span:]), 2 * span
    return np.maximum(m[: len(x) - w + 1], m[w - span :])


def _crossings(
    t: np.ndarray, contra: np.ndarray, h: float, region: int, pending: float
) -> tuple[list[tuple[int, float, float]], int, float]:
    """Each hysteresis crossing of the other leg's velocity in a block, as
    (tick, its time, time of the first sample past zero), and the (region,
    pending) after the block. A crossing is a flip of the region, the last
    side of the band the velocity left; it is used up whether or not it fires."""
    side = (contra > h).astype(np.int8) - (contra < -h)
    # the first sample of each run outside the band: the region flips only there
    outside = np.flatnonzero((np.diff(side, prepend=0) != 0) & (side != 0))
    signs = side[outside]
    before = np.concatenate(([region], signs[:-1]))  # the region each sample leaves
    flips = np.flatnonzero((signs != before) & (before != 0))
    k, r = outside[flips], before[flips]
    # pending dates the run after the last sample on the region's side of zero
    # (`up` above it, `down` below, after a -1 for none), or the carried pending
    first = float(t[0]) if math.isnan(pending) and len(t) else pending
    up, down = (np.concatenate(([-1], np.flatnonzero(x * contra > 0.0))) for x in (1, -1))
    last = np.where(r > 0, *(x[x.searchsorted(k, "right") - 1] for x in (up, down)))
    starts = np.where(last >= 0, t[last + 1], first)  # a flip's sample is past zero
    if len(signs):
        region = int(signs[-1])
    if region and len(t):
        last = (up if region > 0 else down)[-1]
        pending = first if last < 0 else float(t[last + 1]) if last + 1 < len(t) else math.nan
    return list(zip(k.tolist(), t[k].tolist(), starts.tolist())), region, pending


def detect(
    omega: dict[Foot, np.ndarray], t: np.ndarray, cfg: VelDetectorConfig
) -> tuple[Events, dict[Foot, np.ndarray]]:
    """Both legs' :func:`detect_block` over whole channels from
    `INITIAL_STATE`; `omega` holds each foot's hip angular velocity in rad/s,
    one finite value per tick. A leg reads its own velocity, then the other
    leg's."""
    legs = {
        foot: detect_block(INITIAL_STATE, t, omega[foot], omega[foot.other()], cfg)[1:]
        for foot in Foot
    }
    return gait.events_and_phases(legs, len(t), INITIAL_STATE[0])
