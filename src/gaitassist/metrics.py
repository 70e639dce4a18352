"""Outcome metrics and detector scoring for walking trials.

Muscle effort is summarized by the RMS and 90th percentile of the normalized
EMG envelope; gait is summarized by stride length, hip and knee range of
motion, and walking speed. Detector output is scored against ground truth by
greedy event matching inside a +/-100 ms window plus per-sample phase
agreement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gait import EventKind, Foot, GaitEvent, Phase

MATCH_WINDOW_S = 0.1

# Metric table header, kept aligned with the usual gait-report column names.
METRIC_COLUMNS = (
    "s. length [m]",
    "hip RoM [deg]",
    "knee RoM [deg]",
    "speed [m/s]",
    "EMG RMS [MVC]",
    "EMG p90 [MVC]",
)


@dataclass(frozen=True)
class TrialMetrics:
    emg_rms: float
    emg_p90: float
    stride_length_m: float
    hip_rom_deg: float
    knee_rom_deg: float
    speed_m_s: float

    def as_row(self) -> tuple[float, ...]:
        """Values ordered like METRIC_COLUMNS."""
        return (
            self.stride_length_m,
            self.hip_rom_deg,
            self.knee_rom_deg,
            self.speed_m_s,
            self.emg_rms,
            self.emg_p90,
        )


def _window_samples(x, window: tuple[float, float] | None) -> np.ndarray:
    """Samples of `x`, restricted to a [start, stop) window in seconds.

    `x` may be a TimeSeries or a plain array; a window requires timestamps,
    so it is only valid with a TimeSeries.
    """
    if window is None:
        return np.asarray(getattr(x, "samples", x), dtype=float)
    if not hasattr(x, "times"):
        raise ValueError("a seconds window requires a TimeSeries input")
    start, stop = window
    if not stop > start:
        raise ValueError(f"empty window [{start}, {stop})")
    t = x.times()
    return np.asarray(x.samples, dtype=float)[(t >= start) & (t < stop)]


def rms(x, window: tuple[float, float] | None = None) -> float:
    """Root mean square, optionally over a [start, stop) window in seconds."""
    samples = _window_samples(x, window)
    if samples.size == 0:
        raise ValueError("rms of an empty window")
    return float(np.sqrt(np.mean(np.square(samples))))


def percentile(x, p: float) -> float:
    """Percentile with linear interpolation between closest ranks.

    p = 100 returns the maximum; p = 50 the median.
    """
    samples = np.asarray(getattr(x, "samples", x), dtype=float)
    if samples.size == 0:
        raise ValueError("percentile of an empty series")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile p must lie in (0, 100], got {p}")
    return float(np.percentile(samples, p, method="linear"))


def _heel_strike_times(events: list[GaitEvent], foot: Foot) -> np.ndarray:
    return np.array(
        [ev.t for ev in events if ev.foot is foot and ev.kind is EventKind.HEEL_STRIKE]
    )


def stride_length(
    foot_xy: dict[Foot, np.ndarray],
    times: np.ndarray,
    events: list[GaitEvent],
) -> float:
    """Mean planar distance between consecutive same-foot heel strikes.

    Args:
        foot_xy: per-foot (n, 2) planar positions in meters.
        times: sample times matching the position rows.
        events: gait events; both feet need at least two heel strikes.

    Returns:
        Per-foot stride means averaged over the two feet.
    """
    per_foot = []
    for foot in Foot:
        hs = _heel_strike_times(events, foot)
        if len(hs) < 2:
            raise ValueError(
                f"need at least two heel strikes for {foot.value}, got {len(hs)}"
            )
        idx = np.clip(np.searchsorted(times, hs), 0, len(times) - 1)
        pts = foot_xy[foot][idx]
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        per_foot.append(float(steps.mean()))
    return float(np.mean(per_foot))


def rom(
    angle_deg: np.ndarray,
    times: np.ndarray,
    events: list[GaitEvent],
    foot: Foot,
) -> float:
    """Range of motion: per-stride (max - min), averaged across strides.

    Strides are delimited by consecutive heel strikes of `foot`.
    """
    hs = _heel_strike_times(events, foot)
    if len(hs) < 2:
        raise ValueError(f"need at least two heel strikes for {foot.value}")
    angle_deg = np.asarray(angle_deg, dtype=float)
    idx = np.clip(np.searchsorted(times, hs), 0, len(angle_deg))
    spans = []
    for a, b in zip(idx[:-1], idx[1:]):
        if b - a < 2:
            continue
        seg = angle_deg[a:b]
        spans.append(float(seg.max() - seg.min()))
    if not spans:
        raise ValueError("no usable strides for range of motion")
    return float(np.mean(spans))


def cadence(events: list[GaitEvent]) -> float:
    """Strides per second from mean same-foot heel-strike spacing."""
    spacings = []
    for foot in Foot:
        hs = _heel_strike_times(events, foot)
        if len(hs) >= 2:
            spacings.extend(np.diff(hs))
    if not spacings:
        raise ValueError("not enough heel strikes to estimate cadence")
    return float(1.0 / np.mean(spacings))


@dataclass(frozen=True)
class EventScore:
    """Matching outcome for one event kind; matched + missed equals truth count."""

    matched: int
    missed: int
    spurious: int
    timing_mae_s: float


@dataclass(frozen=True)
class DetectionScore:
    by_kind: dict[EventKind, EventScore]
    phase_accuracy: float

    @property
    def recall(self) -> float:
        matched = sum(s.matched for s in self.by_kind.values())
        truth = sum(s.matched + s.missed for s in self.by_kind.values())
        return matched / truth if truth else float("nan")

    @property
    def total_spurious(self) -> int:
        return sum(s.spurious for s in self.by_kind.values())


def _match_times(
    truth: np.ndarray, predicted: np.ndarray, window_s: float
) -> tuple[list[float], int, int]:
    """Greedy in-order matching; returns (abs errors, missed, spurious)."""
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


def score_detection(
    predicted_events: list[GaitEvent],
    predicted_phases: dict[Foot, np.ndarray],
    truth_events: list[GaitEvent],
    truth_phases: dict[Foot, np.ndarray],
    rate_hz: float,
    t0: float = 0.0,
) -> DetectionScore:
    """Score detector output against ground truth on a shared time base.

    Events are matched greedily in time order, per foot and kind, inside
    +/-MATCH_WINDOW_S. Phase accuracy is the per-leg label agreement averaged
    over legs, ignoring the sample on each side of every true event of that
    leg (a transition can never be pinned more tightly than the sample grid).
    """
    errors_by_kind: dict[EventKind, list[float]] = {k: [] for k in EventKind}
    missed_by_kind: dict[EventKind, int] = {k: 0 for k in EventKind}
    spurious_by_kind: dict[EventKind, int] = {k: 0 for k in EventKind}
    for foot in Foot:
        for kind in EventKind:
            truth_t = np.array(
                [ev.t for ev in truth_events if ev.foot is foot and ev.kind is kind]
            )
            pred_t = np.array(
                [ev.t for ev in predicted_events if ev.foot is foot and ev.kind is kind]
            )
            errors, missed, spurious = _match_times(truth_t, pred_t, MATCH_WINDOW_S)
            errors_by_kind[kind].extend(errors)
            missed_by_kind[kind] += missed
            spurious_by_kind[kind] += spurious

    by_kind = {}
    for kind in EventKind:
        errs = errors_by_kind[kind]
        by_kind[kind] = EventScore(
            matched=len(errs),
            missed=missed_by_kind[kind],
            spurious=spurious_by_kind[kind],
            timing_mae_s=float(np.mean(errs)) if errs else math.nan,
        )

    accuracies = []
    for foot in Foot:
        pred = np.asarray(predicted_phases[foot])
        truth = np.asarray(truth_phases[foot])
        if pred.shape != truth.shape:
            raise ValueError(
                f"label streams for {foot.value} differ in length: "
                f"{pred.shape} vs {truth.shape}"
            )
        keep = np.ones(len(truth), dtype=bool)
        for ev in truth_events:
            if ev.foot is not foot:
                continue
            k = int(round((ev.t - t0) * rate_hz))
            keep[max(0, k - 1) : k + 2] = False
        if keep.any():
            accuracies.append(float(np.mean(pred[keep] == truth[keep])))
    phase_accuracy = float(np.mean(accuracies)) if accuracies else math.nan
    return DetectionScore(by_kind=by_kind, phase_accuracy=phase_accuracy)


def phases_from_events(
    events: list[GaitEvent],
    n: int,
    rate_hz: float,
    t0: float = 0.0,
    initial: dict[Foot, Phase] | None = None,
) -> dict[Foot, np.ndarray]:
    """Per-sample phase labels reconstructed from an event sequence.

    Before a foot's first event its phase is the one that event ends (a heel
    strike implies prior swing); a foot with no events keeps `initial` or
    stance. Returns int8 arrays with 0 = stance, 1 = swing.
    """
    phase_code = {Phase.STANCE: 0, Phase.SWING: 1}
    out: dict[Foot, np.ndarray] = {}
    for foot in Foot:
        evs = [ev for ev in events if ev.foot is foot]
        labels = np.zeros(n, dtype=np.int8)
        if not evs:
            start = (initial or {}).get(foot, Phase.STANCE)
            labels[:] = phase_code[start]
            out[foot] = labels
            continue
        first = evs[0]
        before = Phase.SWING if first.kind is EventKind.HEEL_STRIKE else Phase.STANCE
        labels[:] = phase_code[before]
        for ev in evs:
            k = int(round((ev.t - t0) * rate_hz))
            if k >= n:
                continue
            phase = Phase.STANCE if ev.kind is EventKind.HEEL_STRIKE else Phase.SWING
            labels[max(0, k):] = phase_code[phase]
        out[foot] = labels
    return out
