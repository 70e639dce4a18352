"""Outcome metrics and detector scoring for walking trials.

Muscle effort is summarized by the RMS and 90th percentile of the normalized
EMG envelope; gait is summarized by stride length, hip and knee range of
motion, and walking speed. Detector output is scored against ground truth by
greedy event matching inside a +/-100 ms window plus per-sample phase
agreement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .gait import FEET, EventKind, Events, Foot, Phase, phases_from_flips

MATCH_WINDOW_S = 0.1


@dataclass(frozen=True)
class TrialMetrics:
    """An `analyze` row: fields in column order, headed by gait-report names."""

    stride_length_m: float = field(metadata={"column": "s. length [m]"})
    hip_rom_deg: float = field(metadata={"column": "hip RoM [deg]"})
    knee_rom_deg: float = field(metadata={"column": "knee RoM [deg]"})
    speed_m_s: float = field(metadata={"column": "speed [m/s]"})
    emg_rms: float = field(metadata={"column": "EMG RMS [MVC]"})
    emg_p90: float = field(metadata={"column": "EMG p90 [MVC]"})


METRIC_COLUMNS = tuple(f.metadata["column"] for f in fields(TrialMetrics))


def rms(samples: np.ndarray) -> float:
    """Root mean square."""
    if samples.size == 0:
        raise ValueError("rms of an empty series")
    return float(np.sqrt(np.mean(np.square(samples))))


def percentile(samples: np.ndarray, p: float) -> float:
    """Percentile with linear interpolation between closest ranks.

    p = 100 returns the maximum; p = 50 the median; a NaN sample gives NaN.
    Bit for bit `np.percentile(samples, p, method="linear")` on float
    samples: the same partition, rank and interpolation, without the
    `numpy.ma` import that `np.percentile` makes.
    """
    if samples.size == 0:
        raise ValueError("percentile of an empty series")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile p must lie in (0, 100], got {p}")
    ordered = np.asarray(samples, dtype=float).flatten()
    rank = (ordered.size - 1) * (p / 100)
    lo = -1 if rank >= ordered.size - 1 else math.floor(rank)  # -1: the maximum
    hi = -1 if lo == -1 else lo + 1
    ordered.partition(sorted({0, -1, lo, hi}))  # numpy's kth; NaN sorts to the end
    if math.isnan(ordered[-1]):
        return float(ordered[-1])
    a, b, t = float(ordered[lo]), float(ordered[hi]), rank - lo
    step = b - a
    return b - step * (1 - t) if t >= 0.5 else a + step * t


def stride_length(
    foot_xy: dict[Foot, np.ndarray],
    times: np.ndarray,
    events: Events,
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
        hs = events.times(foot, EventKind.HEEL_STRIKE)
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
    events: Events,
    foot: Foot,
) -> float:
    """Range of motion: per-stride (max - min), averaged across strides.

    Strides are delimited by consecutive heel strikes of `foot`.
    """
    hs = events.times(foot, EventKind.HEEL_STRIKE)
    if len(hs) < 2:
        raise ValueError(f"need at least two heel strikes for {foot.value}")
    # one sample past the end makes the index len(angle_deg) a valid reduceat start
    padded = np.append(np.asarray(angle_deg, dtype=float), 0.0)
    idx = np.clip(np.searchsorted(times, hs), 0, len(padded) - 1)
    keep = idx[1:] - idx[:-1] >= 2  # a stride of fewer than two samples has no range
    if not keep.any():
        raise ValueError("no usable strides for range of motion")
    bounds = np.column_stack([idx[:-1][keep], idx[1:][keep]]).ravel()  # every other segment
    top, bottom = (f.reduceat(padded, bounds)[::2] for f in (np.maximum, np.minimum))
    return float(np.mean(top - bottom))


def cadence(events: Events) -> float:
    """Strides per second from mean same-foot heel-strike spacing."""
    spacings = []
    for foot in Foot:
        hs = events.times(foot, EventKind.HEEL_STRIKE)
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
    j, predicted = 0, predicted.tolist()
    for t in truth.tolist():
        while j < len(predicted) and predicted[j] < t - window_s:
            j += 1
        if j < len(predicted) and abs(predicted[j] - t) <= window_s:
            errors.append(abs(predicted[j] - t))
            j += 1
    return errors, len(truth) - len(errors), len(predicted) - len(errors)


def score_detection(
    predicted_events: Events,
    predicted_phases: dict[Foot, np.ndarray],
    truth_events: Events,
    truth_phases: dict[Foot, np.ndarray],
    rate_hz: float,
) -> DetectionScore:
    """Score detector output against ground truth on a shared time base.

    Events are matched greedily in time order, per foot and kind, inside
    +/-MATCH_WINDOW_S. Phase accuracy is the per-leg label agreement averaged
    over legs, ignoring the sample on each side of every true event of that
    leg (a transition can never be pinned more tightly than the sample grid).
    """
    by_kind = {}
    for kind in EventKind:
        errors, missed, spurious = [], 0, 0
        for foot in Foot:
            foot_errors, foot_missed, foot_spurious = _match_times(
                truth_events.times(foot, kind),
                predicted_events.times(foot, kind),
                MATCH_WINDOW_S,
            )
            errors += foot_errors
            missed += foot_missed
            spurious += foot_spurious
        mae = float(np.mean(errors)) if errors else math.nan
        by_kind[kind] = EventScore(len(errors), missed, spurious, timing_mae_s=mae)

    accuracies = []
    for foot in Foot:
        pred = np.asarray(predicted_phases[foot])
        truth = np.asarray(truth_phases[foot])
        if pred.shape != truth.shape:
            raise ValueError(
                f"label streams for {foot.value} differ in length: "
                f"{pred.shape} vs {truth.shape}"
            )
        near = (np.rint(truth_events.times(foot) * rate_hz)[:, None] + (-1, 0, 1)).ravel()
        keep = np.ones(len(truth), dtype=bool)
        keep[near[(near >= 0) & (near < len(truth))].astype(np.intp)] = False
        if keep.any():
            accuracies.append(float(np.mean(pred[keep] == truth[keep])))
    phase_accuracy = float(np.mean(accuracies)) if accuracies else math.nan
    return DetectionScore(by_kind=by_kind, phase_accuracy=phase_accuracy)


def phases_from_events(
    events: Events, n: int, rate_hz: float, initial: Phase = Phase.STANCE
) -> dict[Foot, np.ndarray]:
    """Per-sample phase codes reconstructed from an event sequence whose
    events alternate in kind per foot.

    Each event flips its foot's phase from the tick nearest its time on (see
    `gait.phases_from_flips`). Before a foot's first event its phase is the
    one that event ends (a heel strike implies prior swing); a foot with no
    events keeps `initial`.
    """
    out: dict[Foot, np.ndarray] = {}
    for code, foot in enumerate(FEET):
        mine = events[events.foot == code]
        start = tuple(Phase)[1 - mine.kind[0]] if len(mine) else initial
        out[foot] = phases_from_flips(start, np.rint(mine.t * rate_hz), n)
    return out
