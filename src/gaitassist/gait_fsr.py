"""Gait phase detection from force-sensitive-resistor insoles.

Each insole carries eight sensors: indices 0-3 under the forefoot, 4-7 under
the heel. A leg enters stance when total contact force rises above the
contact threshold (heel strike) and enters swing when both sensor clusters
drop below the release threshold (toe off). The two thresholds form a
hysteresis band and a minimum-phase debounce rejects chatter.
"""
from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from . import gait
from .gait import Events, Foot, Phase
from .settings import FsrDetectorConfig


# Rows that `force_sums` adds at a time: 8,192 rows of eight forces (512 KB)
# stay in a core's cache across the eight column adds.
_SUM_ROWS = 8192


def force_sums(forces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(front, back) cluster force sums of one frame or of one row per frame,
    each its columns added in order from +0.0: the bytes of numpy's `sum`.
    The rows are added in blocks of _SUM_ROWS, the same adds in the same order."""
    sums = np.zeros((2, *forces.shape[:-1]))
    rows, flat = forces.reshape(-1, forces.shape[-1]), sums.reshape(2, -1)
    for lo in range(0, len(rows), _SUM_ROWS):
        block, (front, back) = rows[lo : lo + _SUM_ROWS], flat[:, lo : lo + _SUM_ROWS]
        for j in range(4):
            front += block[:, j]
            back += block[:, 4 + j]
    return sums[0], sums[1]


# A leg's state before its first frame: swinging, with no event yet.
INITIAL_STATE = (Phase.SWING, -math.inf)


def detect_block(
    state: tuple[Phase, float], t: np.ndarray, front: np.ndarray, back: np.ndarray,
    cfg: FsrDetectorConfig,
) -> tuple[tuple[Phase, float], list[int], list[float]]:
    """One leg's phase machine over a block of ticks, jumping from event to event.

    A swinging leg strikes at the first tick, past the debounce, whose total
    force exceeds the contact threshold; a leg in stance lifts off at the
    first such tick where both clusters are below the release threshold.

    Args:
        state: (phase, time of the last event) before the block.
        t: the block's increasing tick times in seconds.
        front, back: the cluster force sums in newtons, one per tick.
        cfg: thresholds and debounce.

    Returns:
        The state after the block, and each event's emission tick and time;
        kinds alternate from the one ending the state's phase.
    """
    phase, last_event_t = state
    release, gap = cfg.release_threshold_n, cfg.min_phase_s
    strikes = _runs(t, front + back > cfg.contact_threshold_n)
    lifts = _runs(t, (front < release) & (back < release))
    ticks, times, k = [], [], 0
    while True:
        starts, stops, start_t = strikes if phase is Phase.SWING else lifts
        for i in range(bisect_right(stops, k), len(stops)):  # the runs not over before k
            j, t_j = starts[i], start_t[i]
            if j < k or t_j - last_event_t < gap:  # begun before k or inside the debounce
                j = max(j, k)  # the transition's own test turns true once along a run
                ok = t[j : stops[i]] - last_event_t >= gap
                if not ok[-1]:
                    continue
                j += int(ok.argmax())
                t_j = float(t[j])
            break
        else:
            return (phase, last_event_t), ticks, times
        phase, last_event_t = phase.other(), t_j
        ticks.append(j)
        times.append(t_j)
        k = j + 1


def _runs(t: np.ndarray, mask: np.ndarray) -> tuple[list[int], list[int], list[float]]:
    """Start ticks, stop ticks (one past the end) and start times of `mask`'s runs."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return edges[::2].tolist(), edges[1::2].tolist(), t[edges[::2]].tolist()


def detect(
    insole: dict[Foot, np.ndarray], t: np.ndarray, cfg: FsrDetectorConfig
) -> tuple[Events, dict[Foot, np.ndarray]]:
    """Both legs' :func:`detect_block` over whole insole channels from
    `INITIAL_STATE`; `insole` holds each foot's (n, 8) forces in newtons, one
    row per tick, finite and non-negative, as a `simgait.TrialLog` is checked."""
    legs = {
        foot: detect_block(INITIAL_STATE, t, *force_sums(insole[foot]), cfg)[1:] for foot in Foot
    }
    return gait.events_and_phases(legs, len(t), INITIAL_STATE[0])
