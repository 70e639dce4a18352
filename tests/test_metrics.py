"""Metric and scoring tests against naive brute-force oracles."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitassist.gait import EventKind, Foot, GaitEvent, Phase
from gaitassist.metrics import (
    cadence,
    percentile,
    phases_from_events,
    rms,
    rom,
    score_detection,
    stride_length,
)
from gaitassist.simgait import GaitParams, generate

from gait_reference import rom_by_stride

HS = EventKind.HEEL_STRIKE
TO = EventKind.TOE_OFF


def brute_rms(values) -> float:
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total / len(values))


def brute_percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, written longhand."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    frac = rank - lo
    return ordered[lo] + frac * (ordered[hi] - ordered[lo])


class TestRms:
    def test_three_four_example(self):
        assert rms(np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5), rel=1e-15)

    def test_constant_series(self):
        assert rms(np.full(100, 0.3)) == pytest.approx(0.3, rel=1e-15)

    def test_matches_brute_force_on_1000_series(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            x = rng.standard_normal(rng.integers(1, 200)) * rng.uniform(0.01, 100)
            expected = brute_rms(x.tolist())
            assert rms(x) == pytest.approx(expected, rel=1e-12)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            rms(np.array([]))


class TestPercentile:
    def test_1_to_100_p90_is_90_point_1(self):
        x = np.arange(1.0, 101.0)
        assert percentile(x, 90.0) == pytest.approx(90.1, rel=1e-12)

    def test_p100_is_maximum(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(777)
        assert percentile(x, 100.0) == x.max()

    def test_constant_series_returns_constant(self):
        for p in (1.0, 37.0, 50.0, 99.0, 100.0):
            assert percentile(np.full(10, 2.5), p) == 2.5

    def test_matches_brute_force_on_1000_series(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            x = rng.standard_normal(rng.integers(2, 150)) * rng.uniform(0.01, 50)
            p = float(rng.uniform(1.0, 100.0))
            expected = brute_percentile(x.tolist(), p)
            assert percentile(x, p) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_out_of_range_p_rejected(self):
        with pytest.raises(ValueError):
            percentile(np.arange(5.0), 0.0)
        with pytest.raises(ValueError):
            percentile(np.arange(5.0), 101.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            percentile(np.array([]), 50.0)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
def test_scale_equivariance_and_permutation_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(64)
    shuffled = rng.permutation(x)
    assert rms(shuffled) == pytest.approx(rms(x), rel=1e-12)
    assert percentile(shuffled, 90.0) == pytest.approx(percentile(x, 90.0), rel=1e-12)
    assert rms(scale * x) == pytest.approx(scale * rms(x), rel=1e-9)
    assert percentile(scale * x, 90.0) == pytest.approx(
        scale * percentile(x, 90.0), rel=1e-9, abs=1e-12
    )


def _hs(t: float, foot: Foot) -> GaitEvent:
    return GaitEvent(t=t, foot=foot, kind=HS)


def _to(t: float, foot: Foot) -> GaitEvent:
    return GaitEvent(t=t, foot=foot, kind=TO)


class TestStrideLength:
    def test_hand_built_positions(self):
        times = np.arange(0.0, 6.0, 0.1)
        n = len(times)
        left = np.zeros((n, 2))
        right = np.zeros((n, 2))
        # left heel strikes at x = 0, 3 with y = 0, 4: planar stride 5
        left[times >= 2.0] = (3.0, 4.0)
        # right strides of 1.0 then 1.2
        right[times >= 1.5, 0] = 1.0
        right[times >= 3.5, 0] = 2.2
        events = [
            _hs(0.0, Foot.LEFT),
            _hs(0.5, Foot.RIGHT),
            _hs(2.0, Foot.LEFT),
            _hs(1.5, Foot.RIGHT),
            _hs(3.5, Foot.RIGHT),
        ]
        expected = np.mean([5.0, np.mean([1.0, 1.2])])
        got = stride_length({Foot.LEFT: left, Foot.RIGHT: right}, times, events)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_stationary_positions_give_zero(self):
        times = np.arange(0.0, 4.0, 0.1)
        xy = np.tile([2.0, -0.09], (len(times), 1))
        events = [_hs(t, f) for f in Foot for t in (0.5, 1.5, 2.5)]
        assert stride_length({f: xy for f in Foot}, times, events) == 0.0

    def test_too_few_heel_strikes_rejected(self):
        times = np.arange(0.0, 4.0, 0.1)
        xy = np.zeros((len(times), 2))
        events = [_hs(0.5, Foot.LEFT), _hs(1.5, Foot.LEFT), _hs(0.7, Foot.RIGHT)]
        with pytest.raises(ValueError):
            stride_length({f: xy for f in Foot}, times, events)


class TestRom:
    def test_sinusoid_spans_twice_amplitude(self):
        rate, amp, period = 100.0, 17.0, 1.25
        times = np.arange(0.0, 10.0, 1.0 / rate)
        angle = amp * np.sin(2 * np.pi * times / period)
        hs_times = np.arange(0.0, 10.0, period)
        events = [_hs(t, Foot.LEFT) for t in hs_times]
        assert rom(angle, times, events, Foot.LEFT) == pytest.approx(2 * amp, rel=5e-3)

    def test_constant_angle_gives_zero(self):
        times = np.arange(0.0, 5.0, 0.01)
        angle = np.full_like(times, 33.0)
        events = [_hs(0.5, Foot.RIGHT), _hs(2.0, Foot.RIGHT), _hs(3.5, Foot.RIGHT)]
        assert rom(angle, times, events, Foot.RIGHT) == 0.0

    def test_no_complete_stride_rejected(self):
        times = np.arange(0.0, 5.0, 0.01)
        with pytest.raises(ValueError):
            rom(np.sin(times), times, [_hs(1.0, Foot.LEFT)], Foot.LEFT)

    @settings(max_examples=300, deadline=None)
    @given(
        angle=st.lists(
            st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, math.nan, 1e-300])),
            min_size=0, max_size=60,
        ),
        extra=st.integers(-5, 5),
        strikes=st.lists(st.floats(-1.0, 8.0), min_size=0, max_size=12),
        other=st.lists(st.floats(0.0, 6.0), max_size=4),
    )
    def test_equals_the_stride_loop(self, angle, extra, strikes, other):
        """Bit for bit the loop in gait_reference, or its ValueError: strides
        out of order, of fewer than two samples, past either end of `times`
        or of an angle shorter or longer than `times`."""
        times = np.arange(max(len(angle) + extra, 0)) * 0.1
        events = [_hs(t, Foot.LEFT) for t in strikes] + [_hs(t, Foot.RIGHT) for t in other]
        outcomes = []
        for f in (rom, rom_by_stride):
            try:
                outcomes.append(np.float64(f(np.array(angle), times, events, Foot.LEFT)).tobytes())
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_seed42_channels_equal_the_stride_loop(self):
        log = generate(GaitParams(noise_sigma=0.05, seed=42), 60.0)
        times, events = log.times(), log.truth.events
        for channel in (log.hip_deg, log.knee_deg):
            for foot in Foot:
                got = rom(channel[foot], times, events, foot)
                assert got == rom_by_stride(channel[foot], times, events, foot)


def test_cadence_from_heel_strike_spacing():
    events = []
    for k in range(5):
        events.append(_hs(k / 0.7, Foot.LEFT))
        events.append(_hs(k / 0.7 + 0.5 / 0.7, Foot.RIGHT))
    assert cadence(events) == pytest.approx(0.7, rel=1e-9)


def make_truth(n_strides: int = 8, cadence_hz: float = 0.7, sf: float = 0.6):
    period = 1.0 / cadence_hz
    events = []
    for k in range(n_strides):
        base = k * period
        events.append(_hs(base + 0.0, Foot.LEFT))
        events.append(_to(base + sf * period, Foot.LEFT))
        events.append(_hs(base + 0.5 * period, Foot.RIGHT))
        events.append(_to(base + (0.5 + sf) % 1.0 * period, Foot.RIGHT))
    return sorted(events, key=lambda e: e.t)


class TestScoreDetection:
    RATE = 100.0

    def _labels(self, events, n):
        return phases_from_events(events, n, self.RATE)

    def test_identical_streams_score_perfectly(self):
        truth = make_truth()
        n = 1200
        labels = self._labels(truth, n)
        score = score_detection(truth, labels, truth, labels, self.RATE)
        assert score.phase_accuracy == 1.0
        assert score.recall == 1.0
        assert score.total_spurious == 0
        for s in score.by_kind.values():
            assert s.missed == 0
            assert s.timing_mae_s == 0.0

    def test_shift_by_20ms_gives_20ms_mae(self):
        truth = make_truth()
        shifted = [GaitEvent(ev.t + 0.020, ev.foot, ev.kind) for ev in truth]
        n = 1200
        score = score_detection(
            shifted, self._labels(shifted, n), truth, self._labels(truth, n), self.RATE
        )
        for s in score.by_kind.values():
            assert s.missed == 0
            assert s.spurious == 0
            assert s.timing_mae_s == pytest.approx(0.020, abs=1e-12)

    def test_empty_predictions_all_missed(self):
        truth = make_truth()
        n = 1200
        truth_labels = self._labels(truth, n)
        # with no events both legs sit in the reconstruction default: stance
        pred_labels = phases_from_events([], n, self.RATE)
        score = score_detection([], pred_labels, truth, truth_labels, self.RATE)
        total_truth = len(truth)
        assert sum(s.missed for s in score.by_kind.values()) == total_truth
        assert score.total_spurious == 0
        expected_acc = np.mean(
            [
                np.mean(pred_labels[f] == truth_labels[f])
                for f in Foot
            ]
        )
        # all-stance agrees with truth roughly for the stance fraction
        assert score.phase_accuracy == pytest.approx(expected_acc, abs=0.02)

    def test_matched_plus_missed_equals_truth_count(self):
        rng = np.random.default_rng(44)
        truth = make_truth(n_strides=12)
        n = 1800
        for _ in range(25):
            kept = [ev for ev in truth if rng.random() > 0.2]
            jittered = [
                GaitEvent(ev.t + rng.uniform(-0.2, 0.2), ev.foot, ev.kind)
                for ev in kept
            ]
            jittered.sort(key=lambda e: e.t)
            score = score_detection(
                jittered,
                self._labels(jittered, n),
                truth,
                self._labels(truth, n),
                self.RATE,
            )
            for kind in score.by_kind:
                truth_count = sum(1 for ev in truth if ev.kind is kind)
                s = score.by_kind[kind]
                assert s.matched + s.missed == truth_count
            assert 0.0 <= score.phase_accuracy <= 1.0

    def test_mismatched_label_lengths_rejected(self):
        truth = make_truth()
        with pytest.raises(ValueError):
            score_detection(
                truth,
                phases_from_events(truth, 100, self.RATE),
                truth,
                phases_from_events(truth, 101, self.RATE),
                self.RATE,
            )


class TestPhasesFromEvents:
    def test_reconstruction_matches_hand_labels(self):
        events = [
            _hs(0.10, Foot.LEFT),
            _to(0.30, Foot.LEFT),
            _hs(0.20, Foot.RIGHT),
        ]
        labels = phases_from_events(events, 50, 100.0)
        left = labels[Foot.LEFT]
        # swing before the first heel strike, stance until toe-off, swing after
        assert np.all(left[:10] == 1)
        assert np.all(left[10:30] == 0)
        assert np.all(left[30:] == 1)
        right = labels[Foot.RIGHT]
        assert np.all(right[:20] == 1)
        assert np.all(right[20:] == 0)

    def test_footless_stream_keeps_initial_phase(self):
        labels = phases_from_events([_hs(0.1, Foot.LEFT)], 10, 100.0, initial=Phase.SWING)
        assert np.all(labels[Foot.RIGHT] == 1)
        assert np.all(phases_from_events([], 10, 100.0)[Foot.RIGHT] == 0)  # stance by default
