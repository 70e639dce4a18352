"""Filter design and EMG conditioning tests.

Frequency-response checks use an FFT of the impulse response as the oracle;
the causal filter is checked against a pure-Python difference-equation
recursion so the oracle never shares code with the implementation.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitassist.errors import InvalidSpecError
from gaitassist.signals import (
    DEFAULT_FILTER_ORDER,
    ECG_HIGHPASS_HZ,
    EMG_BAND_HZ,
    ENVELOPE_LOWPASS_HZ,
    MIN_EMG_RATE_HZ,
    CausalFilter,
    EmgChannel,
    FilterCoefficients,
    FilterSpec,
    TimeSeries,
    _min_zero_phase_len,
    causal_envelope,
    design_filter,
    emg_envelope,
    filter_causal,
    filter_zero_phase,
)

GAUSS_RECTIFIED_MEAN = math.sqrt(2.0 / math.pi)


def impulse_response(coeffs: FilterCoefficients, n: int) -> np.ndarray:
    x = np.zeros(n)
    x[0] = 1.0
    return filter_causal(coeffs, TimeSeries(x, coeffs.rate_hz)).samples


def gain_db_at(h: np.ndarray, rate_hz: float, f_hz: float) -> float:
    """FFT-oracle gain: f_hz must land exactly on an FFT bin."""
    spectrum = np.fft.rfft(h)
    freqs = np.fft.rfftfreq(len(h), d=1.0 / rate_hz)
    bin_index = int(round(f_hz / (rate_hz / len(h))))
    assert math.isclose(freqs[bin_index], f_hz, rel_tol=0, abs_tol=1e-9)
    return 20.0 * math.log10(abs(spectrum[bin_index]))


def poles(coeffs: FilterCoefficients) -> np.ndarray:
    """Every section's poles: the roots of its denominator, sos[:, 3:]."""
    return np.concatenate([np.roots(denominator) for denominator in coeffs.sos[:, 3:]])


def slowest_time_constant(coeffs: FilterCoefficients) -> float:
    """Samples for the slowest pole's envelope to fall by 1/e."""
    magnitudes = np.abs(poles(coeffs))
    return float(-1.0 / np.log(magnitudes.max()))


class TestFrequencyResponse:
    def test_bandpass_edges_hit_minus_3db(self):
        rate = 2000.0
        coeffs = design_filter(FilterSpec("band-pass", 4, EMG_BAND_HZ, rate))
        h = impulse_response(coeffs, 32000)
        for edge in EMG_BAND_HZ:
            assert abs(gain_db_at(h, rate, edge) - (-3.0)) <= 0.5

    def test_lowpass_edge_hits_minus_3db(self):
        rate = 1000.0
        coeffs = design_filter(FilterSpec("low-pass", 4, (ENVELOPE_LOWPASS_HZ,), rate))
        h = impulse_response(coeffs, 32000)
        assert abs(gain_db_at(h, rate, ENVELOPE_LOWPASS_HZ) - (-3.0)) <= 0.5

    def test_highpass_edge_hits_minus_3db(self):
        rate = 1000.0
        coeffs = design_filter(FilterSpec("high-pass", 4, (ECG_HIGHPASS_HZ,), rate))
        h = impulse_response(coeffs, 32000)
        assert abs(gain_db_at(h, rate, ECG_HIGHPASS_HZ) - (-3.0)) <= 0.5

    def test_lowpass_dc_gain_is_unity(self):
        coeffs = design_filter(FilterSpec("low-pass", 4, (2.5,), 1000.0))
        h = impulse_response(coeffs, 32000)
        assert abs(h.sum() - 1.0) < 1e-6

    def test_dc_step_settles_to_unit_gain(self):
        coeffs = design_filter(FilterSpec("low-pass", 4, (2.5,), 1000.0))
        y = filter_causal(coeffs, TimeSeries(np.ones(6000), 1000.0)).samples
        assert abs(y[-1] - 1.0) < 1e-3


def direct_form_recursion(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Transposed direct-form II biquad cascade, written longhand."""
    y = np.array(x, dtype=float)
    for b0, b1, b2, _, a1, a2 in sos:
        z1 = 0.0
        z2 = 0.0
        out = np.empty_like(y)
        for n, xn in enumerate(y):
            yn = b0 * xn + z1
            z1 = b1 * xn - a1 * yn + z2
            z2 = b2 * xn - a2 * yn
            out[n] = yn
        y = out
    return y


class TestCausalFilter:
    def test_matches_direct_recursion_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(400)
        coeffs = design_filter(FilterSpec("band-pass", 4, (10.0, 400.0), 1000.0))
        expected = direct_form_recursion(coeffs.sos, x)
        got = filter_causal(coeffs, TimeSeries(x, 1000.0)).samples
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)

    def test_prefix_unaffected_by_future_samples(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(1000)
        coeffs = design_filter(FilterSpec("low-pass", 4, (40.0,), 1000.0))
        full = filter_causal(coeffs, TimeSeries(x, 1000.0)).samples
        half = filter_causal(coeffs, TimeSeries(x[:500], 1000.0)).samples
        assert np.array_equal(full[:500], half)

    def test_streaming_blocks_match_one_shot(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(900)
        coeffs = design_filter(FilterSpec("high-pass", 4, (30.0,), 1000.0))
        stream = CausalFilter(coeffs)
        chunks = [stream.process(block) for block in np.split(x, [100, 350, 800])]
        one_shot = filter_causal(coeffs, TimeSeries(x, 1000.0)).samples
        np.testing.assert_array_equal(np.concatenate(chunks), one_shot)

    def test_rate_mismatch_rejected(self):
        coeffs = design_filter(FilterSpec("low-pass", 4, (10.0,), 1000.0))
        with pytest.raises(InvalidSpecError):
            filter_causal(coeffs, TimeSeries(np.zeros(10), 500.0))


class TestStability:
    CASES = [
        FilterSpec("low-pass", 4, (2.5,), 1000.0),
        FilterSpec("band-pass", 4, (10.0, 400.0), 1000.0),
        FilterSpec("high-pass", 4, (30.0,), 1000.0),
        FilterSpec("band-pass", 4, (50.0, 350.0), 2000.0),
    ]

    @pytest.mark.parametrize("spec", CASES, ids=lambda s: f"{s.kind}-{s.rate_hz:g}")
    def test_poles_inside_unit_circle(self, spec):
        coeffs = design_filter(spec)
        assert np.all(np.abs(poles(coeffs)) < 1.0)

    @pytest.mark.parametrize("spec", CASES, ids=lambda s: f"{s.kind}-{s.rate_hz:g}")
    def test_impulse_response_decays_below_1e9(self, spec):
        coeffs = design_filter(spec)
        horizon = math.ceil(25.0 * slowest_time_constant(coeffs))
        h = impulse_response(coeffs, horizon + 500)
        assert np.max(np.abs(h[horizon:])) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["low-pass", "high-pass", "band-pass"]),
        order=st.integers(min_value=1, max_value=6),
        rate=st.floats(min_value=200.0, max_value=4000.0),
        lo_frac=st.floats(min_value=0.002, max_value=0.2),
        hi_frac=st.floats(min_value=0.25, max_value=0.45),
    )
    def test_any_valid_spec_is_stable(self, kind, order, rate, lo_frac, hi_frac):
        cutoffs = (lo_frac * rate, hi_frac * rate) if kind == "band-pass" else (lo_frac * rate,)
        coeffs = design_filter(FilterSpec(kind, order, cutoffs, rate))
        assert np.all(np.abs(poles(coeffs)) < 1.0)
        horizon = math.ceil(25.0 * slowest_time_constant(coeffs))
        h = impulse_response(coeffs, horizon + 100)
        assert np.max(np.abs(h[horizon:])) < 1e-9


class TestZeroPhase:
    def test_symmetric_pulse_stays_symmetric(self):
        t = np.arange(4001)
        pulse = np.exp(-0.5 * ((t - 2000) / 150.0) ** 2)
        coeffs = design_filter(FilterSpec("low-pass", 4, (30.0,), 1000.0))
        y = filter_zero_phase(coeffs, TimeSeries(pulse, 1000.0)).samples
        assert np.max(np.abs(y - y[::-1])) < 1e-9

    def test_too_short_series_rejected(self):
        coeffs = design_filter(FilterSpec("low-pass", 4, (30.0,), 1000.0))
        n_min = _min_zero_phase_len(coeffs) + 1
        filter_zero_phase(coeffs, TimeSeries(np.zeros(n_min), 1000.0))
        with pytest.raises(InvalidSpecError):
            filter_zero_phase(coeffs, TimeSeries(np.zeros(n_min - 1), 1000.0))

    def test_no_lag_versus_causal_delay(self):
        # A low-frequency sine keeps its phase through the zero-phase path.
        rate = 1000.0
        t = np.arange(8000) / rate
        x = TimeSeries(np.sin(2 * np.pi * 3.0 * t), rate)
        coeffs = design_filter(FilterSpec("low-pass", 4, (30.0,), rate))
        y = filter_zero_phase(coeffs, x).samples
        mid = slice(2000, 6000)
        assert np.max(np.abs(y[mid] - x.samples[mid])) < 1e-3


class TestSpecValidation:
    def test_cutoff_at_or_above_nyquist_rejected(self):
        with pytest.raises(InvalidSpecError):
            FilterSpec("low-pass", 4, (500.0,), 1000.0)
        with pytest.raises(InvalidSpecError):
            FilterSpec("low-pass", 4, (501.0,), 1000.0)

    def test_band_order_enforced(self):
        with pytest.raises(InvalidSpecError):
            FilterSpec("band-pass", 4, (400.0, 10.0), 1000.0)

    def test_cutoff_count_enforced(self):
        with pytest.raises(InvalidSpecError):
            FilterSpec("low-pass", 4, (10.0, 20.0), 1000.0)
        with pytest.raises(InvalidSpecError):
            FilterSpec("band-pass", 4, (10.0,), 1000.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidSpecError):
            FilterSpec("notch", 4, (50.0,), 1000.0)

    @pytest.mark.parametrize(
        "order", [2.5, True, False, 0, -1, 0.0, float("nan"), np.float64("inf"), "4"]
    )
    def test_order_must_be_a_whole_number_from_one(self, order):
        with pytest.raises(InvalidSpecError, match="filter order"):
            FilterSpec("low-pass", order, (10.0,), 1000.0)

    @pytest.mark.parametrize(
        "sos", [[[1.0, 0.0, 0.0, 2.0, 0.0, 0.0]], [1.0, 0.0, 0.0, 1.0, 0.0, 0.0], [[1.0, 0.0, 1.0]]]
    )
    def test_sections_must_be_normalized_rows_of_six(self, sos):
        with pytest.raises(InvalidSpecError, match="sos"):
            FilterCoefficients(np.array(sos), 1000.0)

    @pytest.mark.parametrize("order", [2.0, np.float64(2.0), np.int64(2)])
    def test_integral_order_is_normalised_to_int(self, order):
        spec = FilterSpec("low-pass", order, (10.0,), 1000.0)
        assert type(spec.order) is int and spec.order == 2
        expected = design_filter(FilterSpec("low-pass", 2, (10.0,), 1000.0)).sos
        assert design_filter(spec).sos.tobytes() == expected.tobytes()


class TestRectifyAndEcg:
    """The envelope's ECG high-pass and full-wave rectification stages."""

    @pytest.mark.parametrize("zero_phase", [False, True])
    def test_envelope_of_negated_emg_is_identical(self, zero_phase):
        # every filter is linear and negation is exact, so only rectification
        # can make the envelope blind to the sign of the raw signal
        raw = TimeSeries(np.random.default_rng(21).standard_normal(5_000), 1000.0)
        negated = raw.with_samples(-raw.samples)
        def envelope(ch):
            return emg_envelope(ch) if zero_phase else causal_envelope(ch, ch.raw.rate_hz)

        env = envelope(EmgChannel(raw, mvc_mv=1.0)).samples
        env_negated = envelope(EmgChannel(negated, mvc_mv=1.0)).samples
        assert env.max() > 0.1
        assert env_negated.tobytes() == env.tobytes()

    def test_ecg_band_removed_muscle_band_kept(self):
        rate = 1000.0
        t = np.arange(10_000) / rate
        cardiac = np.sin(2 * np.pi * 5.0 * t)
        muscle = np.sin(2 * np.pi * 80.0 * t)
        ecg = design_filter(FilterSpec("high-pass", DEFAULT_FILTER_ORDER, (ECG_HIGHPASS_HZ,), rate))
        y = filter_zero_phase(ecg, TimeSeries(cardiac + muscle, rate)).samples
        spectrum = np.abs(np.fft.rfft(y)) * 2.0 / len(y)
        df = rate / len(y)
        assert spectrum[int(round(5.0 / df))] < 0.05
        assert abs(spectrum[int(round(80.0 / df))] - 1.0) < 0.1


def band_limited_noise(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    spec = FilterSpec("band-pass", DEFAULT_FILTER_ORDER, (50.0, 350.0), rate)
    x = filter_causal(design_filter(spec), TimeSeries(rng.standard_normal(n), rate))
    return x.samples / x.samples.std()


class TestEnvelope:
    @pytest.mark.parametrize("level", [0.5, 1.0])
    def test_plateau_tracks_activation_level(self, level):
        # A Gaussian process whose rectified mean equals level * mvc should
        # produce an envelope plateau at `level`.
        rate, mvc = 1000.0, 0.8
        rng = np.random.default_rng(31)
        raw = band_limited_noise(rng, 30_000, rate) * level * mvc / GAUSS_RECTIFIED_MEAN
        env = emg_envelope(EmgChannel(TimeSeries(raw, rate), mvc))
        plateau = env.samples[10_000:20_000].mean()
        assert abs(plateau - level) <= 0.05

    def test_causal_and_zero_phase_share_plateau(self):
        rate, mvc = 1000.0, 1.0
        rng = np.random.default_rng(32)
        raw = band_limited_noise(rng, 40_000, rate) * 0.5 * mvc / GAUSS_RECTIFIED_MEAN
        ch = EmgChannel(TimeSeries(raw, rate), mvc)
        causal = causal_envelope(ch, rate).samples[20_000:35_000].mean()
        offline = emg_envelope(ch).samples[20_000:35_000].mean()
        assert abs(causal - offline) < 0.02

    def test_low_rate_rejected(self):
        x = TimeSeries(np.zeros(4000), MIN_EMG_RATE_HZ - 1.0)
        with pytest.raises(InvalidSpecError):
            causal_envelope(EmgChannel(x, 1.0), x.rate_hz)

    def test_rate_at_exact_band_nyquist_rejected(self):
        # 800 Hz passes the rate floor but puts the 400 Hz edge at Nyquist.
        x = TimeSeries(np.zeros(4000), MIN_EMG_RATE_HZ)
        with pytest.raises(InvalidSpecError):
            causal_envelope(EmgChannel(x, 1.0), x.rate_hz)

    def test_rate_just_above_band_nyquist_accepted(self):
        x = TimeSeries(np.zeros(4000), MIN_EMG_RATE_HZ + 10.0)
        env = causal_envelope(EmgChannel(x, 1.0), x.rate_hz)
        np.testing.assert_array_equal(env.samples, np.zeros(4000))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scale=st.floats(min_value=0.01, max_value=20.0),
    )
    def test_envelope_always_in_unit_interval(self, seed, scale):
        rng = np.random.default_rng(seed)
        raw = TimeSeries(scale * rng.standard_normal(3000), 1000.0)
        env = emg_envelope(EmgChannel(raw, mvc_mv=0.5))
        assert np.all(env.samples >= 0.0)
        assert np.all(env.samples <= 1.0)

    def test_mvc_must_be_positive(self):
        with pytest.raises(InvalidSpecError):
            EmgChannel(TimeSeries(np.zeros(10), 1000.0), mvc_mv=0.0)


class TestDecimate:
    """The causal envelope at a control rate keeps every k-th sample."""

    def test_integer_factor_takes_every_kth(self):
        raw = TimeSeries(np.random.default_rng(41).standard_normal(100), 1000.0)
        ch = EmgChannel(raw, mvc_mv=0.1)
        y = causal_envelope(ch, 100.0)
        full = causal_envelope(ch, 1000.0)
        assert 0.0 < full.samples.max() < 1.0  # no sample clipped
        np.testing.assert_array_equal(y.samples, full.samples[::10])
        assert len(y) == 10
        assert y.rate_hz == 100.0

    def test_non_integer_factor_rejected(self):
        with pytest.raises(InvalidSpecError, match="integer factor"):
            causal_envelope(EmgChannel(TimeSeries(np.zeros(100), 1000.0), 1.0), 300.0)


class TestTimeSeries:
    def test_times(self):
        x = TimeSeries(np.zeros(5), 10.0)
        np.testing.assert_allclose(x.times(), [0.0, 0.1, 0.2, 0.3, 0.4])

    def test_requires_one_dimension(self):
        with pytest.raises(InvalidSpecError):
            TimeSeries(np.zeros((3, 3)), 10.0)
