"""The fused causal envelope against its three-pass specification, and the
per-rate filter designs it shares with the zero-phase envelope.

`three_pass_envelope` is the control envelope written stage by stage, each
stage over the whole channel: band-pass, ECG high-pass, rectification,
smoothing, division by MVC, clipping, then every k-th sample. The fused
chain must equal it bit for bit.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitassist import signals
from gaitassist.errors import InvalidSpecError
from gaitassist.signals import (
    DEFAULT_FILTER_ORDER,
    ECG_HIGHPASS_HZ,
    EMG_BAND_HZ,
    ENVELOPE_LOWPASS_HZ,
    MIN_EMG_RATE_HZ,
    EmgChannel,
    FilterSpec,
    TimeSeries,
    _envelope_filters,
    causal_envelope,
    design_filter,
    emg_envelope,
    filter_causal,
)

STAGES = (
    ("band-pass", EMG_BAND_HZ),
    ("high-pass", (ECG_HIGHPASS_HZ,)),
    ("low-pass", (ENVELOPE_LOWPASS_HZ,)),
)


def three_pass_envelope(ch: EmgChannel, rate_hz: float) -> np.ndarray:
    """The causal envelope at `rate_hz`, one whole-channel stage at a time."""
    emg_rate = ch.raw.rate_hz
    k = int(round(emg_rate / rate_hz))
    assert k >= 1 and abs(emg_rate / rate_hz - k) <= 1e-9
    band, ecg, smooth = (
        design_filter(FilterSpec(kind, DEFAULT_FILTER_ORDER, cutoffs, emg_rate))
        for kind, cutoffs in STAGES
    )
    y = filter_causal(ecg, filter_causal(band, ch.raw))
    y = filter_causal(smooth, y.with_samples(np.abs(y.samples)))
    return np.clip(y.samples / ch.mvc_mv, 0.0, 1.0)[::k]


def assert_same_bytes(got: TimeSeries, want: np.ndarray, rate_hz: float) -> None:
    assert got.rate_hz == rate_hz
    assert got.samples.shape == want.shape
    assert got.samples.tobytes() == want.tobytes()


envelope_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "n": st.integers(min_value=0, max_value=3000),
        "emg_rate": st.floats(min_value=MIN_EMG_RATE_HZ, max_value=4000.0, exclude_min=True),
        "k": st.sampled_from([1, 2, 10, 20]),
        # from clipping nearly every sample at 1 to clipping none
        "mvc": st.sampled_from([1e-6, 1e-3, 0.05, 1.0, 50.0]),
        "zeros": st.booleans(),
    }
)


def channel(case: dict) -> EmgChannel:
    rng = np.random.default_rng(case["seed"])
    raw = np.zeros(case["n"]) if case["zeros"] else rng.standard_normal(case["n"])
    return EmgChannel(TimeSeries(raw, case["emg_rate"]), mvc_mv=case["mvc"])


class TestFusedChain:
    @settings(max_examples=150, deadline=None)
    @given(case=envelope_cases)
    def test_equals_three_pass_chain(self, case):
        ch = channel(case)
        rate = case["emg_rate"] / case["k"]
        assert_same_bytes(causal_envelope(ch, rate), three_pass_envelope(ch, rate), rate)

    @settings(max_examples=60, deadline=None)
    @given(case=envelope_cases, cut=st.floats(min_value=0.0, max_value=1.0))
    def test_truncated_emg_gives_a_prefix(self, case, cut):
        # the first j control ticks of a truncated EMG are the first j of the whole
        ch = channel(case)
        rate = case["emg_rate"] / case["k"]
        whole = causal_envelope(ch, rate).samples
        short = EmgChannel(ch.raw.with_samples(ch.raw.samples[: int(cut * case["n"])]), ch.mvc_mv)
        prefix = causal_envelope(short, rate).samples
        assert prefix.tobytes() == whole[: len(prefix)].tobytes()
        assert len(prefix) == -(-len(short.raw) // case["k"])

    def test_shorter_than_one_control_period_keeps_the_first_sample(self):
        ch = EmgChannel(TimeSeries(np.random.default_rng(5).standard_normal(7), 1000.0), 1e-3)
        env = causal_envelope(ch, 100.0)
        assert_same_bytes(env, three_pass_envelope(ch, 100.0), 100.0)
        assert len(env) == 1

    def test_factor_one_keeps_every_sample(self):
        ch = EmgChannel(TimeSeries(np.random.default_rng(6).standard_normal(4000), 1000.0), 0.3)
        assert_same_bytes(causal_envelope(ch, 1000.0), three_pass_envelope(ch, 1000.0), 1000.0)

    @pytest.mark.parametrize("k", [1, 2, 10, 20])
    @pytest.mark.parametrize("ticks", [1, 7, 100])
    def test_samples_past_the_last_kept_one_are_not_read(self, k, ticks):
        """A channel cut at the last tick's kept sample, (ticks - 1) * k + 1
        samples, keeps the whole channel's samples; one sample fewer loses
        the last tick."""
        raw = TimeSeries(np.random.default_rng(9).standard_normal(ticks * k), 1000.0)
        whole = causal_envelope(EmgChannel(raw, 1.0), 1000.0 / k).samples
        assert len(whole) == ticks
        cut = raw.with_samples(raw.samples[: (ticks - 1) * k + 1])
        kept = causal_envelope(EmgChannel(cut, 1.0), 1000.0 / k).samples
        assert kept.tobytes() == whole.tobytes()
        fewer = raw.with_samples(raw.samples[: (ticks - 1) * k])
        kept = causal_envelope(EmgChannel(fewer, 1.0), 1000.0 / k).samples
        assert kept.tobytes() == whole[: ticks - 1].tobytes()

    def test_a_non_integer_factor_is_refused(self):
        ch = EmgChannel(TimeSeries(np.zeros(100), 1000.0), 1.0)
        message = "^cannot decimate 1000.0 Hz to 300.0 Hz by an integer factor$"
        with pytest.raises(InvalidSpecError, match=message):
            causal_envelope(ch, 300.0)

    def test_raw_samples_are_not_changed(self):
        raw = np.random.default_rng(7).standard_normal(2000)
        kept = raw.copy()
        causal_envelope(EmgChannel(TimeSeries(raw, 1000.0), 1.0), 100.0)
        assert raw.tobytes() == kept.tobytes()


class TestDesignCache:
    @pytest.mark.parametrize("rate", [1000.0, 2000.0, 810.0])
    def test_cached_sections_equal_design_filter(self, rate):
        for cached, (kind, cutoffs) in zip(_envelope_filters(rate), STAGES):
            fresh = design_filter(FilterSpec(kind, DEFAULT_FILTER_ORDER, cutoffs, rate))
            assert cached.rate_hz == rate
            assert cached.sos.tobytes() == fresh.sos.tobytes()

    def test_cached_sections_refuse_writes(self):
        for coeffs in _envelope_filters(1000.0):
            with pytest.raises(ValueError):
                coeffs.sos[0, 0] = 0.0

    def test_a_second_envelope_at_the_same_rate_designs_nothing(self, monkeypatch):
        designed = []

        def counting(spec):
            designed.append(spec)
            return design_filter(spec)

        _envelope_filters.cache_clear()
        monkeypatch.setattr(signals, "design_filter", counting)
        ch = EmgChannel(TimeSeries(np.random.default_rng(8).standard_normal(3000), 1000.0), 1.0)
        first = causal_envelope(ch, 100.0)
        assert len(designed) == 3
        assert causal_envelope(ch, 100.0).samples.tobytes() == first.samples.tobytes()
        causal_envelope(ch, 1000.0)
        emg_envelope(ch)
        assert len(designed) == 3
        causal_envelope(EmgChannel(ch.raw.with_samples(ch.raw.samples), 1.0), 50.0)
        assert len(designed) == 3
        causal_envelope(EmgChannel(TimeSeries(ch.raw.samples, 2000.0), 1.0), 100.0)
        assert len(designed) == 6

    @pytest.mark.parametrize("rate", [MIN_EMG_RATE_HZ, MIN_EMG_RATE_HZ - 1.0])
    def test_refused_rate_is_not_cached(self, rate):
        _envelope_filters.cache_clear()
        ch = EmgChannel(TimeSeries(np.zeros(4000), rate), 1.0)
        envelopes = (
            lambda: causal_envelope(ch, rate),
            lambda: emg_envelope(ch),
            lambda: causal_envelope(ch, rate),
        )
        for envelope in envelopes:
            with pytest.raises(InvalidSpecError):
                envelope()
        assert _envelope_filters.cache_info().currsize == 0
