"""Signal containers and the EMG conditioning chain.

Two filtering paths exist on purpose. The real-time control path uses causal
filtering and accepts group delay; offline metrics use zero-phase
forward-backward filtering. Filters are realized as cascades of second-order
sections and carry their own state, so two streams never share a filter.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as _signal

from .errors import InvalidSpecError

# Conditioning chain constants. Raw EMG is band-passed, cardiac artifact is
# suppressed with a high-pass, then the rectified signal is smoothed.
EMG_BAND_HZ = (10.0, 400.0)
ECG_HIGHPASS_HZ = 30.0
ENVELOPE_LOWPASS_HZ = 2.5
DEFAULT_FILTER_ORDER = 4
MIN_EMG_RATE_HZ = 800.0

_FILTER_KINDS = ("low-pass", "high-pass", "band-pass")
_SCIPY_BTYPE = {"low-pass": "lowpass", "high-pass": "highpass", "band-pass": "bandpass"}


@dataclass(eq=False)
class TimeSeries:
    """Uniformly sampled signal: sample k sits at t0 + k / rate_hz."""

    samples: np.ndarray
    rate_hz: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise InvalidSpecError("TimeSeries samples must be one-dimensional")
        if not self.rate_hz > 0:
            raise InvalidSpecError(f"rate_hz must be positive, got {self.rate_hz}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.rate_hz

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.samples)) / self.rate_hz

    def with_samples(self, samples: np.ndarray) -> TimeSeries:
        return TimeSeries(samples, self.rate_hz, self.t0)


@dataclass(frozen=True)
class FilterSpec:
    """Butterworth filter description; cutoffs must sit strictly below Nyquist."""

    kind: str
    order: int
    cutoffs_hz: tuple[float, ...]
    rate_hz: float

    def __post_init__(self) -> None:
        if self.kind not in _FILTER_KINDS:
            raise InvalidSpecError(f"unknown filter kind {self.kind!r}")
        if self.order < 1:
            raise InvalidSpecError(f"filter order must be >= 1, got {self.order}")
        object.__setattr__(self, "cutoffs_hz", tuple(float(c) for c in self.cutoffs_hz))
        expected = 2 if self.kind == "band-pass" else 1
        if len(self.cutoffs_hz) != expected:
            raise InvalidSpecError(
                f"{self.kind} needs {expected} cutoff(s), got {len(self.cutoffs_hz)}"
            )
        if not self.rate_hz > 0:
            raise InvalidSpecError("rate_hz must be positive")
        nyquist = self.rate_hz / 2.0
        for c in self.cutoffs_hz:
            if not 0.0 < c < nyquist:
                raise InvalidSpecError(
                    f"cutoff {c} Hz must lie strictly between 0 and Nyquist ({nyquist} Hz)"
                )
        if self.kind == "band-pass" and not self.cutoffs_hz[0] < self.cutoffs_hz[1]:
            raise InvalidSpecError("band-pass low cutoff must be below high cutoff")


@dataclass(frozen=True)
class FilterCoefficients:
    """Designed filter as second-order sections, tied to one sample rate."""

    sos: np.ndarray
    rate_hz: float

    @property
    def n_sections(self) -> int:
        return self.sos.shape[0]


def design_filter(spec: FilterSpec) -> FilterCoefficients:
    """Design a Butterworth filter for `spec`.

    Returns second-order sections whose poles all lie strictly inside the
    unit circle. `spec.order` is the analog prototype order; a band-pass
    realizes twice that many poles.
    """
    cutoffs = spec.cutoffs_hz[0] if len(spec.cutoffs_hz) == 1 else list(spec.cutoffs_hz)
    sos = _signal.butter(
        spec.order, cutoffs, btype=_SCIPY_BTYPE[spec.kind], fs=spec.rate_hz, output="sos"
    )
    return FilterCoefficients(sos=np.asarray(sos, dtype=float), rate_hz=spec.rate_hz)


class CausalFilter:
    """Stateful causal IIR filter; one instance per stream."""

    def __init__(self, coeffs: FilterCoefficients):
        self.coeffs = coeffs
        self._zi = np.zeros((coeffs.n_sections, 2))

    def process(self, block: np.ndarray) -> np.ndarray:
        """Filter a block of samples, carrying state across calls."""
        block = np.asarray(block, dtype=float)
        out, self._zi = _signal.sosfilt(self.coeffs.sos, block, zi=self._zi)
        return out


def _check_rate(coeffs: FilterCoefficients, x: TimeSeries) -> None:
    if coeffs.rate_hz != x.rate_hz:
        raise InvalidSpecError(
            f"filter designed for {coeffs.rate_hz} Hz applied to {x.rate_hz} Hz series"
        )


def filter_causal(coeffs: FilterCoefficients, x: TimeSeries) -> TimeSeries:
    """Apply `coeffs` causally from zero initial state.

    Output sample k depends only on input samples 0..k, so filtering a
    truncated series reproduces a prefix of the full output exactly.
    """
    _check_rate(coeffs, x)
    return x.with_samples(_signal.sosfilt(coeffs.sos, x.samples))


def _min_zero_phase_len(coeffs: FilterCoefficients) -> int:
    # scipy's default pad length for sosfiltfilt, reproduced so the length
    # precondition can be checked up front.
    sos = coeffs.sos
    ntaps = 2 * sos.shape[0] + 1
    ntaps -= min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    return int(3 * ntaps)


def filter_zero_phase(coeffs: FilterCoefficients, x: TimeSeries) -> TimeSeries:
    """Forward-backward filtering: zero phase shift, squared magnitude response."""
    _check_rate(coeffs, x)
    padlen = _min_zero_phase_len(coeffs)
    if len(x) <= padlen:
        raise InvalidSpecError(
            f"series of {len(x)} samples is too short for zero-phase filtering "
            f"(needs more than {padlen})"
        )
    return x.with_samples(_signal.sosfiltfilt(coeffs.sos, x.samples))


def rectify(x: TimeSeries) -> TimeSeries:
    """Full-wave rectification."""
    return x.with_samples(np.abs(x.samples))


def remove_ecg(x: TimeSeries, zero_phase: bool = False) -> TimeSeries:
    """Suppress cardiac contamination with a 30 Hz high-pass.

    Crosstalk from the heart is narrow-band and low-frequency compared with
    the muscle signal, so a fixed high-pass removes it while passing the
    useful band nearly untouched.
    """
    spec = FilterSpec("high-pass", DEFAULT_FILTER_ORDER, (ECG_HIGHPASS_HZ,), x.rate_hz)
    coeffs = design_filter(spec)
    return filter_zero_phase(coeffs, x) if zero_phase else filter_causal(coeffs, x)


@dataclass(eq=False)
class EmgChannel:
    """Raw surface EMG (mV) plus its maximum-voluntary-contraction scale."""

    raw: TimeSeries
    mvc: float
    label: str = "emg"

    def __post_init__(self) -> None:
        if not self.mvc > 0:
            raise InvalidSpecError(f"mvc must be positive, got {self.mvc}")


def emg_envelope(ch: EmgChannel, zero_phase: bool = False) -> TimeSeries:
    """Normalized muscle activation envelope in [0, 1].

    Pipeline: band-pass 10-400 Hz, cardiac-artifact high-pass, full-wave
    rectification, 2.5 Hz low-pass, division by MVC, clipping to [0, 1].

    Args:
        ch: raw EMG channel, sampled at >= 800 Hz.
        zero_phase: use forward-backward filtering (offline metrics path)
            instead of causal filtering (control path).
    """
    rate = ch.raw.rate_hz
    if rate < MIN_EMG_RATE_HZ:
        raise InvalidSpecError(
            f"EMG rate {rate} Hz too low; the {EMG_BAND_HZ[1]} Hz band edge "
            f"needs at least {MIN_EMG_RATE_HZ} Hz"
        )
    band = design_filter(FilterSpec("band-pass", DEFAULT_FILTER_ORDER, EMG_BAND_HZ, rate))
    smooth = design_filter(
        FilterSpec("low-pass", DEFAULT_FILTER_ORDER, (ENVELOPE_LOWPASS_HZ,), rate)
    )
    apply = filter_zero_phase if zero_phase else filter_causal
    y = apply(band, ch.raw)
    y = remove_ecg(y, zero_phase=zero_phase)
    y = rectify(y)
    y = apply(smooth, y)
    return y.with_samples(np.clip(y.samples / ch.mvc, 0.0, 1.0))


def decimate_to(x: TimeSeries, rate_hz: float) -> TimeSeries:
    """Take every k-th sample to reach `rate_hz`; assumes prior low-pass smoothing."""
    ratio = x.rate_hz / rate_hz
    k = int(round(ratio))
    if abs(ratio - k) > 1e-9 or k < 1:
        raise InvalidSpecError(
            f"cannot decimate {x.rate_hz} Hz to {rate_hz} Hz by an integer factor"
        )
    return TimeSeries(x.samples[::k].copy(), rate_hz, x.t0)
