"""Signal containers and the EMG conditioning chain.

Two filtering paths exist on purpose. The real-time control path uses causal
filtering and accepts group delay; offline metrics use zero-phase
forward-backward filtering, all through cascades of second-order sections.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InvalidSpecError, check_ranges

# Conditioning chain constants. Raw EMG is band-passed, cardiac artifact is
# suppressed with a high-pass, then the rectified signal is smoothed.
EMG_BAND_HZ = (10.0, 400.0)
ECG_HIGHPASS_HZ = 30.0
ENVELOPE_LOWPASS_HZ = 2.5
DEFAULT_FILTER_ORDER = 4
MIN_EMG_RATE_HZ = 800.0

_FILTER_KINDS = ("low-pass", "high-pass", "band-pass")


@dataclass(eq=False)
class TimeSeries:
    """Uniformly sampled signal: sample k sits at k / rate_hz."""

    samples: np.ndarray
    rate_hz: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise InvalidSpecError("TimeSeries samples must be one-dimensional")
        if not self.rate_hz > 0:
            raise InvalidSpecError(f"rate_hz must be positive, got {self.rate_hz}")

    def __len__(self) -> int:
        return len(self.samples)

    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) / self.rate_hz

    def with_samples(self, samples: np.ndarray) -> TimeSeries:
        return TimeSeries(samples, self.rate_hz)


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
        order = self.order
        if (
            isinstance(order, bool)
            or not isinstance(order, numbers.Real)
            or not 1 <= order < math.inf
            or order % 1
        ):
            raise InvalidSpecError(f"filter order must be a whole number >= 1, got {order!r}")
        object.__setattr__(self, "order", int(order))
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

    def __post_init__(self) -> None:
        # the compiled kernel takes normalized sections in a C-ordered float array
        sos = np.ascontiguousarray(self.sos, dtype=float)
        if sos.ndim != 2 or sos.shape[1] != 6 or np.any(sos[:, 3] != 1.0):
            raise InvalidSpecError("sos must have shape (sections, 6) with sos[:, 3] == 1")
        object.__setattr__(self, "sos", sos)


def _poly(roots: np.ndarray) -> np.ndarray:
    """Monic polynomial with `roots`, highest power first (scipy's `poly`)."""
    a = np.ones(1, dtype=roots.dtype)
    for r in roots:
        a = np.convolve(a, np.array([1.0, -r], dtype=roots.dtype))
    return a.real


def _conjugates_then_reals(p: np.ndarray) -> np.ndarray:
    """One pole of each conjugate pair (imag > 0), then the real poles, in
    scipy's `_cplxreal` order and tolerance."""
    p = p[np.lexsort((abs(p.imag), p.real))]
    real = abs(p.imag) <= 100 * np.finfo(float).eps * abs(p)
    if real.all():
        return p.real
    upper, lower = p[~real & (p.imag > 0)], p[~real & (p.imag < 0)]
    return np.concatenate(((upper + lower.conj()) / 2, p[real].real))


def _butter_zpk(spec: FilterSpec) -> tuple[np.ndarray, np.ndarray, np.float64]:
    """Digital zeros, poles and gain, computed as `scipy.signal.butter` does:
    analog prototype, frequency transform, bilinear transform at fs = 2."""
    n = spec.order
    p = -np.exp(1j * np.pi * np.arange(-n + 1, n, 2, dtype=float) / (2 * n))
    fs = 2.0
    wn = np.asarray(spec.cutoffs_hz, dtype=float) / (spec.rate_hz / 2)
    warped = 2 * fs * np.tan(np.pi * wn / fs)
    if spec.kind == "band-pass":
        bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
        p_lp = p * bw / 2
        root = np.sqrt(p_lp**2 - wo**2)
        z, p, k = np.zeros(n), np.concatenate((p_lp + root, p_lp - root)), bw**n
    elif spec.kind == "high-pass":
        wo = float(warped[0])
        z, p, k = np.zeros(n), wo / p, np.real(1.0 / np.prod(-p))
    else:
        wo = float(warped[0])
        z, p, k = np.zeros(0), wo * p, wo**n
    fs2 = 2.0 * fs
    z_z = np.concatenate(((fs2 + z) / (fs2 - z), -np.ones(len(p) - len(z))))
    k_z = k * np.real(np.prod(fs2 - z) / np.prod(fs2 - p))
    return z_z, (fs2 + p) / (fs2 - p), k_z


def _zpk2sos(z: np.ndarray, p: np.ndarray, k: np.float64) -> np.ndarray:
    """scipy's `zpk2sos` with "nearest" pairing, for the digital Butterworth
    case: every zero is real and real poles come in pairs."""
    if len(p) % 2:
        z, p = np.append(z, 0.0), np.append(p, 0.0)
    z, p = np.sort(z.real), _conjugates_then_reals(p)
    sos = np.zeros((len(z) // 2, 6))
    for si in range(len(sos) - 1, -1, -1):
        # the pole nearest the unit circle first, with the zeros nearest it
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):
            reals = np.flatnonzero(np.isreal(p))
            i = reals[np.argmin(np.abs(1 - np.abs(p[reals])))]
            p2, p = p[i], np.delete(p, i)
        else:
            p2 = p1.conj()
        zeros = []
        for _ in range(2):
            i = np.argmin(np.abs(z - p1))
            zeros.append(z[i])
            z = np.delete(z, i)
        sos[si] = np.concatenate((_poly(np.array(zeros)), _poly(np.array([p1, p2]))))
    sos[0, :3] *= k
    return sos


def design_filter(spec: FilterSpec) -> FilterCoefficients:
    """Design a Butterworth filter for `spec`.

    Returns second-order sections whose poles all lie strictly inside the
    unit circle. `spec.order` is the analog prototype order; a band-pass
    realizes twice that many poles. The sections equal
    `scipy.signal.butter(..., output="sos")` bit for bit.
    """
    return FilterCoefficients(sos=_zpk2sos(*_butter_zpk(spec)), rate_hz=spec.rate_hz)


def _sosfilt_via_scipy(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> None:
    """`scipy.signal.sosfilt` under the kernel's in-place contract."""
    from scipy.signal import sosfilt

    y, zf = sosfilt(sos, x, zi=zi.transpose(1, 0, 2))
    x[...] = y
    zi[...] = zf.transpose(1, 0, 2)


def _load_sosfilt():
    """scipy's compiled kernel `_sosfilt(sos, x, zi)`, loaded by file path.

    It filters each row of `x` (signals, samples) in place from the states
    `zi` (signals, sections, 2), which it leaves updated. Importing
    `scipy.signal` for it would cost about a second, most of it
    `scipy.stats`. The kernel is private, so it is checked once on a tiny
    input; if it cannot be loaded or gets that wrong, `scipy.signal.sosfilt`
    stands in with the same numbers and the slow import.
    """
    try:
        folder = Path(importlib.util.find_spec("scipy").origin).parent / "signal"
        suffixes = importlib.machinery.EXTENSION_SUFFIXES
        path = next(str(f) for f in (folder / f"_sosfilt{s}" for s in suffixes) if f.is_file())
        name = "_sosfilt"  # must end in _sosfilt: the init function is PyInit__sosfilt
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
        x, zi = np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 1, 2))
        module._sosfilt(np.array([[0.5, 0.5, 0.0, 1.0, -0.5, 0.0]]), x, zi)
        if x.tolist() == [[0.5, 0.75, 0.375]] and zi.tolist() == [[[0.1875, 0.0]]]:
            return module._sosfilt
    except (ImportError, OSError, AttributeError, StopIteration, TypeError, ValueError):
        pass  # no usable kernel: the public function below gives the same numbers
    return _sosfilt_via_scipy


def _sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> None:
    """Replaced by the kernel on the first filter call, so importing imports no scipy."""
    global _sosfilt
    _sosfilt = _load_sosfilt()
    _sosfilt(sos, x, zi)


def _filter_rows(sos: np.ndarray, y: np.ndarray, zi: np.ndarray) -> None:
    """`_sosfilt` in place; the kernel refuses the cache's read-only sections, so copy those."""
    _sosfilt(sos if sos.flags.writeable else sos.copy(), y, zi)


def _run_sections(sos: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Filter a copy of `samples` from zero section states. The copy holds
    the interpreter lock, which numpy's copy of a long array would release,
    so a thread that waits for the lock (`runner.run_trial`'s detector)
    starts only once the filter pass, which releases it, runs."""
    x = np.ascontiguousarray(samples, dtype=float)
    y = np.empty_like(x)
    memoryview(y)[:] = memoryview(x)
    _filter_rows(sos, y[None], np.zeros((1, len(sos), 2)))
    return y


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
    return x.with_samples(_run_sections(coeffs.sos, x.samples))


def _min_zero_phase_len(coeffs: FilterCoefficients) -> int:
    """Samples of odd extension at each end of a zero-phase pass: three
    times the taps, less the sections' trailing zero coefficients."""
    sos = coeffs.sos
    ntaps = 2 * sos.shape[0] + 1
    ntaps -= min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    return int(3 * ntaps)


def _step_states(sos: np.ndarray) -> np.ndarray:
    """Section states at rest under a unit step (scipy's `sosfilt_zi`)."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for i, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        companion = np.array([[-a[1], -a[2]], [1.0, 0.0]])  # a[0] == 1
        zi[i] = scale * np.linalg.solve(np.eye(2) - companion.T, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


def filter_zero_phase(coeffs: FilterCoefficients, x: TimeSeries) -> TimeSeries:
    """Forward-backward filtering: zero phase shift, squared magnitude response.

    Equal to `scipy.signal.sosfiltfilt` with its default odd padding: each
    pass starts from the step states scaled by its first sample.
    """
    _check_rate(coeffs, x)
    edge = _min_zero_phase_len(coeffs)
    if len(x) <= edge:
        raise InvalidSpecError(
            f"series of {len(x)} samples is too short for zero-phase filtering "
            f"(needs more than {edge})"
        )
    s, sos = x.samples, coeffs.sos
    y = np.concatenate((2 * s[:1] - s[edge:0:-1], s, 2 * s[-1:] - s[-2 : -(edge + 2) : -1]))
    zi = _step_states(sos)
    _filter_rows(sos, y[None], (zi * y[:1])[None])  # forward, in place
    y = y[::-1].copy()
    _filter_rows(sos, y[None], (zi * y[:1])[None])  # backward, over one reversed copy
    return x.with_samples(y[::-1][edge:-edge])


@dataclass(eq=False)
class EmgChannel:
    """Raw surface EMG (mV) plus its maximum-voluntary-contraction scale."""

    raw: TimeSeries
    mvc_mv: float = field(metadata={"range": "(0, inf)"})

    def __post_init__(self) -> None:
        check_ranges(self)


def _check_emg_rate(rate: float) -> None:
    if rate < MIN_EMG_RATE_HZ:
        raise InvalidSpecError(
            f"EMG rate {rate} Hz too low; the {EMG_BAND_HZ[1]} Hz band edge "
            f"needs at least {MIN_EMG_RATE_HZ} Hz"
        )


@lru_cache(maxsize=8)
def _envelope_filters(rate: float) -> tuple[FilterCoefficients, ...]:
    """The envelope's band-pass, ECG and smoothing filters at one EMG rate, designed
    once, then the band-pass and ECG sections stacked for the causal chain's one
    pass; all sections are read-only, so no caller can change the cached ones."""
    _check_emg_rate(rate)
    band, ecg, smooth = (
        design_filter(FilterSpec("band-pass", DEFAULT_FILTER_ORDER, EMG_BAND_HZ, rate)),
        design_filter(FilterSpec("high-pass", DEFAULT_FILTER_ORDER, (ECG_HIGHPASS_HZ,), rate)),
        design_filter(FilterSpec("low-pass", DEFAULT_FILTER_ORDER, (ENVELOPE_LOWPASS_HZ,), rate)),
    )
    filters = (band, ecg, smooth, FilterCoefficients(np.concatenate((band.sos, ecg.sos)), rate))
    for coeffs in filters:
        coeffs.sos.flags.writeable = False
    return filters


def envelope_decimation(rate: float, rate_hz: float) -> int:
    """The control envelope's step from EMG `rate` down to `rate_hz`:
    InvalidSpecError, with the envelope's own message, for an EMG rate below
    MIN_EMG_RATE_HZ or one that is not a whole multiple of `rate_hz`."""
    _check_emg_rate(rate)
    k = round(rate / rate_hz)
    if k < 1 or abs(rate / rate_hz - k) > 1e-9:
        raise InvalidSpecError(f"cannot decimate {rate} Hz to {rate_hz} Hz by an integer factor")
    return k


def causal_envelope(ch: EmgChannel, rate_hz: float) -> TimeSeries:
    """The control path's normalized envelope in [0, 1] at `rate_hz`, every k-th
    EMG sample of `emg_envelope`'s stages run causally: the band-pass and ECG
    sections in one pass, rectifying and smoothing in place, and only the kept
    samples scaled and clipped. Each stage acts sample by sample, so the bytes
    are those of the stages run one by one over the whole channel."""
    rate = ch.raw.rate_hz
    _, _, smooth, fused = _envelope_filters(rate)
    k = envelope_decimation(rate, rate_hz)
    y = _run_sections(fused.sos, ch.raw.samples)
    np.abs(y, out=y)
    _filter_rows(smooth.sos, y[None], np.zeros((1, len(smooth.sos), 2)))
    kept = y[::k] / ch.mvc_mv
    return TimeSeries(np.clip(kept, 0.0, 1.0, out=kept), rate_hz)


def emg_envelope(ch: EmgChannel) -> TimeSeries:
    """Normalized muscle activation envelope in [0, 1], zero phase (offline metrics
    path; the control path is `causal_envelope`).

    Pipeline: band-pass 10-400 Hz, 30 Hz high-pass, full-wave rectification,
    2.5 Hz low-pass, division by MVC, clipping to [0, 1], each filter run
    forward and backward. Crosstalk from the heart is narrow-band and
    low-frequency compared with the muscle signal, so the fixed high-pass
    removes it while passing the useful band nearly untouched.

    Args:
        ch: raw EMG channel, sampled at >= 800 Hz.
    """
    band, ecg, smooth, _ = _envelope_filters(ch.raw.rate_hz)
    y = filter_zero_phase(ecg, filter_zero_phase(band, ch.raw))
    np.abs(y.samples, out=y.samples)  # each filter's output is its own array
    y = filter_zero_phase(smooth, y)
    np.clip(np.divide(y.samples, ch.mvc_mv, out=y.samples), 0.0, 1.0, out=y.samples)
    return y
