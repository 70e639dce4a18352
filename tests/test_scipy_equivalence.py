"""The package's own filter design, filtering, warp and integral against scipy.

`signals` and `simgait` reproduce the scipy routines they need in numpy and
call scipy's compiled SOS kernel directly, so that importing the package does
not import `scipy.signal`. These tests hold them to scipy's numbers bit for
bit (byte equality, so even the sign of a zero counts), check the fallback to
`scipy.signal` when the kernel cannot be used, and check that a whole CLI
session never imports the slow scipy modules.
"""
from __future__ import annotations

import importlib.machinery
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import signal
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicHermiteSpline

import gaitassist
from gaitassist import signals
from gaitassist.signals import (
    ECG_HIGHPASS_HZ,
    EMG_BAND_HZ,
    ENVELOPE_LOWPASS_HZ,
    CausalFilter,
    EmgChannel,
    FilterSpec,
    TimeSeries,
    causal_envelope,
    design_filter,
    emg_envelope,
    filter_causal,
    filter_zero_phase,
)
from gaitassist.simgait import EMG_SYNTH_BAND_HZ, HipVelocityWaveform, _pchip_slopes_periodic

RATES_HZ = [800.0, 1000.0, 1234.5, 2000.0, 4096.0]
SCIPY_BTYPE = {"low-pass": "lowpass", "high-pass": "highpass", "band-pass": "bandpass"}


def scipy_sos(spec: FilterSpec) -> np.ndarray:
    cutoffs = spec.cutoffs_hz
    wn = cutoffs[0] if len(cutoffs) == 1 else list(cutoffs)
    btype = SCIPY_BTYPE[spec.kind]
    return signal.butter(spec.order, wn, btype=btype, fs=spec.rate_hz, output="sos")


def specs_for(order: int, rate: float) -> list[FilterSpec]:
    """The package's constants that fit under `rate`, plus cutoffs spread
    from near 0 to near Nyquist."""
    nyquist = rate / 2
    cutoffs = [(ENVELOPE_LOWPASS_HZ,), (ECG_HIGHPASS_HZ,)]
    cutoffs += [(fraction * nyquist,) for fraction in (0.001, 0.3, 0.98)]
    bands = [EMG_SYNTH_BAND_HZ, (0.001 * nyquist, 0.98 * nyquist), (0.2 * nyquist, 0.25 * nyquist)]
    if EMG_BAND_HZ[1] < nyquist:
        bands.append(EMG_BAND_HZ)
    return [
        *(FilterSpec(kind, order, c, rate) for kind in ("low-pass", "high-pass") for c in cutoffs),
        *(FilterSpec("band-pass", order, band, rate) for band in bands),
    ]


@pytest.mark.parametrize("rate", RATES_HZ)
@pytest.mark.parametrize("order", range(1, 7))
def test_design_filter_equals_butter(order, rate):
    for spec in specs_for(order, rate):
        got = design_filter(spec).sos
        expected = scipy_sos(spec)
        assert got.shape == expected.shape, spec
        assert got.tobytes() == expected.tobytes(), spec


def test_design_filter_equals_butter_on_random_cutoffs():
    rng = np.random.default_rng(5)
    for _ in range(300):
        rate = rng.uniform(800.0, 4096.0)
        order = int(rng.integers(1, 7))
        lo, hi = np.sort(rng.uniform(0.0005, 0.4995, 2)) * rate
        for spec in (
            FilterSpec("low-pass", order, (lo,), rate),
            FilterSpec("high-pass", order, (hi,), rate),
            FilterSpec("band-pass", order, (lo, hi), rate),
        ):
            assert design_filter(spec).sos.tobytes() == scipy_sos(spec).tobytes(), spec


FILTER_SPECS = [
    FilterSpec(kind, order, cutoffs, 1000.0)
    for order in (1, 2, 4, 5)
    for kind, cutoffs in (
        ("low-pass", (ENVELOPE_LOWPASS_HZ,)),
        ("high-pass", (ECG_HIGHPASS_HZ,)),
        ("band-pass", EMG_BAND_HZ),
    )
]


def spec_id(spec: FilterSpec) -> str:
    return f"{spec.kind}-{spec.order}"


def noise(n: int, seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


@pytest.mark.parametrize("spec", FILTER_SPECS, ids=spec_id)
def test_filter_causal_equals_sosfilt(spec):
    coeffs = design_filter(spec)
    x = noise(5000)
    got = filter_causal(coeffs, TimeSeries(x, spec.rate_hz)).samples
    assert got.tobytes() == signal.sosfilt(coeffs.sos, x).tobytes()


@pytest.mark.parametrize("spec", FILTER_SPECS, ids=spec_id)
def test_filter_zero_phase_equals_sosfiltfilt(spec):
    coeffs = design_filter(spec)
    x = noise(5000) + 3.0  # an offset, so the padding and the step states matter
    got = filter_zero_phase(coeffs, TimeSeries(x, spec.rate_hz)).samples
    assert got.tobytes() == signal.sosfiltfilt(coeffs.sos, x).tobytes()


@pytest.mark.parametrize("n", [28, 29, 1000, 30_001])
@pytest.mark.parametrize("rate", RATES_HZ[1:])
@pytest.mark.parametrize("mvc", [1e-3, 0.4])
def test_emg_envelope_equals_its_sosfiltfilt_chain(rate, n, mvc):
    """The zero-phase envelope is its stages through sosfiltfilt one by one:
    band-pass, ECG high-pass, rectification, smoothing, division by MVC and
    clipping; from the shortest EMG the band-pass takes, 28 samples, up."""
    x = noise(n, seed=n) * 0.3 + 0.1
    band, ecg, smooth = (
        scipy_sos(FilterSpec(kind, 4, cutoffs, rate))
        for kind, cutoffs in (
            ("band-pass", EMG_BAND_HZ), ("high-pass", (ECG_HIGHPASS_HZ,)),
            ("low-pass", (ENVELOPE_LOWPASS_HZ,)),
        )
    )
    y = np.abs(signal.sosfiltfilt(ecg, signal.sosfiltfilt(band, x)))
    expected = np.clip(signal.sosfiltfilt(smooth, y) / mvc, 0.0, 1.0)
    got = emg_envelope(EmgChannel(TimeSeries(x, rate), mvc_mv=mvc)).samples
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("block", [1, 7, 997, 4000])
@pytest.mark.parametrize("spec", FILTER_SPECS[-3:], ids=spec_id)
def test_causal_filter_blocks_equal_one_shot_sosfilt(spec, block):
    coeffs = design_filter(spec)
    x = noise(4000, seed=block)
    stream = CausalFilter(coeffs)
    chunks = [stream.process(x[i : i + block]) for i in range(0, len(x), block)]
    assert np.concatenate(chunks).tobytes() == signal.sosfilt(coeffs.sos, x).tobytes()


def test_causal_filter_random_splits_equal_one_shot_sosfilt():
    coeffs = design_filter(FilterSpec("band-pass", 4, EMG_BAND_HZ, 1000.0))
    rng = np.random.default_rng(17)
    x = noise(3000, seed=17)
    expected = signal.sosfilt(coeffs.sos, x).tobytes()
    for _ in range(20):
        cuts = np.sort(rng.integers(0, len(x), size=int(rng.integers(1, 40))))
        stream = CausalFilter(coeffs)
        chunks = [stream.process(part) for part in np.split(x, cuts)]
        assert np.concatenate(chunks).tobytes() == expected


HERMITE_TARGETS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("sf", np.linspace(0.5, 0.8, 14)[1:-1].round(4).tolist())
def test_hermite_warp_equals_cubic_hermite_spline(sf):
    wave = HipVelocityWaveform(sf)
    knots = wave._knots
    slopes = _pchip_slopes_periodic(knots, HERMITE_TARGETS)
    spline = CubicHermiteSpline(knots, HERMITE_TARGETS, slopes)
    rng = np.random.default_rng(int(sf * 1e4))
    phi = np.concatenate((np.linspace(0.5, 1.5, 20001), rng.uniform(0.5, 1.5, 20000), knots))
    assert wave._warp(phi).tobytes() == spline(phi).tobytes()


@pytest.mark.parametrize("sf", [0.51, 0.6, 0.65, 0.79])
def test_cycle_integral_equals_cumulative_trapezoid(sf):
    wave = HipVelocityWaveform(sf)
    phi, detrended = wave.cycle_integral_table()
    integral = cumulative_trapezoid(wave.unit(phi), phi, initial=0.0)
    assert detrended.tobytes() == (integral - integral[-1] * phi).tobytes()


def test_package_loads_the_compiled_kernel():
    # the kernel loads on the first filter call
    smooth = design_filter(FilterSpec("low-pass", 2, (10.0,), 1000.0))
    filter_causal(smooth, TimeSeries(noise(16), 1000.0))
    assert signals._sosfilt is not signals._sosfilt_via_scipy


class _WrongKernel:
    """A loader whose `_sosfilt` leaves its input untouched."""

    def __init__(self, name, path):
        pass

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        module._sosfilt = lambda sos, x, zi: None


class _FailingLoader:
    def __init__(self, name, path):
        raise ImportError("cannot load")


@pytest.mark.parametrize(
    "breakage",
    [
        ("EXTENSION_SUFFIXES", [".missing"]),
        ("ExtensionFileLoader", _FailingLoader),
        ("ExtensionFileLoader", _WrongKernel),
    ],
    ids=["no-file", "load-error", "wrong-numbers"],
)
def test_fallback_to_scipy_signal_gives_identical_outputs(monkeypatch, capfd, breakage):
    band = design_filter(FilterSpec("band-pass", 4, EMG_BAND_HZ, 1000.0))
    smooth = design_filter(FilterSpec("low-pass", 3, (ENVELOPE_LOWPASS_HZ,), 1000.0))
    x = TimeSeries(noise(4000) + 1.0, 1000.0)
    emg = EmgChannel(x, mvc_mv=2.0)

    def outputs():
        stream = CausalFilter(band)
        blocks = [stream.process(part) for part in np.split(x.samples, [1, 8, 1500])]
        return [
            filter_causal(band, x).samples,
            filter_zero_phase(band, x).samples,
            filter_zero_phase(smooth, x).samples,
            np.concatenate(blocks),
            causal_envelope(emg, 100.0).samples,
            causal_envelope(emg, 1000.0).samples,
            emg_envelope(emg).samples,
        ]

    with_kernel = outputs()
    with monkeypatch.context() as patch:
        patch.setattr(importlib.machinery, *breakage)
        fallback = signals._load_sosfilt()
    assert fallback is signals._sosfilt_via_scipy
    monkeypatch.setattr(signals, "_sosfilt", fallback)
    for got, expected in zip(outputs(), with_kernel):
        assert got.tobytes() == expected.tobytes()
    captured = capfd.readouterr()
    assert captured.out == "" and captured.err == ""


SLOW_SCIPY_MODULES = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.integrate")


def test_cli_session_never_imports_slow_scipy_modules(tmp_path):
    # Importing any submodule through the import system imports its package
    # first, so checking the packages catches every path in. The kernel
    # registers itself as scipy.signal._sosfilt without importing the
    # package, which is why that one name is allowed.
    script = textwrap.dedent(
        f"""
        import sys
        from gaitassist import cli

        out = {str(tmp_path)!r}
        def ok(*argv):
            assert cli.main(list(argv)) == 0, argv

        ok("simulate", "--out", out + "/trial", "--duration", "2", "--cadence", "3",
           "--noise-sigma", "0.05")
        ok("run", "--trial", out + "/trial", "--out", out + "/fsr", "--mode", "foot-sensors")
        ok("run", "--trial", out + "/trial", "--out", out + "/vel", "--mode", "actuators-velocity")
        ok("analyze", out + "/trial", "--out", out + "/metrics.csv")
        loaded = [
            name for name in sys.modules
            if name.startswith({SLOW_SCIPY_MODULES!r}) and name != "scipy.signal._sosfilt"
        ]
        print(loaded)
        """
    )
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(gaitassist.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"


def test_importing_the_cli_loads_no_scipy_threads_pool_or_logging():
    """The kernel loads on the first filter call, and the trial tables'
    threads come from `threading`, which numpy loads anyway."""
    script = (
        "import sys\n"
        "import gaitassist.cli\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.partition('.')[0] in ('scipy', 'logging')\n"
        "             or name.startswith('concurrent.futures')))\n"
    )
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(gaitassist.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
