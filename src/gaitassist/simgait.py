"""Synthetic carrying-gait trials with exact ground truth.

The generator lays out an alternating-leg gait: each leg's cycle phase runs
from heel strike (phase 0) through toe off (phase = stance fraction) and back,
with the right leg half a cycle behind the left. Every channel is an analytic
function of that phase, so the truth labels, the truth event list, and the
waveform landmarks agree by construction:

* hip angular velocity peaks exactly at the leg's toe off, and the
  contralateral velocity crosses zero exactly at the leg's heel strike;
* insole loading is a heel bump followed by an overlapping forefoot bump
  inside stance and exactly zero in swing;
* foot positions hold still in stance and advance one stride length per
  cycle, so average forward speed equals the configured speed;
* forearm EMG is band-limited noise whose conditioned envelope sits at the
  configured fraction of MVC.

All randomness flows from one seeded generator, making output bit-identical
for equal (params, duration, rates).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, InvalidSpecError
from .gait import FEET, Events, Foot, check_event_stream
from .settings import MIN_SWING_TICKS, ChannelRates, GaitParams, format_value
from .signals import (
    EmgChannel,
    FilterSpec,
    TimeSeries,
    design_filter,
    envelope_decimation,
    filter_causal,
)

DEFAULT_MVC_MV = 1.0
KNEE_ROM_DEG = 60.0
EMG_SYNTH_BAND_HZ = (50.0, 350.0)
# mean of |x| for zero-mean Gaussian x is sigma * sqrt(2/pi); invert it so the
# smoothed rectified envelope lands on emg_level * mvc
_GAUSS_RECTIFIED_MEAN = math.sqrt(2.0 / math.pi)
# The largest trial `generate` makes, counted before it allocates anything:
# control ticks, raw EMG samples and truth events (2 * cadence_hz * duration_s).
MAX_TICKS = 10**6
MAX_EMG_SAMPLES = 10**7
MAX_TRUTH_EVENTS = 10**5
# Each leg's cycle phase at t = 0: the legs run half a cycle apart.
_PHASE_OFFSET = {Foot.LEFT: 0.0, Foot.RIGHT: 0.5}
# Each per-foot channel of a TrialLog and the shape of its rows
_LEG_TAILS = {"omega": (), "insole": (8,), "foot_xy": (2,), "hip_deg": (), "knee_deg": ()}
_GRID_TOLERANCE_S = 1e-6  # a time against k / rate; six decimals round by at most 5e-7


def _pchip_slopes_periodic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Monotone (Fritsch-Carlson) knot slopes on a periodic extension."""
    h = np.diff(x)
    s = np.diff(y) / h
    n = len(x)
    d = np.zeros(n)
    for i in range(n):
        i0 = (n - 2) if i == 0 else i - 1
        i1 = 0 if i == n - 1 else i
        s0, s1 = s[i0], s[i1]
        h0, h1 = h[i0], h[i1]
        if s0 * s1 <= 0:
            continue
        w1 = 2.0 * h1 + h0
        w2 = h1 + 2.0 * h0
        d[i] = (w1 + w2) / (w1 / s0 + w2 / s1)
    return d


class HipVelocityWaveform:
    """Unit-amplitude periodic hip angular velocity with exact landmarks.

    Over a leg's own cycle phase the waveform crosses zero upward at 0.5
    (mid-stance, which is the other leg's heel strike), reaches its unique
    maximum of 1.0 exactly at `stance_fraction` (this leg's toe off), crosses
    zero downward late in swing, and bottoms out at -0.6 early in the next
    stance. A monotone C1 phase warp pins the landmarks for any admissible
    stance fraction.
    """

    def __init__(self, stance_fraction: float):
        sf = float(stance_fraction)
        self.down_crossing_phi = sf + 0.65 * (1.0 - sf)
        trough = 0.5 * (self.down_crossing_phi + 1.5)
        knots = np.array([0.5, sf, self.down_crossing_phi, trough, 1.5])
        targets = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        slopes = _pchip_slopes_periodic(knots, targets)
        # cubic Hermite pieces in ascending powers of (phi - knot), with
        # scipy's CubicHermiteSpline coefficients
        h = np.diff(knots)
        secant = np.diff(targets) / h
        t = (slopes[:-1] + slopes[1:] - 2 * secant) / h
        self._knots = knots
        self._pieces = (targets[:-1], slopes[:-1], (secant - slopes[:-1]) / h - t, t / h)

    def _warp(self, phi: np.ndarray) -> np.ndarray:
        """Evaluate the pieces as scipy's PPoly does, term by term in
        ascending powers; intervals are closed on the left."""
        i = np.clip(np.searchsorted(self._knots, phi, side="right") - 1, 0, len(self._knots) - 2)
        s = phi - self._knots[i]
        c0, c1, c2, c3 = (c[i] for c in self._pieces)
        s2 = s * s
        return c0 + c1 * s + c2 * s2 + c3 * (s2 * s)

    def unit(self, phi: np.ndarray | float) -> np.ndarray:
        """Waveform value at cycle phase `phi` (any shape, wrapped mod 1)."""
        wrapped = 0.5 + np.mod(np.asarray(phi, dtype=float) - 0.5, 1.0)
        s = np.sin(2.0 * np.pi * self._warp(wrapped))
        return (0.8 + 0.2 * s) * s

    def cycle_integral_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (phi, detrended integral) table over one cycle, 4,096 points.

        The integral of the waveform minus its secular ramp; periodic, so it
        serves as the unit hip angle trajectory.
        """
        phi = np.linspace(0.0, 1.0, 4096)
        y = self.unit(phi)
        # cumulative trapezoid, as scipy's cumulative_trapezoid(initial=0)
        integral = np.concatenate(([0.0], np.cumsum(np.diff(phi) * (y[1:] + y[:-1]) / 2.0)))
        return phi, integral - integral[-1] * phi


@dataclass(eq=False)
class TrialTruth:
    """Ground truth at the control rate: per-leg phases and events."""

    phases: dict[Foot, np.ndarray]  # per-tick phase codes, as `gait` defines them
    events: Events


def _check_truth(truth: TrialTruth, n: int, rate_hz: float) -> None:
    """InvalidSpecError, in one line, unless `truth` fits a trial of `n` ticks
    at `rate_hz`: each foot's phases hold `n` ticks of 0 or 1, and its events
    alternate and lie in [0, n / rate_hz], give or take _GRID_TOLERANCE_S."""
    for foot in FEET:
        if foot not in truth.phases:
            raise InvalidSpecError(f"truth is missing the {foot.value} phases")
        if (phases := np.asarray(truth.phases[foot])).shape != (n,):
            raise InvalidSpecError(f"{foot.value} truth phases need shape ({n},), got {phases.shape}")
        if (bad := (phases != 0) & (phases != 1)).any():
            tick = int(np.argmax(bad))
            raise InvalidSpecError(
                f"{foot.value} truth phase {phases[tick]} at tick {tick} is not 0 or 1"
            )
    try:
        check_event_stream(truth.events)
    except ValueError as exc:
        raise InvalidSpecError(f"truth_events.csv: {exc}") from None
    t = truth.events.t
    outside = ~((t >= -_GRID_TOLERANCE_S) & (t <= n / rate_hz + _GRID_TOLERANCE_S))  # NaN too
    if outside.any():
        row = int(np.argmax(outside))
        raise InvalidSpecError(
            f"truth_events.csv: t_s {format_value(float(t[row]))} in data row {row + 1} is "
            f"outside the trial, 0 to duration_s {format_value(n / rate_hz)}"
        )


@dataclass(eq=False)
class TrialLog:
    """One trial's channels at the control rate plus raw EMG and truth, checked when built."""

    rates: ChannelRates
    omega: dict[Foot, np.ndarray]  # (n,) hip angular velocity, rad/s
    insole: dict[Foot, np.ndarray]  # (n, 8) newtons
    emg: EmgChannel
    foot_xy: dict[Foot, np.ndarray]  # (n, 2) meters
    hip_deg: dict[Foot, np.ndarray]  # (n,)
    knee_deg: dict[Foot, np.ndarray]  # (n,)
    truth: TrialTruth | None = None
    params: GaitParams | None = None

    def __post_init__(self) -> None:
        """Check the log once, when built or `dataclasses.replace`d; arrays or
        dicts changed in place later are not checked again. DataFormatError if
        a foot lacks a channel of `_LEG_TAILS`; InvalidSpecError, foot by foot,
        unless each holds one row of its shape per tick, finite, forces
        non-negative, then unless the raw EMG is `rates.emg_samples(n_ticks)`
        finite samples at `rates.emg_rate_hz`, the truth, if any, passes
        `_check_truth`, and there is a tick."""
        for name in _LEG_TAILS:
            for foot in Foot:
                if foot not in (getattr(self, name) or {}):
                    raise DataFormatError(f"trial log is missing the {foot.value} {name} channel")
        n = self.n_ticks
        for foot in Foot:
            for name, tail in _LEG_TAILS.items():
                got = np.shape(getattr(self, name)[foot])
                if got != (n, *tail):
                    raise InvalidSpecError(f"{foot.value} {name} needs shape {(n, *tail)}, got {got}")
            for name in _LEG_TAILS:
                values = getattr(self, name)[foot]
                if name == "insole" and not ((values >= 0.0) & (values < math.inf)).all():
                    raise InvalidSpecError(
                        f"{foot.value} insole forces must be finite and non-negative"
                    )
                if name != "insole" and not np.isfinite(values).all():  # one pass per insole
                    raise InvalidSpecError(f"{foot.value} {name} must be finite")
        raw = self.emg.raw
        if raw.rate_hz != self.rates.emg_rate_hz:
            rates = f"{raw.rate_hz:g} Hz, not at emg_rate_hz {self.rates.emg_rate_hz:g}"
            raise InvalidSpecError(f"emg channel is at {rates}")
        need = self.rates.emg_samples(n)
        if len(raw) != need or not np.isfinite(raw.samples).all():
            raise InvalidSpecError(f"emg channel needs {need} samples, all finite; got {len(raw)}")
        if self.truth is not None:
            _check_truth(self.truth, n, self.rates.control_rate_hz)
        if n < 1:
            raise InvalidSpecError(f"n_ticks must be positive, got {n}")

    @property
    def n_ticks(self) -> int:
        return len(self.omega[Foot.LEFT])

    @property
    def duration_s(self) -> float:
        return self.n_ticks / self.rates.control_rate_hz

    def times(self) -> np.ndarray:
        return np.arange(self.n_ticks) / self.rates.control_rate_hz


def _insole_clusters(phi: np.ndarray, params: GaitParams) -> tuple[np.ndarray, np.ndarray]:
    """(heel, forefoot) cluster loads over cycle phase; overlap keeps at least
    one cluster loaded throughout stance."""
    sf = params.stance_fraction
    heel_end = 0.6 * sf
    fore_start = 0.35 * sf
    heel = np.where(
        phi < heel_end, np.sin(np.pi * np.clip(phi / heel_end, 0.0, 1.0)), 0.0
    )
    in_fore = (phi >= fore_start) & (phi < sf)
    fore = np.where(
        in_fore,
        np.sin(np.pi * np.clip((phi - fore_start) / (sf - fore_start), 0.0, 1.0)),
        0.0,
    )
    return params.load_peak_n * heel, params.load_peak_n * fore


def _swing_progress(phi: np.ndarray, sf: float) -> np.ndarray:
    """0 during stance, smooth 0 -> 1 forward motion profile during swing."""
    u = np.clip((phi - sf) / (1.0 - sf), 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * u))


def _truth_events(params: GaitParams, t_last: float) -> Events:
    """Each leg's heel strikes (cycle phase 0) and toe offs (the stance
    fraction) in (0, t_last], ordered by time, then foot, then kind code."""
    c = params.cadence_hz
    cycle, foot, kind = np.indices((int(math.ceil(t_last * c)) + 2, len(FEET), 2))
    offset = np.array([_PHASE_OFFSET[f] for f in FEET])
    t = (cycle - offset[foot] + np.array([0.0, params.stance_fraction])[kind]) / c
    keep = (0.0 < t) & (t <= t_last)
    events = Events(t[keep], foot[keep].astype(np.int8), kind[keep].astype(np.int8))
    return events[np.lexsort((events.kind, events.foot, events.t))]


def _synth_emg(
    params: GaitParams, n: int, rate_hz: float, rng: np.random.Generator
) -> np.ndarray:
    noise = rng.standard_normal(n)
    band = design_filter(FilterSpec("band-pass", 4, EMG_SYNTH_BAND_HZ, rate_hz))
    shaped = filter_causal(band, TimeSeries(noise, rate_hz)).samples
    shaped /= shaped.std()
    shaped *= params.emg_level * DEFAULT_MVC_MV / _GAUSS_RECTIFIED_MEAN
    return shaped


@np.errstate(over="ignore", invalid="ignore")  # TrialLog refuses what overflows, in one line
def generate(
    params: GaitParams, duration_s: float, rates: ChannelRates = ChannelRates()
) -> TrialLog:
    """Generate one synthetic trial.

    Args:
        params: gait parameters; the random seed fully determines the noise.
        duration_s: trial length in seconds, at least five strides.
        rates: control and EMG sample rates; InvalidSpecError for an EMG
            rate the control envelope refuses (`signals.envelope_decimation`)
            or a cadence whose swing spans under MIN_SWING_TICKS ticks.

    Returns:
        A TrialLog whose truth labels, truth events, and analytic channel
        landmarks agree with each other by construction.
    """
    if not math.isfinite(duration_s):
        raise InvalidSpecError(f"duration {duration_s} s must be finite")
    if duration_s * params.cadence_hz < 5.0:
        raise InvalidSpecError(
            f"duration {duration_s} s is shorter than five strides at "
            f"{params.cadence_hz} strides/s"
        )
    ticks = duration_s * rates.control_rate_hz
    for count, limit, what, key in (
        (ticks, MAX_TICKS, "control ticks", "control_rate_hz"),
        (duration_s * rates.emg_rate_hz, MAX_EMG_SAMPLES, "EMG samples", "emg_rate_hz"),
        (2.0 * params.cadence_hz * duration_s, MAX_TRUTH_EVENTS, "truth events", "cadence_hz"),
    ):
        if not count <= limit:
            raise InvalidSpecError(
                f"duration_s {duration_s:g} and {key} make {count:.3g} {what}, more than {limit:,}"
            )
    envelope_decimation(rates.emg_rate_hz, rates.control_rate_hz)  # else no run could use the trial
    n = int(round(ticks))
    if n < 1:
        raise InvalidSpecError(
            f"duration {duration_s} s holds no control tick at {rates.control_rate_hz} Hz"
        )
    most = (1.0 - params.stance_fraction) * rates.control_rate_hz / MIN_SWING_TICKS
    if params.cadence_hz > most:
        raise InvalidSpecError(
            f"cadence_hz {params.cadence_hz:g} leaves a swing under {MIN_SWING_TICKS} control"
            f" ticks; at most (1 - stance_fraction) * control_rate_hz / {MIN_SWING_TICKS} = {most:g}"
        )
    n_emg = rates.emg_samples(n)
    t = np.arange(n) / rates.control_rate_hz
    rng = np.random.default_rng(params.seed)
    sf = params.stance_fraction
    wave = HipVelocityWaveform(sf)
    grid, unit_angle = wave.cycle_integral_table()
    hip_scale = math.degrees(params.omega_amp_rad_s / params.cadence_hz)
    stride = params.stride_length_m

    omega, insole, foot_xy, hip, knee, truth_phases = {}, {}, {}, {}, {}, {}
    for foot in Foot:
        offset = _PHASE_OFFSET[foot]
        cycle = params.cadence_hz * t + offset
        phi = np.mod(cycle, 1.0)
        omega[foot] = params.omega_amp_rad_s * wave.unit(phi)
        hip[foot] = hip_scale * np.interp(phi, grid, unit_angle)
        knee[foot] = _knee_angle(phi, sf)
        heel, fore = _insole_clusters(phi, params)
        insole[foot] = np.repeat(np.column_stack([fore, heel]) / 4.0, 4, axis=1)
        x = stride * (np.floor(cycle) + _swing_progress(phi, sf) - offset)
        foot_xy[foot] = np.column_stack([x, np.full(n, 0.09 if foot is Foot.LEFT else -0.09)])
        truth_phases[foot] = (phi >= sf).astype(np.int8)

    emg_raw = _synth_emg(params, n_emg, rates.emg_rate_hz, rng)

    if params.noise_sigma > 0:
        # each noise array is scaled and combined in its own buffer, so no
        # channel needs a second full-length temporary
        sig = params.noise_sigma

        def noise(shape, scale: float) -> np.ndarray:
            g = rng.standard_normal(shape)
            g *= scale
            return g

        for foot in Foot:
            omega[foot] += noise(n, sig * params.omega_amp_rad_s)
        for foot in Foot:
            # force noise scales with instantaneous load, so an unloaded
            # insole stays quiet instead of chattering across the contact
            # threshold
            gain = noise((n, 8), sig)
            gain += 1.0
            gain *= insole[foot]
            insole[foot] = np.clip(gain, 0.0, None, out=gain)
        emg_raw += noise(n_emg, sig * np.abs(emg_raw).mean())
        hip_amp = 0.5 * (unit_angle.max() - unit_angle.min()) * hip_scale
        for channel, scale in ((foot_xy, stride), (hip, hip_amp)):
            for foot in Foot:
                channel[foot] += noise(channel[foot].shape, sig * scale)
        for foot in Foot:
            knee[foot] += noise(n, sig * 0.5 * KNEE_ROM_DEG)

    truth = TrialTruth(
        phases=truth_phases, events=_truth_events(params, t_last=(n - 1) / rates.control_rate_hz)
    )

    return TrialLog(
        rates=rates,
        omega=omega,
        insole=insole,
        emg=EmgChannel(TimeSeries(emg_raw, rates.emg_rate_hz), mvc_mv=DEFAULT_MVC_MV),
        foot_xy=foot_xy,
        hip_deg=hip,
        knee_deg=knee,
        truth=truth,
        params=params,
    )


def _knee_angle(phi: np.ndarray, sf: float) -> np.ndarray:
    """Stance flexion bump plus a larger swing flexion bump, in degrees."""

    def bump(center: float, half_width: float, amp: float) -> np.ndarray:
        u = (phi - center) / half_width
        return np.where(np.abs(u) <= 1.0, amp * 0.5 * (1.0 + np.cos(np.pi * u)), 0.0)

    swing_center = sf + 0.45 * (1.0 - sf)
    return KNEE_ROM_DEG * (
        bump(0.25 * sf, 0.25 * sf, 0.25) + bump(swing_center, 0.5 * (1.0 - sf), 1.0)
    )
