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
from dataclasses import dataclass, fields

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicHermiteSpline

from .errors import DataFormatError, InvalidSpecError
from .gait import EventKind, Foot, GaitEvent, GaitState
from .signals import EmgChannel, FilterSpec, TimeSeries, design_filter, filter_causal

DEFAULT_MVC_MV = 1.0
KNEE_ROM_DEG = 60.0
EMG_SYNTH_BAND_HZ = (50.0, 350.0)
# mean of |x| for zero-mean Gaussian x is sigma * sqrt(2/pi); invert it so the
# smoothed rectified envelope lands on emg_level * mvc
_GAUSS_RECTIFIED_MEAN = math.sqrt(2.0 / math.pi)

STATE_BY_CODE = (
    GaitState.DOUBLE_STANCE,
    GaitState.LEFT_STANCE_RIGHT_SWING,
    GaitState.RIGHT_STANCE_LEFT_SWING,
    GaitState.DOUBLE_SWING,
)


def gait_state_codes(phases: dict[Foot, np.ndarray]) -> np.ndarray:
    """Index into STATE_BY_CODE per tick from per-leg phase codes (0 stance,
    1 swing); the left leg is the high bit."""
    return (2 * phases[Foot.LEFT] + phases[Foot.RIGHT]).astype(np.int8)


@dataclass(frozen=True)
class GaitParams:
    """Trial parameters; defaults follow typical loaded treadmill walking."""

    cadence_hz: float = 0.7
    stance_fraction: float = 0.6
    speed_m_s: float = 0.74
    omega_amp_rad_s: float = 2.0
    load_peak_n: float = 400.0
    emg_level: float = 0.5
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidSpecError(f"{f.name} must be finite, got {value}")
        if not self.cadence_hz > 0:
            raise InvalidSpecError("cadence_hz must be positive")
        if not 0.5 < self.stance_fraction < 0.8:
            raise InvalidSpecError("stance_fraction must lie in (0.5, 0.8)")
        if not self.speed_m_s >= 0:
            raise InvalidSpecError("speed_m_s must be non-negative")
        if not self.omega_amp_rad_s > 0:
            raise InvalidSpecError("omega_amp_rad_s must be positive")
        if not self.load_peak_n > 0:
            raise InvalidSpecError("load_peak_n must be positive")
        if not 0 < self.emg_level <= 1:
            raise InvalidSpecError("emg_level must lie in (0, 1]")
        if not self.noise_sigma >= 0:
            raise InvalidSpecError("noise_sigma must be non-negative")

    @property
    def stride_length_m(self) -> float:
        return self.speed_m_s / self.cadence_hz


@dataclass(frozen=True)
class ChannelRates:
    control_hz: float = 100.0
    emg_hz: float = 1000.0

    def __post_init__(self) -> None:
        if not 0 < self.control_hz < math.inf or not 0 < self.emg_hz < math.inf:
            raise InvalidSpecError("rates must be positive and finite")


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
        self.peak_phi = sf
        self.up_crossing_phi = 0.5
        self.down_crossing_phi = sf + 0.65 * (1.0 - sf)
        trough = 0.5 * (self.down_crossing_phi + 1.5)
        knots = np.array([0.5, sf, self.down_crossing_phi, trough, 1.5])
        targets = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        slopes = _pchip_slopes_periodic(knots, targets)
        self._warp = CubicHermiteSpline(knots, targets, slopes)

    def unit(self, phi: np.ndarray | float) -> np.ndarray:
        """Waveform value at cycle phase `phi` (any shape, wrapped mod 1)."""
        wrapped = 0.5 + np.mod(np.asarray(phi, dtype=float) - 0.5, 1.0)
        s = np.sin(2.0 * np.pi * self._warp(wrapped))
        return (0.8 + 0.2 * s) * s

    def cycle_integral_table(self, n: int = 4096) -> tuple[np.ndarray, np.ndarray]:
        """Dense (phi, detrended integral) table over one cycle.

        The integral of the waveform minus its secular ramp; periodic, so it
        serves as the unit hip angle trajectory.
        """
        phi = np.linspace(0.0, 1.0, n)
        integral = cumulative_trapezoid(self.unit(phi), phi, initial=0.0)
        return phi, integral - integral[-1] * phi


@dataclass(eq=False)
class TrialTruth:
    """Ground truth at the control rate: per-leg phases, two-leg state, events."""

    phases: dict[Foot, np.ndarray]  # int8; 0 = stance, 1 = swing
    events: list[GaitEvent]

    @property
    def state_codes(self) -> np.ndarray:
        """Two-leg state per sample, coded by index into STATE_BY_CODE."""
        return gait_state_codes(self.phases)


@dataclass(eq=False)
class TrialLog:
    """One trial's channels at the control rate plus raw EMG and truth."""

    rates: ChannelRates
    omega_left: TimeSeries
    omega_right: TimeSeries
    insole: dict[Foot, np.ndarray]  # (n, 8) newtons
    emg: EmgChannel
    foot_xy: dict[Foot, np.ndarray]  # (n, 2) meters
    hip_deg: dict[Foot, TimeSeries]
    knee_deg: dict[Foot, TimeSeries]
    truth: TrialTruth | None = None
    params: GaitParams | None = None

    @property
    def n_ticks(self) -> int:
        return len(self.omega_left)

    @property
    def duration_s(self) -> float:
        return self.n_ticks / self.rates.control_hz

    def times(self) -> np.ndarray:
        return self.omega_left.times()


def _leg_phase_offset(foot: Foot) -> float:
    return 0.0 if foot is Foot.LEFT else 0.5


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


def _truth_events(params: GaitParams, t_last: float) -> list[GaitEvent]:
    events: list[GaitEvent] = []
    c = params.cadence_hz
    sf = params.stance_fraction
    n_cycles = int(math.ceil(t_last * c)) + 2
    for foot in (Foot.LEFT, Foot.RIGHT):
        off = _leg_phase_offset(foot)
        for k in range(n_cycles):
            t_hs = (k - off) / c
            t_to = (k - off + sf) / c
            if 0.0 < t_hs <= t_last:
                events.append(GaitEvent(t_hs, foot, EventKind.HEEL_STRIKE))
            if 0.0 < t_to <= t_last:
                events.append(GaitEvent(t_to, foot, EventKind.TOE_OFF))
    events.sort(key=lambda ev: (ev.t, ev.foot.value, ev.kind.value))
    return events


def _synth_emg(
    params: GaitParams, n: int, rate_hz: float, rng: np.random.Generator
) -> np.ndarray:
    noise = rng.standard_normal(n)
    band = design_filter(FilterSpec("band-pass", 4, EMG_SYNTH_BAND_HZ, rate_hz))
    shaped = filter_causal(band, TimeSeries(noise, rate_hz)).samples
    shaped = shaped / shaped.std()
    target_sigma = params.emg_level * DEFAULT_MVC_MV / _GAUSS_RECTIFIED_MEAN
    return shaped * target_sigma


def generate(
    params: GaitParams, duration_s: float, rates: ChannelRates = ChannelRates()
) -> TrialLog:
    """Generate one synthetic trial.

    Args:
        params: gait parameters; the random seed fully determines the noise.
        duration_s: trial length in seconds, at least five strides.
        rates: control and EMG sample rates.

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
    n = int(round(duration_s * rates.control_hz))
    n_emg = int(round(duration_s * rates.emg_hz))
    t = np.arange(n) / rates.control_hz
    rng = np.random.default_rng(params.seed)
    sf = params.stance_fraction
    wave = HipVelocityWaveform(sf)

    phi = {
        foot: np.mod(params.cadence_hz * t + _leg_phase_offset(foot), 1.0)
        for foot in Foot
    }

    omega = {foot: params.omega_amp_rad_s * wave.unit(phi[foot]) for foot in Foot}

    grid, unit_angle = wave.cycle_integral_table()
    hip_scale = math.degrees(params.omega_amp_rad_s / params.cadence_hz)
    hip = {foot: hip_scale * np.interp(phi[foot], grid, unit_angle) for foot in Foot}

    knee = {foot: _knee_angle(phi[foot], sf) for foot in Foot}

    insole: dict[Foot, np.ndarray] = {}
    for foot in Foot:
        heel, fore = _insole_clusters(phi[foot], params)
        frame = np.zeros((n, 8))
        frame[:, 0:4] = fore[:, None] / 4.0
        frame[:, 4:8] = heel[:, None] / 4.0
        insole[foot] = frame

    stride = params.stride_length_m
    cycles = {
        foot: np.floor(params.cadence_hz * t + _leg_phase_offset(foot)) for foot in Foot
    }
    foot_xy: dict[Foot, np.ndarray] = {}
    for foot in Foot:
        x = stride * (
            cycles[foot] + _swing_progress(phi[foot], sf) - _leg_phase_offset(foot)
        )
        y = np.full(n, 0.09 if foot is Foot.LEFT else -0.09)
        foot_xy[foot] = np.column_stack([x, y])

    emg_raw = _synth_emg(params, n_emg, rates.emg_hz, rng)

    if params.noise_sigma > 0:
        sig = params.noise_sigma
        for foot in Foot:
            omega[foot] = omega[foot] + sig * params.omega_amp_rad_s * rng.standard_normal(n)
        for foot in Foot:
            # force noise scales with instantaneous load, so an unloaded
            # insole stays quiet instead of chattering across the contact
            # threshold
            insole[foot] = np.clip(
                insole[foot] * (1.0 + sig * rng.standard_normal((n, 8))), 0.0, None
            )
        emg_raw = emg_raw + sig * np.abs(emg_raw).mean() * rng.standard_normal(n_emg)
        for foot in Foot:
            foot_xy[foot] = foot_xy[foot] + sig * stride * rng.standard_normal((n, 2))
        hip_amp = 0.5 * (unit_angle.max() - unit_angle.min()) * hip_scale
        for foot in Foot:
            hip[foot] = hip[foot] + sig * hip_amp * rng.standard_normal(n)
        for foot in Foot:
            knee[foot] = knee[foot] + sig * 0.5 * KNEE_ROM_DEG * rng.standard_normal(n)

    truth_phases = {
        foot: (phi[foot] >= sf).astype(np.int8) for foot in Foot
    }
    truth = TrialTruth(
        phases=truth_phases, events=_truth_events(params, t_last=(n - 1) / rates.control_hz)
    )

    control = rates.control_hz
    return TrialLog(
        rates=rates,
        omega_left=TimeSeries(omega[Foot.LEFT], control),
        omega_right=TimeSeries(omega[Foot.RIGHT], control),
        insole=insole,
        emg=EmgChannel(TimeSeries(emg_raw, rates.emg_hz), mvc=DEFAULT_MVC_MV, label="forearm"),
        foot_xy=foot_xy,
        hip_deg={foot: TimeSeries(hip[foot], control) for foot in Foot},
        knee_deg={foot: TimeSeries(knee[foot], control) for foot in Foot},
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


def check_channels(log: TrialLog) -> None:
    """Raise DataFormatError unless `log` has both omega and both insole channels."""
    for name in ("omega_left", "omega_right"):
        if getattr(log, name, None) is None:
            raise DataFormatError(f"trial log is missing channel {name!r}")
    if log.insole is None or any(foot not in log.insole for foot in Foot):
        raise DataFormatError("trial log is missing insole channels")

