"""Offline control loop: detect gait over a trial, then command torque.

Each detector runs over whole channels: one plain-float transition per leg
per tick, fed from numpy a bounded block at a time, with no object built
per tick. The torque of the whole trial then follows from the per-tick gait
states with numpy. Either detection framework can drive the controller:
insole force sensors or hip angular velocities.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .controller import UNLIMITED, ControllerConfig, _toward, distribute
from .errors import InvalidSpecError
from .gait import BLOCK_TICKS, Foot, GaitEvent, Phase
from .gait_fsr import FsrDetectorConfig, check_forces, detect_fsr
from .gait_vel import VelDetectorConfig, detect_vel
from .metrics import DetectionScore, phases_from_events, score_detection
from .signals import TimeSeries, decimate_to, emg_envelope
from .simgait import STATE_BY_CODE, TrialLog, check_channels, gait_state_codes

# perfbench/spans.py looks these four names up on this module and wraps them
# without calling them; that lookup is the only reason they are still bound.
replay = fsr_step = vel_step = controller_tick = None


class DetectionMode(Enum):
    FOOT_SENSORS = "foot-sensors"
    ACTUATORS_VELOCITY = "actuators-velocity"


@dataclass(eq=False)
class RunResult:
    """Everything one offline run produces, aligned on the control grid."""

    mode: DetectionMode
    t: np.ndarray
    tau_left: np.ndarray
    tau_right: np.ndarray
    tau_exo: np.ndarray
    emg_norm: TimeSeries
    events: list[GaitEvent]
    state_codes: np.ndarray  # causal two-leg state per tick
    causal_phases: dict[Foot, np.ndarray]
    event_phases: dict[Foot, np.ndarray]  # reconstructed from emitted events
    score: DetectionScore | None


def control_envelope(log: TrialLog) -> TimeSeries:
    """Causal EMG envelope decimated to the control rate."""
    env = emg_envelope(log.emg)
    return decimate_to(env, log.rates.control_hz)


def run_trial(
    log: TrialLog,
    mode: DetectionMode,
    controller_cfg: ControllerConfig | None = None,
    fsr_cfg: FsrDetectorConfig | None = None,
    vel_cfg: VelDetectorConfig | None = None,
) -> RunResult:
    """Run detection plus torque control over a whole trial.

    Args:
        log: input trial; needs insole channels in FOOT_SENSORS mode and
            angular velocity channels in ACTUATORS_VELOCITY mode.
        mode: which detection framework drives the gait state.
        controller_cfg, fsr_cfg, vel_cfg: overrides; defaults otherwise.

    Returns:
        RunResult with torque, events, causal labels, labels reconstructed
        from the (possibly backdated) event stream, and, when the trial has
        ground truth, a DetectionScore of the event-reconstructed labels.
    """
    controller_cfg = controller_cfg or ControllerConfig()
    fsr_cfg = fsr_cfg or FsrDetectorConfig()
    vel_cfg = vel_cfg or VelDetectorConfig()
    if controller_cfg.rate_hz != log.rates.control_hz:
        raise InvalidSpecError(
            f"controller rate {controller_cfg.rate_hz} Hz does not match trial "
            f"control rate {log.rates.control_hz} Hz"
        )

    check_channels(log)
    env = control_envelope(log)
    if len(env) < log.n_ticks:
        raise InvalidSpecError("EMG channel shorter than the trial")
    n = log.n_ticks
    emg_norm = env.samples[:n]
    t = log.times()
    if mode is DetectionMode.FOOT_SENSORS:
        events, causal = detect_fsr(log.insole, t, fsr_cfg)
        initial_phase = Phase.SWING
    else:
        for foot in Foot:
            check_forces(np.asarray(log.insole[foot], dtype=float))
        events, causal = detect_vel(log.omega_left.samples, log.omega_right.samples, t, vel_cfg)
        initial_phase = Phase.STANCE
    state_codes = gait_state_codes(causal)
    tau_left, tau_right, tau_exo = command_torque(state_codes, emg_norm, controller_cfg)

    event_phases = phases_from_events(
        events,
        n,
        log.rates.control_hz,
        initial={foot: initial_phase for foot in Foot},
    )

    score = None
    if log.truth is not None:
        score = score_detection(
            events,
            event_phases,
            log.truth.events,
            log.truth.phases,
            rate_hz=log.rates.control_hz,
        )

    return RunResult(
        mode=mode,
        t=t,
        tau_left=tau_left,
        tau_right=tau_right,
        tau_exo=tau_exo,
        emg_norm=TimeSeries(emg_norm.copy(), log.rates.control_hz),
        events=events,
        state_codes=state_codes,
        causal_phases=causal,
        event_phases=event_phases,
        score=score,
    )


def command_torque(
    state_codes: np.ndarray, emg_norm: np.ndarray, cfg: ControllerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-tick (left, right, total) torque for a whole trial.

    Each gait state's split comes from :func:`distribute`. Only a finite
    ramp rate needs a sequential pass: each leg's command moves from 0 N*m
    toward its target by at most ramp_rate / rate_hz per tick.

    Args:
        state_codes: per-tick gait state, as an index into STATE_BY_CODE.
        emg_norm: per-tick normalized activation; ValueError outside [0, 1].
        cfg: controller gains, ramp limit and rate.
    """
    outside = ~((emg_norm >= 0.0) & (emg_norm <= 1.0))
    if outside.any():
        raise ValueError(f"emg_norm must lie in [0, 1], got {emg_norm[outside.argmax()]}")
    tau_exo = cfg.k_myo_nm * emg_norm
    gains = np.array([distribute(state, 1.0, cfg) for state in STATE_BY_CODE])
    tau_left = gains[state_codes, 0] * tau_exo
    tau_right = gains[state_codes, 1] * tau_exo
    if cfg.ramp_rate_nm_s != UNLIMITED:
        max_step = cfg.ramp_rate_nm_s / cfg.rate_hz
        _ramp(tau_left, 0.0, max_step)
        _ramp(tau_right, 0.0, max_step)
    return tau_left, tau_right, tau_exo


def _ramp(tau: np.ndarray, previous: float, max_step: float) -> None:
    """Slew-limit one leg's torque in place, starting from `previous`."""
    for start in range(0, len(tau), BLOCK_TICKS):
        block = tau[start : start + BLOCK_TICKS].tolist()
        for i, target in enumerate(block):
            previous = block[i] = _toward(previous, target, max_step)
        tau[start : start + BLOCK_TICKS] = block
