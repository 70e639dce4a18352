"""Offline control loop: detect gait over a trial, then command torque.

Each detector runs over whole channels: one event-skipping kernel per leg
finds the candidate ticks with numpy and jumps from event to event, with no
Python call per tick. The torque of the whole trial then follows from the
per-tick gait states with numpy. Either detection framework can drive the
controller: insole force sensors or hip angular velocities.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import gait_fsr, gait_vel
from .controller import UNLIMITED, ControllerConfig, _toward, distribute
from .gait import BLOCK_TICKS, STATE_BY_CODE, Foot, GaitEvent, gait_state_codes
from .gait_fsr import FsrDetectorConfig
from .gait_vel import VelDetectorConfig
from .metrics import DetectionScore, phases_from_events, score_detection
from .signals import TimeSeries, causal_envelope
from .simgait import TrialLog, check_channels

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
    """Causal EMG envelope at the control rate."""
    return causal_envelope(log.emg, log.rates.control_rate_hz)


def run_trial(
    log: TrialLog,
    mode: DetectionMode,
    controller_cfg: ControllerConfig | None = None,
    fsr_cfg: FsrDetectorConfig | None = None,
    vel_cfg: VelDetectorConfig | None = None,
) -> RunResult:
    """Run detection plus torque control over a whole trial.

    Args:
        log: input trial; needs both feet's omega and insole channels in
            either mode, as `simgait.check_channels` checks them.
        mode: which detection framework drives the gait state.
        controller_cfg, fsr_cfg, vel_cfg: overrides; defaults otherwise.

    Returns:
        RunResult with torque, events, causal labels, labels reconstructed
        from the (possibly backdated) event stream, and, when the trial has
        ground truth, a DetectionScore of the event-reconstructed labels.
    """
    controller_cfg = controller_cfg or ControllerConfig()
    if mode is DetectionMode.FOOT_SENSORS:
        module, channels, cfg = gait_fsr, log.insole, fsr_cfg or FsrDetectorConfig()
    else:
        module, channels, cfg = gait_vel, log.omega, vel_cfg or VelDetectorConfig()

    check_channels(log)
    n = log.n_ticks
    emg_norm = control_envelope(log).samples[:n]
    t = log.times()
    events, causal = module.detect(channels, t, cfg)
    state_codes = gait_state_codes(causal)
    tau_left, tau_right, tau_exo = command_torque(
        state_codes, emg_norm, controller_cfg, log.rates.control_rate_hz
    )

    event_phases = phases_from_events(events, n, log.rates.control_rate_hz, module.INITIAL_STATE[0])

    score = None
    if log.truth is not None:
        score = score_detection(
            events,
            event_phases,
            log.truth.events,
            log.truth.phases,
            rate_hz=log.rates.control_rate_hz,
        )

    return RunResult(
        mode=mode,
        t=t,
        tau_left=tau_left,
        tau_right=tau_right,
        tau_exo=tau_exo,
        emg_norm=TimeSeries(emg_norm.copy(), log.rates.control_rate_hz),
        events=events,
        state_codes=state_codes,
        causal_phases=causal,
        event_phases=event_phases,
        score=score,
    )


def command_torque(
    state_codes: np.ndarray, emg_norm: np.ndarray, cfg: ControllerConfig, rate_hz: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-tick (left, right, total) torque for a whole trial.

    Each gait state's split comes from :func:`distribute`. Only a finite
    ramp rate needs a sequential pass: each leg's command moves from 0 N*m
    toward its target by at most ramp_rate / rate_hz per tick.

    Args:
        state_codes: per-tick gait state, as an index into STATE_BY_CODE.
        emg_norm: per-tick normalized activation; ValueError outside [0, 1].
        cfg: controller gains and ramp limit.
        rate_hz: the trial's control rate.
    """
    outside = ~((emg_norm >= 0.0) & (emg_norm <= 1.0))
    if outside.any():
        raise ValueError(f"emg_norm must lie in [0, 1], got {emg_norm[outside.argmax()]}")
    tau_exo = cfg.k_myo_nm * emg_norm
    gains = np.array([distribute(state, 1.0, cfg) for state in STATE_BY_CODE])
    tau_left = gains[state_codes, 0] * tau_exo
    tau_right = gains[state_codes, 1] * tau_exo
    if cfg.ramp_rate_nm_s != UNLIMITED:
        max_step = cfg.ramp_rate_nm_s / rate_hz
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
