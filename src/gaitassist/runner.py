"""Offline control loop: detect gait over a trial, then command torque.

Each detector runs over whole channels: one event-skipping kernel per leg
finds the candidate ticks with numpy and jumps from event to event, with no
Python call per tick. A TrialLog is checked when built, so a run checks
nothing first: the causal EMG envelope, the longest job, runs beside the gait
job (time grid, detection, scoring), on a second thread given a second CPU.
`controller.command_torque` then gives the torque of the whole trial from
the per-tick gait states. Either detection framework can drive the
controller: insole force sensors or hip angular velocities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gait_fsr, gait_vel
from .controller import command_torque
from .gait import Events, Foot, gait_state_codes
from .metrics import DetectionScore, phases_from_events, score_detection
from .settings import ControllerConfig, DetectionMode, FsrDetectorConfig, VelDetectorConfig
from .signals import TimeSeries, causal_envelope
from .simgait import TrialLog
from .trial_io import _run_jobs  # one job runner and worker count (_THREADS) for trial I/O and runs

# perfbench/spans.py looks these four names up on this module and wraps them
# without calling them; that lookup is the only reason they are still bound.
replay = fsr_step = vel_step = controller_tick = None


@dataclass(eq=False)
class RunResult:
    """Everything one offline run produces, aligned on the control grid."""

    mode: DetectionMode
    t: np.ndarray
    tau_left: np.ndarray
    tau_right: np.ndarray
    tau_exo: np.ndarray
    emg_norm: TimeSeries
    events: Events
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
        log: input trial, checked when built (`simgait.TrialLog`); the
            envelope job raises InvalidSpecError for an EMG rate that the
            control envelope refuses (`signals.envelope_decimation`).
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

    n, rate_hz = log.n_ticks, log.rates.control_rate_hz

    def gait_layers():
        t = log.times()
        events, causal = module.detect(channels, t, cfg)
        event_phases = phases_from_events(events, n, rate_hz, module.INITIAL_STATE[0])
        score = None
        if (truth := log.truth) is not None:
            score = score_detection(events, event_phases, truth.events, truth.phases, rate_hz=rate_hz)
        return t, events, causal, event_phases, score

    # The envelope goes first: its thread keeps the interpreter lock (the EMG
    # copy in signals._run_sections does not release it) until its first
    # compiled filter pass, so the detector's Python, on the other thread,
    # runs while that pass runs.
    envelope, (t, events, causal, event_phases, score) = _run_jobs(
        [lambda: control_envelope(log), gait_layers]
    )
    emg_norm = envelope.samples[:n]
    state_codes = gait_state_codes(causal)
    tau_left, tau_right, tau_exo = command_torque(state_codes, emg_norm, controller_cfg, rate_hz)

    return RunResult(
        mode=mode,
        t=t,
        tau_left=tau_left,
        tau_right=tau_right,
        tau_exo=tau_exo,
        emg_norm=TimeSeries(emg_norm.copy(), rate_hz),
        events=events,
        state_codes=state_codes,
        causal_phases=causal,
        event_phases=event_phases,
        score=score,
    )
