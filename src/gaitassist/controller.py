"""Assistive torque control for load carrying.

Total assistance scales linearly with normalized forearm muscle activation,
then splits between the legs by gait state: both legs receive half during
double stance, the stance leg receives half and the swing leg none during
single stance, and both receive zero if neither leg is on the ground. An
optional ramp limiter bounds how fast each leg's command may change so
assistance turns on and off gradually.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSpecError
from .gait import GaitState

UNLIMITED = math.inf


@dataclass(frozen=True)
class ControllerConfig:
    """Gains and rate for the torque controller.

    k_myo_nm: torque produced at full muscle activation, N*m.
    k_stance / k_swing: per-leg share of total torque; the swing share may
        never exceed the stance share.
    ramp_rate_nm_s: largest allowed change per second of each leg's command;
        UNLIMITED (the default) disables ramp limiting.
    rate_hz: control rate.
    """

    k_myo_nm: float = 10.0
    k_stance: float = 0.5
    k_swing: float = 0.0
    ramp_rate_nm_s: float = UNLIMITED
    rate_hz: float = 100.0

    def __post_init__(self) -> None:
        if not 0 <= self.k_myo_nm < math.inf:
            raise InvalidSpecError("k_myo_nm must be finite and non-negative")
        if not 0 <= self.k_swing <= self.k_stance:
            raise InvalidSpecError("require 0 <= k_swing <= k_stance")
        if not self.ramp_rate_nm_s > 0:
            raise InvalidSpecError("ramp_rate_nm_s must be positive or UNLIMITED")
        if not self.rate_hz > 0:
            raise InvalidSpecError("rate_hz must be positive")


@dataclass(frozen=True)
class TorqueCommand:
    """Per-leg assistive torque in N*m at one control tick."""

    t: float
    tau_left_nm: float
    tau_right_nm: float


@dataclass(frozen=True)
class AssistState:
    """Carry-over between ticks: the previous command and total torque."""

    last_command: TorqueCommand
    tau_exo_nm: float = 0.0

    @classmethod
    def initial(cls, t: float = 0.0) -> AssistState:
        return cls(last_command=TorqueCommand(t, 0.0, 0.0), tau_exo_nm=0.0)


def total_torque(emg_norm: float, cfg: ControllerConfig) -> float:
    """Total assistance: activation in [0, 1] times the myoelectric gain."""
    if not 0.0 <= emg_norm <= 1.0:
        raise ValueError(f"emg_norm must lie in [0, 1], got {emg_norm}")
    return cfg.k_myo_nm * emg_norm


def distribute(gait: GaitState, tau_exo_nm: float, cfg: ControllerConfig) -> tuple[float, float]:
    """Split total torque between (left, right) legs by gait state.

    Double stance shares equally at the stance gain; in single stance the
    swing leg gets the swing gain (zero by default); with both feet off the
    ground no torque is applied at all.
    """
    if not tau_exo_nm >= 0:
        raise ValueError(f"tau_exo_nm must be non-negative, got {tau_exo_nm}")
    ks, kw = cfg.k_stance, cfg.k_swing
    if gait is GaitState.DOUBLE_STANCE:
        return (ks * tau_exo_nm, ks * tau_exo_nm)
    if gait is GaitState.LEFT_STANCE_RIGHT_SWING:
        return (ks * tau_exo_nm, kw * tau_exo_nm)
    if gait is GaitState.RIGHT_STANCE_LEFT_SWING:
        return (kw * tau_exo_nm, ks * tau_exo_nm)
    return (0.0, 0.0)


def _toward(previous: float, target: float, max_step: float) -> float:
    if target > previous + max_step:
        return previous + max_step
    if target < previous - max_step:
        return previous - max_step
    return target


def slew_limit(state: AssistState, target: TorqueCommand, cfg: ControllerConfig) -> TorqueCommand:
    """Move each leg's command toward `target` by at most ramp_rate / rate_hz.

    With an unlimited ramp rate the target passes through unchanged.
    """
    if cfg.ramp_rate_nm_s == UNLIMITED:
        return target
    max_step = cfg.ramp_rate_nm_s / cfg.rate_hz
    prev = state.last_command
    return TorqueCommand(
        t=target.t,
        tau_left_nm=_toward(prev.tau_left_nm, target.tau_left_nm, max_step),
        tau_right_nm=_toward(prev.tau_right_nm, target.tau_right_nm, max_step),
    )


def controller_tick(
    t: float,
    gait: GaitState,
    emg_norm: float,
    state: AssistState,
    cfg: ControllerConfig,
) -> tuple[AssistState, TorqueCommand]:
    """One pure control step: scale, distribute, ramp-limit.

    Returns the updated state and the command for this tick; calling twice
    with equal inputs yields equal outputs.
    """
    tau_exo = total_torque(emg_norm, cfg)
    tau_left, tau_right = distribute(gait, tau_exo, cfg)
    command = slew_limit(state, TorqueCommand(t, tau_left, tau_right), cfg)
    return AssistState(last_command=command, tau_exo_nm=tau_exo), command
