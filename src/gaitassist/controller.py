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

import numpy as np

from .errors import InvalidSpecError, check_ranges, ranged
from .gait import STATE_BY_CODE, GaitState

UNLIMITED = math.inf


@dataclass(frozen=True)
class ControllerConfig:
    """Gains for the torque controller; it runs at the trial's control rate.

    k_myo_nm: torque produced at full muscle activation, N*m.
    k_stance / k_swing: per-leg share of total torque; the swing share may
        never exceed the stance share.
    ramp_rate_nm_s: largest allowed change per second of each leg's command;
        UNLIMITED (the default) disables ramp limiting.
    """

    k_myo_nm: float = ranged(10.0, "[0, inf)")
    k_stance: float = ranged(0.5, "[0, inf)")
    k_swing: float = ranged(0.0, "[0, inf)")
    ramp_rate_nm_s: float = ranged(UNLIMITED, "(0, inf]")

    def __post_init__(self) -> None:
        check_ranges(self)
        if not self.k_swing <= self.k_stance:
            raise InvalidSpecError("k_swing must not exceed k_stance")


def command_torque(
    state_codes: np.ndarray, emg_norm: np.ndarray, cfg: ControllerConfig, rate_hz: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-tick (left, right, total) torque for a whole trial.

    Each leg gets its gain for the tick's gait state times the total. Only a
    finite ramp rate needs a sequential pass: each leg's command moves from
    0 N*m toward its target by at most ramp_rate / rate_hz per tick.

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
    split = {
        GaitState.DOUBLE_STANCE: (cfg.k_stance, cfg.k_stance),
        GaitState.LEFT_STANCE_RIGHT_SWING: (cfg.k_stance, cfg.k_swing),
        GaitState.RIGHT_STANCE_LEFT_SWING: (cfg.k_swing, cfg.k_stance),
        GaitState.DOUBLE_SWING: (0.0, 0.0),
    }
    gains = np.array([split[state] for state in STATE_BY_CODE])
    tau_left = gains[state_codes, 0] * tau_exo
    tau_right = gains[state_codes, 1] * tau_exo
    if cfg.ramp_rate_nm_s != UNLIMITED:
        step = cfg.ramp_rate_nm_s / rate_hz
        for tau in (tau_left, tau_right):
            ramped, previous = tau.tolist(), 0.0
            for i, target in enumerate(ramped):
                if target > previous + step:
                    target = previous + step
                elif target < previous - step:
                    target = previous - step
                ramped[i] = previous = target
            tau[:] = ramped
    return tau_left, tau_right, tau_exo
