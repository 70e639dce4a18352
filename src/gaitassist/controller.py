"""Assistive torque control for load carrying.

Total assistance scales linearly with normalized forearm muscle activation,
then splits between the legs by gait state: both legs receive half during
double stance, the stance leg receives half and the swing leg none during
single stance, and both receive zero if neither leg is on the ground. An
optional ramp limiter bounds how fast each leg's command may change so
assistance turns on and off gradually.
"""
from __future__ import annotations

import numpy as np

from .gait import STATE_BY_CODE, GaitState
from .settings import UNLIMITED, ControllerConfig


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
    left, right = np.array([split[state] for state in STATE_BY_CODE]).T
    tau_left = left.take(state_codes) * tau_exo  # a third of the 2-D gather's time
    tau_right = right.take(state_codes) * tau_exo
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
