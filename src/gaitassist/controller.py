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

from .errors import InvalidSpecError, check_ranges, ranged
from .gait import GaitState

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
    """One ramp-limited tick: `target`, or `previous` moved `max_step` toward it."""
    if target > previous + max_step:
        return previous + max_step
    if target < previous - max_step:
        return previous - max_step
    return target

