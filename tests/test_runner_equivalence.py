"""The array-native `run_trial` against the per-tick reference API.

`run_trial` detects gait over whole channels and computes torque with numpy.
These properties pin it to a tick-by-tick fold of the frozen per-tick API
(`replay`, `fsr_step`, `vel_step`, `controller_tick`) on random trials and
configurations, bit for bit, and check that it is causal: a run over the
first k ticks is the first k ticks of the full run.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitassist.controller import UNLIMITED, AssistState, ControllerConfig, controller_tick
from gaitassist.gait import Foot
from gaitassist.gait_fsr import FsrDetectorConfig, LegPhaseState, both_feet_phases, fsr_step
from gaitassist.gait_vel import VelDetectorConfig, VelDetectorState, vel_phases, vel_step
from gaitassist.runner import DetectionMode, control_envelope, run_trial
from gaitassist.signals import EmgChannel, TimeSeries
from gaitassist.simgait import STATE_BY_CODE, GaitParams, TrialLog, generate, replay

DURATION_S = 8.0

trials = st.builds(
    lambda seed, noise, stance: generate(
        GaitParams(seed=seed, noise_sigma=noise, stance_fraction=stance), DURATION_S
    ),
    seed=st.integers(0, 2**31 - 1),
    noise=st.sampled_from([0.0, 0.02, 0.05]) | st.floats(0.0, 0.4),
    stance=st.floats(0.52, 0.75),
)


@st.composite
def fsr_configs(draw):
    contact = draw(st.floats(2.0, 200.0))
    return FsrDetectorConfig(
        contact_threshold_n=contact,
        release_threshold_n=contact * draw(st.floats(0.05, 0.95)),
        min_phase_s=draw(st.floats(0.005, 0.5)),
    )


vel_configs = st.builds(
    VelDetectorConfig,
    zero_hysteresis_rad_s=st.floats(0.005, 0.6),
    peak_min_rad_s=st.floats(0.05, 2.5),
    peak_confirm_samples=st.integers(2, 8),
    min_event_gap_s=st.floats(0.0, 0.8),
)


@st.composite
def controller_configs(draw):
    k_stance = draw(st.floats(0.0, 1.0))
    return ControllerConfig(
        k_myo_nm=draw(st.floats(0.0, 40.0)),
        k_stance=k_stance,
        k_swing=k_stance * draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        ramp_rate_nm_s=draw(st.just(UNLIMITED) | st.floats(1.0, 500.0)),
    )


def reference_run(log, mode, controller_cfg, fsr_cfg, vel_cfg):
    """Fold the per-tick API over the trial, one tick at a time."""
    env = control_envelope(log).samples
    fsr = {foot: LegPhaseState(foot) for foot in Foot}
    vel = VelDetectorState.initial()
    assist = AssistState.initial()
    events, codes, tau_left, tau_right, tau_exo = [], [], [], [], []
    for tick in replay(log):
        if mode is DetectionMode.FOOT_SENSORS:
            for foot, frame in ((Foot.LEFT, tick.insole_left), (Foot.RIGHT, tick.insole_right)):
                fsr[foot], event = fsr_step(fsr[foot], fsr_cfg, frame)
                if event is not None:
                    events.append(event)
            gait = both_feet_phases(fsr[Foot.LEFT], fsr[Foot.RIGHT])
        else:
            vel, ticked = vel_step(vel, vel_cfg, tick.t, tick.omega_left, tick.omega_right)
            events.extend(ticked)
            gait = vel_phases(vel)
        assist, command = controller_tick(
            tick.t, gait, float(env[tick.index]), assist, controller_cfg
        )
        codes.append(STATE_BY_CODE.index(gait))
        tau_left.append(command.tau_left_nm)
        tau_right.append(command.tau_right_nm)
        tau_exo.append(assist.tau_exo_nm)
    return events, np.array(codes, dtype=np.int8), tau_left, tau_right, tau_exo


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    log=trials,
    mode=st.sampled_from(list(DetectionMode)),
    controller_cfg=controller_configs(),
    fsr_cfg=fsr_configs(),
    vel_cfg=vel_configs,
)
def test_run_trial_equals_per_tick_fold(log, mode, controller_cfg, fsr_cfg, vel_cfg):
    result = run_trial(log, mode, controller_cfg, fsr_cfg, vel_cfg)
    events, codes, tau_left, tau_right, tau_exo = reference_run(
        log, mode, controller_cfg, fsr_cfg, vel_cfg
    )
    assert result.events == events
    assert result.state_codes.dtype == np.int8
    np.testing.assert_array_equal(result.state_codes, codes)
    swing = np.int8(1)
    assert np.array_equal(result.causal_phases[Foot.LEFT], (codes >> 1) & swing)
    assert np.array_equal(result.causal_phases[Foot.RIGHT], codes & swing)
    assert bits(result.tau_left) == bits(tau_left)
    assert bits(result.tau_right) == bits(tau_right)
    assert bits(result.tau_exo) == bits(tau_exo)


def prefix(log: TrialLog, k: int) -> TrialLog:
    """The first k ticks of `log`, with EMG cut at the matching sample, no truth."""
    samples_per_tick = int(round(log.rates.emg_hz / log.rates.control_hz))
    control = log.rates.control_hz

    def cut(series: TimeSeries) -> TimeSeries:
        return TimeSeries(series.samples[:k], control)

    return TrialLog(
        rates=log.rates,
        omega_left=cut(log.omega_left),
        omega_right=cut(log.omega_right),
        insole={foot: log.insole[foot][:k] for foot in Foot},
        emg=EmgChannel(
            log.emg.raw.with_samples(log.emg.raw.samples[: k * samples_per_tick]),
            mvc=log.emg.mvc,
            label=log.emg.label,
        ),
        foot_xy={foot: log.foot_xy[foot][:k] for foot in Foot},
        hip_deg={foot: cut(log.hip_deg[foot]) for foot in Foot},
        knee_deg={foot: cut(log.knee_deg[foot]) for foot in Foot},
        params=log.params,
    )


@settings(max_examples=40, deadline=None)
@given(
    log=trials,
    mode=st.sampled_from(list(DetectionMode)),
    controller_cfg=controller_configs(),
    fraction=st.floats(0.0, 1.0),
)
def test_first_k_ticks_are_a_prefix_of_the_full_run(log, mode, controller_cfg, fraction):
    k = max(1, int(fraction * log.n_ticks))
    full = run_trial(log, mode, controller_cfg)
    part = run_trial(prefix(log, k), mode, controller_cfg)
    assert len(part.t) == k
    for name in ("t", "tau_left", "tau_right", "tau_exo", "state_codes"):
        assert getattr(part, name).tobytes() == getattr(full, name)[:k].tobytes(), name
    assert part.emg_norm.samples.tobytes() == full.emg_norm.samples[:k].tobytes()
    for foot in Foot:
        assert part.causal_phases[foot].tobytes() == full.causal_phases[foot][:k].tobytes()
    assert part.events == full.events[: len(part.events)]
    # every event the prefix emits lies in it; backdated toe offs lie before it
    assert all(event.t < k / log.rates.control_hz for event in part.events)

