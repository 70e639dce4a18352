"""The array-native `run_trial` against a plain tick-by-tick reference.

`run_trial` detects gait over whole channels and computes torque with numpy.
These properties pin it, bit for bit, to a loop that steps the detectors'
transition functions and the controller one tick at a time on random trials
and configurations, and check that it is causal: a run over the first k
ticks is the first k ticks of the full run.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitassist.controller import UNLIMITED, ControllerConfig, _toward, distribute
from gaitassist.gait import Foot, GaitEvent, Phase, gait_state_from_phases
from gaitassist.gait_fsr import FsrDetectorConfig, force_sums, fsr_transition
from gaitassist.gait_vel import VelDetectorConfig, vel_transition
from gaitassist.runner import DetectionMode, control_envelope, run_trial
from gaitassist.signals import EmgChannel, TimeSeries
from gaitassist.simgait import STATE_BY_CODE, GaitParams, TrialLog, generate

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
    """Step both legs' detectors and the controller over the trial, one tick
    at a time, in the order a real-time loop would: left leg, right leg,
    then the torque of the tick."""
    env = control_envelope(log).samples
    t = log.times()
    omega = {Foot.LEFT: log.omega_left.samples, Foot.RIGHT: log.omega_right.samples}
    if mode is DetectionMode.FOOT_SENSORS:
        legs = {foot: (Phase.SWING, -math.inf) for foot in Foot}
    else:
        stance = (Phase.STANCE, -math.inf, -math.inf, math.nan, 0, 0, math.nan)
        legs = {foot: stance for foot in Foot}
    max_step = controller_cfg.ramp_rate_nm_s / controller_cfg.rate_hz
    previous = (0.0, 0.0)
    events, codes, tau_left, tau_right, tau_exo = [], [], [], [], []
    for k in range(log.n_ticks):
        tk = float(t[k])
        for foot in (Foot.LEFT, Foot.RIGHT):
            if mode is DetectionMode.FOOT_SENSORS:
                front, back = force_sums(log.insole[foot][k])
                legs[foot], fired = fsr_transition(
                    legs[foot], tk, float(front), float(back), fsr_cfg
                )
            else:
                own, contra = float(omega[foot][k]), float(omega[foot.other()][k])
                legs[foot], fired = vel_transition(legs[foot], tk, own, contra, vel_cfg)
            if fired is not None:
                kind, t_event = fired
                events.append(GaitEvent(t_event, foot, kind))
        gait = gait_state_from_phases(legs[Foot.LEFT][0], legs[Foot.RIGHT][0])
        total = controller_cfg.k_myo_nm * float(env[k])
        target = distribute(gait, total, controller_cfg)
        if controller_cfg.ramp_rate_nm_s != UNLIMITED:
            target = tuple(_toward(p, g, max_step) for p, g in zip(previous, target))
        previous = target
        codes.append(STATE_BY_CODE.index(gait))
        tau_left.append(target[0])
        tau_right.append(target[1])
        tau_exo.append(total)
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
# Random draws rarely make both legs emit in one tick. This trial does, four
# times, so the left-before-right order within a tick is checked on every run.
@example(
    log=generate(GaitParams(seed=0, noise_sigma=0.4), DURATION_S),
    mode=DetectionMode.ACTUATORS_VELOCITY,
    controller_cfg=ControllerConfig(ramp_rate_nm_s=50.0),
    fsr_cfg=FsrDetectorConfig(),
    vel_cfg=VelDetectorConfig(min_event_gap_s=0.0, peak_confirm_samples=2),
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

