"""Hip-velocity gait phase detector tests with scripted crossing/peak oracles."""
from __future__ import annotations

import math

import numpy as np
import pytest

from gaitassist.errors import InvalidSpecError
from gaitassist.gait import EventKind, Foot, GaitEvent, GaitState, Phase, check_event_stream
from gaitassist.gait_vel import INITIAL_STATE, VelDetectorConfig, detect_vel, vel_transition
from gaitassist.simgait import STATE_BY_CODE, HipVelocityWaveform, gait_state_codes

DT = 0.01
HS = EventKind.HEEL_STRIKE
TO = EventKind.TOE_OFF


def swing_leg():
    return (Phase.SWING, *INITIAL_STATE[1:])


def stance_leg():
    return INITIAL_STATE


def drive_leg(leg, samples, cfg=None):
    """Feed (own, contra) pairs to one left leg; returns its state and its
    events tagged with their emission time."""
    cfg = cfg or VelDetectorConfig()
    emitted = []
    for k, (own, contra) in enumerate(samples):
        leg, fired = vel_transition(leg, k * DT, own, contra, cfg)
        if fired is not None:
            emitted.append((GaitEvent(fired[1], Foot.LEFT, fired[0]), k * DT))
    return leg, emitted


def gait_walk(n: int = 1000):
    """Both hips' angular velocity over n ticks of periodic walking."""
    wave = HipVelocityWaveform(stance_fraction=0.6)
    t = np.arange(n) * DT
    return 2.0 * wave.unit(0.7 * t), 2.0 * wave.unit(0.7 * t + 0.5), t


class TestHeelStrikeCrossing:
    def test_downward_cross_backdated_to_first_sample_past_zero(self):
        contra = [1.0, 0.5, 0.2, -0.01, -0.03, -0.2]
        leg, emitted = drive_leg(swing_leg(), [(0.0, c) for c in contra])
        (ev, emitted_at), = emitted
        assert ev.kind is HS
        # zero touched at t = 0.03; confirmation outside the band at t = 0.05
        assert ev.t == pytest.approx(0.03)
        assert emitted_at == pytest.approx(0.05)
        assert leg[0] is Phase.STANCE

    def test_upward_cross_mirrors_downward(self):
        contra = [-1.0, -0.3, 0.0, 0.03, 0.08]
        _, emitted = drive_leg(swing_leg(), [(0.0, c) for c in contra])
        (ev, emitted_at), = emitted
        assert ev.kind is HS
        assert ev.t == pytest.approx(0.02)
        assert emitted_at == pytest.approx(0.04)

    def test_cancelled_dip_then_cross_uses_current_sample(self):
        # a brief dip below zero retreats, so the later definitive crossing
        # cannot be backdated to it
        contra = [1.0, -0.01, 0.02, -0.2]
        _, emitted = drive_leg(swing_leg(), [(0.0, c) for c in contra])
        (ev, _), = emitted
        assert ev.t == pytest.approx(0.03)

    def test_wiggle_inside_band_never_fires(self):
        contra = [1.0] + [0.02, -0.02, 0.03, -0.04, 0.01] * 20
        _, emitted = drive_leg(swing_leg(), [(0.0, c) for c in contra])
        assert emitted == []

    def test_stance_leg_ignores_contralateral_crossings(self):
        contra = [1.0, 0.5, -0.2, -0.5, 0.3, 0.6, -0.4]
        _, emitted = drive_leg(stance_leg(), [(0.0, c) for c in contra])
        assert emitted == []


class TestToeOffPeak:
    def test_peak_backdated_with_exact_confirmation_lag(self):
        cfg = VelDetectorConfig()
        own = [0.0, 0.3, 0.8, 0.7, 0.6, 0.5]
        _, emitted = drive_leg(stance_leg(), [(o, 0.0) for o in own], cfg)
        (ev, emitted_at), = emitted
        assert ev.kind is TO
        assert ev.t == pytest.approx(0.02)
        assert emitted_at - ev.t == pytest.approx(cfg.peak_confirm_samples * DT)

    def test_new_maximum_restarts_the_decline_count(self):
        own = [0.6, 0.55, 0.7, 0.65, 0.6, 0.55]
        _, emitted = drive_leg(stance_leg(), [(o, 0.0) for o in own])
        (ev, emitted_at), = emitted
        assert ev.t == pytest.approx(0.02)
        assert emitted_at == pytest.approx(0.05)

    def test_small_peak_never_confirms(self):
        own = [0.0, 0.4, 0.3, 0.2, 0.1, 0.05, 0.0, 0.0]
        _, emitted = drive_leg(stance_leg(), [(o, 0.0) for o in own])
        assert emitted == []

    def test_peak_during_swing_is_discarded_not_deferred(self):
        # the leg peaks while swinging; once it strikes and re-enters stance
        # the old peak must not produce a late toe-off
        samples = []
        own = [0.0, 0.9, 0.8, 0.7, 0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        contra = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.2, -0.2, -0.2, -0.2, -0.2]
        samples = list(zip(own, contra))
        leg, emitted = drive_leg(swing_leg(), samples)
        kinds = [ev.kind for ev, _ in emitted]
        assert kinds == [HS]
        assert leg[0] is Phase.STANCE


class TestEventGap:
    def test_peaks_inside_gap_are_suppressed(self):
        cfg = VelDetectorConfig()
        n = 60
        own = [0.0] * n
        contra = [1.0] * n
        # heel strike: contra dips at 0.08, confirmed 0.09
        contra[8:] = [-0.01] + [-0.2] * (n - 9)
        # first peak at 0.13 confirms at 0.16 (inside the 0.3 s gap)
        own[12:17] = [0.3, 0.9, 0.8, 0.7, 0.6]
        # second small-but-valid peak at 0.17, confirm 0.20, still inside gap
        own[17:21] = [0.55, 0.5, 0.45, 0.4]
        # final peak at 0.40 confirms at 0.43, outside the gap
        own[39:44] = [0.3, 0.95, 0.9, 0.85, 0.8]
        _, emitted = drive_leg(swing_leg(), list(zip(own, contra)), cfg)
        assert [(ev.kind, ev.t) for ev, _ in emitted] == [
            (HS, pytest.approx(0.08)),
            (TO, pytest.approx(0.40)),
        ]

    def test_gap_measured_at_emission_not_event_time(self):
        # backdating may place the toe-off before last_event_t + gap as long
        # as the *emission* is outside the gap and the peak is fresh
        cfg = VelDetectorConfig(min_event_gap_s=0.04)
        own = [0.0, 0.0, 0.0, 0.0, 0.9, 0.8, 0.7, 0.6]
        contra = [1.0, -0.2, -0.2, -0.2, -0.2, -0.2, -0.2, -0.2]
        _, emitted = drive_leg(swing_leg(), list(zip(own, contra)), cfg)
        assert [(ev.kind, ev.t) for ev, _ in emitted] == [
            (HS, pytest.approx(0.01)),
            (TO, pytest.approx(0.04)),
        ]


class TestVelStep:
    def test_standing_still_emits_nothing(self):
        still = np.zeros(300)
        events, phases = detect_vel(still, still, np.arange(300) * DT, VelDetectorConfig())
        assert events == []
        codes = gait_state_codes(phases)
        assert all(STATE_BY_CODE[code] is GaitState.DOUBLE_STANCE for code in codes)

    def test_non_finite_velocity_rejected(self):
        t = np.arange(3) * DT
        for bad_left, bad_right in ((math.nan, 0.0), (0.0, math.inf)):
            left, right = np.zeros(3), np.zeros(3)
            left[1], right[1] = bad_left, bad_right
            with pytest.raises(ValueError):
                detect_vel(left, right, t, VelDetectorConfig())

    def test_deterministic_replay(self):
        wl, wr, t = gait_walk()
        first, first_phases = detect_vel(wl, wr, t, VelDetectorConfig())
        again, again_phases = detect_vel(wl.copy(), wr.copy(), t.copy(), VelDetectorConfig())
        assert first == again
        for foot in Foot:
            assert first_phases[foot].tobytes() == again_phases[foot].tobytes()

    def test_periodic_gait_produces_alternating_events(self):
        wl, wr, t = gait_walk()
        events, _ = detect_vel(wl, wr, t, VelDetectorConfig())
        check_event_stream(events)
        for foot in Foot:
            for kind in (HS, TO):
                count = sum(1 for ev in events if ev.foot is foot and ev.kind is kind)
                assert 6 <= count <= 8


class TestConfigValidation:
    def test_peak_confirm_needs_two_samples(self):
        with pytest.raises(InvalidSpecError):
            VelDetectorConfig(peak_confirm_samples=1)

    def test_positive_thresholds_required(self):
        with pytest.raises(InvalidSpecError):
            VelDetectorConfig(zero_hysteresis_rad_s=0.0)
        with pytest.raises(InvalidSpecError):
            VelDetectorConfig(peak_min_rad_s=-0.1)
        with pytest.raises(InvalidSpecError):
            VelDetectorConfig(min_event_gap_s=-0.1)
