"""Synthetic gait generator tests: landmark exactness, truth consistency, determinism."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gaitassist.errors import DataFormatError, InvalidSpecError
from gaitassist.gait import EventKind, Foot, check_event_stream, gait_state_codes
from gaitassist.metrics import stride_length
from gaitassist.settings import MIN_SWING_TICKS
from gaitassist.simgait import (
    KNEE_ROM_DEG,
    GaitParams,
    ChannelRates,
    HipVelocityWaveform,
    TrialLog,
    generate,
)

STANCE_FRACTIONS = [0.55, 0.6, 0.7, 0.75]


class TestWaveformLandmarks:
    GRID = np.linspace(0.0, 1.0, 20001)

    @pytest.mark.parametrize("sf", STANCE_FRACTIONS)
    def test_unique_peak_exactly_at_toe_off_phase(self, sf):
        wave = HipVelocityWaveform(sf)
        assert wave.unit(sf) == pytest.approx(1.0, abs=1e-12)
        values = wave.unit(self.GRID)
        assert values.max() <= 1.0 + 1e-12
        peak_phi = self.GRID[np.argmax(values)]
        assert abs(peak_phi - sf) < 1e-4
        # the maximum is unique: nothing else comes close
        away = np.abs(self.GRID - sf) > 0.02
        assert values[away].max() < 1.0 - 1e-4

    @pytest.mark.parametrize("sf", STANCE_FRACTIONS)
    def test_upward_zero_crossing_at_half_cycle(self, sf):
        wave = HipVelocityWaveform(sf)
        assert wave.unit(0.5) == pytest.approx(0.0, abs=1e-12)
        eps = 1e-5
        assert wave.unit(0.5 - eps) < 0 < wave.unit(0.5 + eps)

    @pytest.mark.parametrize("sf", STANCE_FRACTIONS)
    def test_downward_crossing_late_in_swing(self, sf):
        wave = HipVelocityWaveform(sf)
        z = wave.down_crossing_phi
        assert sf < z < 1.0
        assert wave.unit(z) == pytest.approx(0.0, abs=1e-12)
        eps = 1e-5
        assert wave.unit(z - eps) > 0 > wave.unit(z + eps)

    @pytest.mark.parametrize("sf", STANCE_FRACTIONS)
    def test_trough_depth(self, sf):
        wave = HipVelocityWaveform(sf)
        assert wave.unit(self.GRID).min() == pytest.approx(-0.6, abs=1e-9)

    def test_periodic_and_smooth(self):
        wave = HipVelocityWaveform(0.6)
        phi = np.linspace(-1.0, 2.0, 30001)
        values = wave.unit(phi)
        np.testing.assert_allclose(values, wave.unit(phi + 1.0), atol=1e-12)
        # no jumps anywhere, including the cycle wrap
        assert np.abs(np.diff(values)).max() < 2e-3

    def test_integral_table_is_periodic(self):
        wave = HipVelocityWaveform(0.6)
        _, angle = wave.cycle_integral_table()
        assert angle[0] == pytest.approx(angle[-1], abs=1e-12)
        assert angle.max() - angle.min() > 0.01


class TestTruthConsistency:
    def test_phase_labels_follow_stance_fraction(self, clean_trial):
        params = clean_trial.params
        t = clean_trial.times()
        for foot, offset in ((Foot.LEFT, 0.0), (Foot.RIGHT, 0.5)):
            phi = np.mod(params.cadence_hz * t + offset, 1.0)
            expected = (phi >= params.stance_fraction).astype(np.int8)
            np.testing.assert_array_equal(clean_trial.truth.phases[foot], expected)

    def test_double_stance_fraction_matches_geometry(self, clean_trial):
        sf = clean_trial.params.stance_fraction
        codes = gait_state_codes(clean_trial.truth.phases)
        double_stance = np.mean(codes == 0)
        assert double_stance == pytest.approx(2.0 * (sf - 0.5), abs=0.01)
        # with stance fraction above one half the legs always overlap
        assert not np.any(codes == 3)

    def test_truth_events_alternate_and_stay_in_range(self, clean_trial):
        events = clean_trial.truth.events
        check_event_stream(events)
        t_last = clean_trial.times()[-1]
        assert all(0.0 < ev.t <= t_last for ev in events)

    def test_truth_event_times_follow_cadence(self, clean_trial):
        c = clean_trial.params.cadence_hz
        left_hs = [
            ev.t
            for ev in clean_trial.truth.events
            if ev.foot is Foot.LEFT and ev.kind is EventKind.HEEL_STRIKE
        ]
        expected = [(k + 1) / c for k in range(len(left_hs))]
        np.testing.assert_allclose(left_hs, expected, atol=1e-9)

    def test_omega_peaks_at_truth_toe_offs(self, clean_trial):
        # the velocity channel's own landmark sits on the truth toe-off grid
        params = clean_trial.params
        t = clean_trial.times()
        omega = clean_trial.omega[Foot.LEFT]
        for ev in clean_trial.truth.events:
            if ev.foot is not Foot.LEFT or ev.kind is not EventKind.TOE_OFF:
                continue
            k = int(round(ev.t * clean_trial.rates.control_rate_hz))
            window = omega[max(0, k - 3) : k + 4]
            assert window.max() >= 0.99 * params.omega_amp_rad_s


class TestKinematics:
    def test_mean_forward_speed(self, clean_trial):
        t = clean_trial.times()
        mid_x = 0.5 * (
            clean_trial.foot_xy[Foot.LEFT][:, 0] + clean_trial.foot_xy[Foot.RIGHT][:, 0]
        )
        slope = np.polyfit(t, mid_x, 1)[0]
        assert slope == pytest.approx(clean_trial.params.speed_m_s, rel=0.02)

    def test_stride_length_identity(self, clean_trial):
        params = clean_trial.params
        got = stride_length(clean_trial.foot_xy, clean_trial.times(), clean_trial.truth.events)
        assert got == pytest.approx(params.speed_m_s / params.cadence_hz, rel=0.01)

    def test_feet_hold_position_during_stance(self, clean_trial):
        # x must not move while the truth label says stance
        for foot in Foot:
            x = clean_trial.foot_xy[foot][:, 0]
            stance = clean_trial.truth.phases[foot] == 0
            dx = np.abs(np.diff(x))
            both_stance = stance[:-1] & stance[1:]
            assert dx[both_stance].max() < 1e-9

    def test_knee_range_of_motion_scale(self, clean_trial):
        knee = clean_trial.knee_deg[Foot.LEFT]
        assert knee.min() >= 0.0
        assert knee.max() == pytest.approx(KNEE_ROM_DEG, rel=0.02)

    def test_hip_angle_is_periodic_per_cycle(self):
        # cadence 0.5 Hz puts one cycle on exactly 200 ticks at 100 Hz
        log = generate(GaitParams(cadence_hz=0.5, seed=0), 12.0)
        hip = log.hip_deg[Foot.LEFT]
        np.testing.assert_allclose(hip[200:], hip[:-200], atol=1e-9)
        assert hip.max() - hip.min() > 10.0


class TestDeterminismAndNoise:
    def test_identical_seed_is_bit_identical(self):
        params = GaitParams(noise_sigma=0.05, seed=123)
        a = generate(params, 10.0)
        b = generate(params, 10.0)
        assert np.array_equal(a.omega[Foot.LEFT], b.omega[Foot.LEFT])
        assert np.array_equal(a.emg.raw.samples, b.emg.raw.samples)
        for foot in Foot:
            assert np.array_equal(a.insole[foot], b.insole[foot])
            assert np.array_equal(a.foot_xy[foot], b.foot_xy[foot])
            assert np.array_equal(a.hip_deg[foot], b.hip_deg[foot])

    def test_different_seed_changes_noise(self):
        a = generate(GaitParams(noise_sigma=0.05, seed=1), 10.0)
        b = generate(GaitParams(noise_sigma=0.05, seed=2), 10.0)
        assert not np.array_equal(a.omega[Foot.LEFT], b.omega[Foot.LEFT])

    def test_insole_noise_is_load_proportional(self):
        clean = generate(GaitParams(seed=5), 10.0)
        noisy = generate(GaitParams(noise_sigma=0.05, seed=5), 10.0)
        for foot in Foot:
            unloaded = clean.insole[foot] == 0.0
            assert np.all(noisy.insole[foot][unloaded] == 0.0)
            assert np.all(noisy.insole[foot] >= 0.0)
            loaded = ~unloaded
            assert not np.allclose(noisy.insole[foot][loaded], clean.insole[foot][loaded])

    def test_noise_free_channels_are_analytic(self):
        log = generate(GaitParams(seed=3), 10.0)
        wave = HipVelocityWaveform(log.params.stance_fraction)
        t = log.times()
        phi = np.mod(log.params.cadence_hz * t, 1.0)
        np.testing.assert_allclose(
            log.omega[Foot.LEFT], log.params.omega_amp_rad_s * wave.unit(phi), atol=1e-12
        )


class TestGenerateContract:
    def test_short_duration_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate(GaitParams(), 5.0)  # 3.5 strides at 0.7 Hz

    def test_five_stride_minimum_boundary(self):
        generate(GaitParams(), 5.0 / 0.7 + 0.01)

    def test_channel_shapes_and_rates(self, clean_trial):
        n = clean_trial.n_ticks
        assert n == 2000
        assert clean_trial.emg.raw.rate_hz == 1000.0
        assert len(clean_trial.emg.raw) == 20_000
        for foot in Foot:
            assert clean_trial.insole[foot].shape == (n, 8)
            assert clean_trial.foot_xy[foot].shape == (n, 2)

    def test_param_validation(self):
        with pytest.raises(InvalidSpecError):
            GaitParams(stance_fraction=0.5)
        with pytest.raises(InvalidSpecError):
            GaitParams(stance_fraction=0.8)
        with pytest.raises(InvalidSpecError):
            GaitParams(emg_level=0.0)
        with pytest.raises(InvalidSpecError):
            GaitParams(noise_sigma=-0.1)
        with pytest.raises(InvalidSpecError):
            GaitParams(cadence_hz=0.0)
        assert GaitParams().stride_length_m == pytest.approx(0.74 / 0.7)

    @pytest.mark.parametrize("stance_fraction", STANCE_FRACTIONS)
    @pytest.mark.parametrize("control_rate_hz", [40.0, 100.0, 250.0])
    def test_cadence_must_leave_a_swing_of_four_ticks(self, stance_fraction, control_rate_hz):
        """At the limit every swing inside the trial keeps a tick that
        `score_detection` scores, past it `generate` refuses the cadence."""
        rates = ChannelRates(control_rate_hz, emg_rate_hz=max(1000.0, 10 * control_rate_hz))
        most = (1.0 - stance_fraction) * control_rate_hz / MIN_SWING_TICKS
        log = generate(GaitParams(cadence_hz=most, stance_fraction=stance_fraction), 10.0, rates)
        for foot in Foot:
            near = np.rint(log.truth.events.times(foot) * control_rate_hz)[:, None] + (-1, 0, 1)
            scored = np.ones(log.n_ticks, dtype=bool)
            scored[near[(near >= 0) & (near < log.n_ticks)].astype(int)] = False
            swing = np.diff(log.truth.phases[foot], prepend=0, append=0)
            for start, stop in zip(np.flatnonzero(swing == 1), np.flatnonzero(swing == -1)):
                if 0 < start and stop < log.n_ticks:
                    assert scored[start:stop].any()
        above = GaitParams(cadence_hz=np.nextafter(most, 1e9), stance_fraction=stance_fraction)
        with pytest.raises(InvalidSpecError, match="leaves a swing under 4 control ticks"):
            generate(above, 10.0, rates)

    def test_emg_rate_must_be_one_the_control_envelope_takes(self):
        log = generate(GaitParams(), 10.0, ChannelRates(control_rate_hz=100.0, emg_rate_hz=1100.0))
        assert len(log.emg.raw) == 11_000
        for emg_rate_hz, message in ((1000.0001, "integer factor"), (500.0, "too low")):
            with pytest.raises(InvalidSpecError, match=message):
                generate(GaitParams(), 10.0, ChannelRates(emg_rate_hz=emg_rate_hz))


class TestMissingChannels:
    """A TrialLog refuses, when built, a log without every channel."""

    @pytest.mark.parametrize("foot", list(Foot))
    @pytest.mark.parametrize("name", ["omega", "insole", "foot_xy", "hip_deg", "knee_deg"])
    def test_missing_channel_rejected(self, clean_trial, name, foot):
        channel = {other: getattr(clean_trial, name)[other] for other in Foot if other is not foot}
        message = f"^trial log is missing the {foot.value} {name} channel$"
        with pytest.raises(DataFormatError, match=message):
            dataclasses.replace(clean_trial, **{name: channel})

    def test_a_log_built_field_by_field_is_checked(self, clean_trial):
        fields = {f.name: getattr(clean_trial, f.name) for f in dataclasses.fields(TrialLog)}
        assert TrialLog(**fields).n_ticks == clean_trial.n_ticks
        insole = {Foot.LEFT: clean_trial.insole[Foot.LEFT]}
        with pytest.raises(DataFormatError, match="^trial log is missing the right insole channel$"):
            TrialLog(**{**fields, "insole": insole})
