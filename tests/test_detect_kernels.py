"""The event-skipping detector kernels against the tick-by-tick reference.

`gait_fsr.detect_block` and `gait_vel.detect_block` jump from event to event
with numpy. These properties pin them, bit for bit, to a fold of the
reference transitions in `gait_reference`: the events, the per-tick phases
and the state after every block, on simulated trials and on adversarial
channels built from threshold values, at several control rates, whole or
split into blocks that carry the state from one to the next. A last test
counts Python calls, so that no per-tick call can come back unnoticed.
"""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitassist import gait_fsr, gait_vel
from gaitassist.gait import Foot, Phase, events_and_phases
from gaitassist.gait_fsr import FsrDetectorConfig, force_sums
from gaitassist.gait_vel import VelDetectorConfig
from gaitassist.simgait import ChannelRates, GaitParams, generate

from gait_reference import PHASE_AFTER_EVENT, fold, fsr_transition, vel_transition

RATES_HZ = (50.0, 100.0, 137.0, 200.0)
DETECTORS = {"fsr": (gait_fsr, fsr_transition), "vel": (gait_vel, vel_transition)}


def same(a, b) -> bool:
    """Equal bit for bit, NaN included (`repr` spells every float exactly)."""
    return repr(a) == repr(b)


def reference_states(transition, state, t, a, b, cfg) -> list:
    """The leg's state after each tick of a tick-by-tick run."""
    states = []
    for tk, ak, bk in zip(t.tolist(), a.tolist(), b.tolist()):
        state, _ = transition(state, tk, ak, bk, cfg)
        states.append(state)
    return states


def check_kernel(name, state, t, a, b, cfg, cuts=()):
    """The kernel over the whole block, and over the block cut at `cuts`
    carrying its state, equals the reference fold from `state`: emission
    ticks and event times, per-tick phase and the state at the end of every
    piece. The fold's kinds alternate from the one that ends `state`'s
    phase, which is why a kernel returns none."""
    module, transition = DETECTORS[name]
    initial = state[0]
    end, fold_ticks, fired = fold(transition, state, t, a, b, cfg)
    entered = [PHASE_AFTER_EVENT[kind] for kind, _ in fired]
    assert entered == [(initial.other(), initial)[i % 2] for i in range(len(fired))]
    expected = (end, fold_ticks, [t_event for _, t_event in fired])
    assert same(module.detect_block(state, t, a, b, cfg), expected)

    states = reference_states(transition, state, t, a, b, cfg)
    bounds = sorted({0, len(t), *cuts})
    ticks, times = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        state, piece_ticks, piece_times = module.detect_block(
            state, t[lo:hi], a[lo:hi], b[lo:hi], cfg
        )
        assert same(state, states[hi - 1]), (lo, hi)
        ticks += [lo + k for k in piece_ticks]
        times += piece_times
    assert same((state, ticks, times), expected)

    legs = {Foot.LEFT: (ticks, times), Foot.RIGHT: ([], [])}
    _, phases = events_and_phases(legs, len(t), initial)
    assert phases[Foot.LEFT].tolist() == [int(s[0] is Phase.SWING) for s in states]


@st.composite
def fsr_configs(draw, rate_hz):
    contact = draw(st.floats(2.0, 200.0))
    return FsrDetectorConfig(
        contact_threshold_n=contact,
        release_threshold_n=contact * draw(st.floats(0.05, 0.95)),
        # whole ticks make "exactly min_phase_s after an event" reachable
        min_phase_s=draw(
            st.sampled_from([1e-6, 0.15])
            | st.integers(1, 40).map(lambda m: m / rate_hz)
            | st.floats(1e-6, 1.0)
        ),
    )


@st.composite
def vel_configs(draw, rate_hz):
    return VelDetectorConfig(
        zero_hysteresis_rad_s=draw(st.floats(0.005, 0.6)),
        peak_min_rad_s=draw(st.floats(0.05, 2.5)),
        peak_confirm_samples=draw(st.integers(2, 8)),
        min_event_gap_s=draw(
            st.just(0.0) | st.integers(1, 40).map(lambda m: m / rate_hz) | st.floats(0.0, 1.0)
        ),
    )


def interesting_cuts(name, state, t, a, b, cfg) -> list[int]:
    """Ticks right after the first reference state that is inside the
    debounce, mid-peak or holding a pending crossing, so a block starts there."""
    transition = DETECTORS[name][1]
    gap = cfg.min_phase_s if name == "fsr" else cfg.min_event_gap_s
    tests = [lambda s, tk: tk - s[1] < gap]
    if name == "vel":
        tests += [lambda s, tk: s[2] > -math.inf, lambda s, tk: not math.isnan(s[6])]
    states = reference_states(transition, state, t, a, b, cfg)
    cuts = []
    for test in tests:
        hits = [k + 1 for k, s in enumerate(states[:-1]) if test(s, t[k + 1])]
        cuts += hits[:1]
    return cuts


@st.composite
def cuts(draw, n):
    """Cut points: every 1, 2 or 7 ticks, or a few random ones, or none."""
    size = draw(st.sampled_from([1, 2, 7, n]))
    if draw(st.booleans()):
        return list(range(0, n, size))
    return draw(st.lists(st.integers(0, n), max_size=6))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(DETECTORS)), rate_hz=st.sampled_from(RATES_HZ))
def test_kernels_equal_the_fold_on_simulated_trials(data, name, rate_hz):
    log = generate(
        GaitParams(
            seed=data.draw(st.integers(0, 2**31 - 1)),
            noise_sigma=data.draw(st.sampled_from([0.0, 0.05, 0.4, 3.0])),
        ),
        8.0,
        # generate refuses the default 1000 Hz EMG at 137 Hz, off the control grid
        ChannelRates(control_rate_hz=rate_hz, emg_rate_hz=1096.0 if rate_hz == 137.0 else 1000.0),
    )
    t = log.times()
    foot = data.draw(st.sampled_from(list(Foot)))
    if name == "fsr":
        cfg = data.draw(fsr_configs(rate_hz))
        a, b = force_sums(log.insole[foot])
    else:
        cfg = data.draw(vel_configs(rate_hz))
        a, b = log.omega[foot], log.omega[foot.other()]
    module = DETECTORS[name][0]
    for phase in Phase:
        state = (phase, *module.INITIAL_STATE[1:])
        chosen = data.draw(cuts(len(t))) + interesting_cuts(name, state, t, a, b, cfg)
        check_kernel(name, state, t, a, b, cfg, chosen)


def pool_channel(values, n):
    """n samples drawn from `values` in runs, so plateaus and repeats occur."""
    runs = st.lists(st.tuples(st.sampled_from(values), st.integers(1, 12)), min_size=1)
    return runs.map(lambda rs: np.resize(np.repeat([v for v, _ in rs], [r for _, r in rs]), n))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rate_hz=st.sampled_from(RATES_HZ), n=st.integers(1, 300))
def test_fsr_kernel_on_threshold_valued_forces(data, rate_hz, n):
    cfg = data.draw(fsr_configs(rate_hz))
    contact, release = cfg.contact_threshold_n, cfg.release_threshold_n
    values = [0.0, release, contact, contact / 2.0, contact - release, 2.0 * contact]
    t = np.arange(n) / rate_hz
    a, b = data.draw(pool_channel(values, n)), data.draw(pool_channel(values, n))
    state = (data.draw(st.sampled_from(list(Phase))), data.draw(st.sampled_from([-math.inf, 0.0])))
    check_kernel("fsr", state, t, a, b, cfg, data.draw(cuts(n)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rate_hz=st.sampled_from(RATES_HZ), n=st.integers(1, 300))
def test_vel_kernel_on_threshold_valued_velocities(data, rate_hz, n):
    cfg = data.draw(vel_configs(rate_hz))
    h, peak = cfg.zero_hysteresis_rad_s, cfg.peak_min_rad_s
    values = [0.0, -0.0, h, -h, h / 2.0, -h / 2.0, peak, 2.0 * peak, -peak, 3.0 * h]
    t = np.arange(n) / rate_hz
    own = data.draw(pool_channel(values, n) | pool_channel([peak, 2.0 * peak, 0.0], n))
    contra = data.draw(pool_channel(values, n))
    state = (data.draw(st.sampled_from(list(Phase))), *gait_vel.INITIAL_STATE[1:])
    chosen = data.draw(cuts(n)) + interesting_cuts("vel", state, t, own, contra, cfg)
    check_kernel("vel", state, t, own, contra, cfg, chosen)


@pytest.mark.parametrize("name", sorted(DETECTORS))
@pytest.mark.parametrize("level", [0.0, 0.05, 10.0, 20.0, 0.5, -0.05, -3.0])
def test_kernels_on_constant_channels(name, level):
    t = np.arange(200) / 100.0
    a = np.full(200, abs(level) if name == "fsr" else level)
    if name == "fsr":
        cfg, state = FsrDetectorConfig(), gait_fsr.INITIAL_STATE
    else:
        cfg, state = VelDetectorConfig(min_event_gap_s=0.0), gait_vel.INITIAL_STATE
    check_kernel(name, state, t, a, a.copy(), cfg, [1, 2, 100])


def test_debounce_ends_where_the_fold_ends_it():
    # At 50 Hz, t[58] - t[7] is the float 1.02, but t[7] + 1.02 rounds above
    # t[58]: a search for t[7] + min_phase_s alone would skip the release
    # that the fold accepts at tick 58, exactly min_phase_s after the strike.
    # The release at tick 30 falls inside the debounce.
    t = np.arange(80) / 50.0
    cfg = FsrDetectorConfig(min_phase_s=float(t[58] - t[7]))
    assert t[7] + cfg.min_phase_s > t[58]
    k = np.arange(80)
    force = np.where((k < 7) | (k == 30) | (k == 58), 0.0, 100.0)
    check_kernel("fsr", gait_fsr.INITIAL_STATE, t, force, force.copy(), cfg, [30])
    assert gait_fsr.detect_block(gait_fsr.INITIAL_STATE, t, force, force, cfg)[1] == [7, 58]


def channel(n, base, *runs):
    """n samples of `base`, then `value` over each (lo, hi, value) run."""
    x = np.full(n, base)
    for lo, hi, value in runs:
        x[lo:hi] = value
    return x


def check_fast_path(name, state, t, a, b, cfg, emitted, cuts=()):
    """The kernel emits at `emitted` and equals the fold whole, cut at every
    tick, at every other tick and at `cuts`."""
    module = DETECTORS[name][0]
    assert module.detect_block(state, t, a, b, cfg)[1] == emitted
    for chosen in (range(len(t)), range(0, len(t), 2), cuts):
        check_kernel(name, state, t, a, b, cfg, list(chosen))


def test_fsr_runs_inside_and_past_the_debounce():
    # a release run that ends inside the debounce (5-8), one that starts
    # inside it and ends past it (12-30), one-tick contacts inside (25) and
    # past it (33), one-tick releases inside (40) and past it (50), and a
    # one-tick contact inside the last debounce (60)
    t = np.arange(70) / 100.0
    front = channel(
        70, 15.0, (2, 5, 100.0), (5, 9, 0.0), (12, 31, 0.0), (25, 26, 100.0),
        (33, 34, 100.0), (40, 41, 0.0), (50, 51, 0.0), (60, 61, 100.0),
    )
    back = np.zeros(70)
    cfg = FsrDetectorConfig(min_phase_s=0.15)
    check_fast_path("fsr", gait_fsr.INITIAL_STATE, t, front, back, cfg, [2, 17, 33, 50], [13, 26])


def test_fsr_runs_that_start_before_the_search():
    # 9 N under each cluster is both a contact (18 > 15) and a release
    # (9 < 10), so each event's search starts inside a run of the other kind
    t = np.arange(60) / 100.0
    forces = channel(60, 0.0, (3, 50, 9.0))
    cfg = FsrDetectorConfig(contact_threshold_n=15.0, release_threshold_n=10.0, min_phase_s=0.15)
    check_fast_path("fsr", gait_fsr.INITIAL_STATE, t, forces, forces, cfg, [3, 18, 33, 49])


VEL = VelDetectorConfig(
    zero_hysteresis_rad_s=0.05, peak_min_rad_s=0.5, peak_confirm_samples=3, min_event_gap_s=0.0
)


def test_vel_first_candidate_at_the_block_start():
    t = np.arange(20) / 100.0
    own = channel(20, 0.0, (0, 1, 2.0), (1, 2, 1.5), (2, 3, 1.0), (3, 4, 0.5))
    check_fast_path("vel", gait_vel.INITIAL_STATE, t, own, np.zeros(20), VEL, [3])


def test_vel_first_candidate_right_after_a_strike():
    # the strike at tick 5 restarts the tracker at tick 6, a candidate lower
    # than the tick before it, so it is a new maximum only because it is first
    t = np.arange(20) / 100.0
    own = channel(20, 0.0, (3, 4, 3.0), (4, 5, 2.5), (5, 6, 2.0), (6, 7, 1.8), (7, 8, 1.0))
    contra = channel(20, -1.0, (0, 4, 1.0), (4, 5, -0.01))
    state = (Phase.SWING, *gait_vel.INITIAL_STATE[1:])
    check_fast_path("vel", state, t, own, contra, VEL, [5, 9], [6])


def test_vel_peak_within_the_confirmation_of_the_block_end():
    # the peaks at ticks 10 and 18 are no candidates of a piece that ends
    # within three ticks after them: the tracker carries them to the next piece
    # (cut at 11, 12 or 19), or out of the block
    t = np.arange(20) / 100.0
    own = channel(
        20, 0.0, (10, 11, 1.0), (11, 12, 0.6), (17, 18, 0.4), (18, 19, 1.2), (19, 20, 0.8)
    )
    end, _, _ = gait_vel.detect_block(gait_vel.INITIAL_STATE, t, own, np.zeros(20), VEL)
    assert end[2:5] == (1.2, 0.18, 1)
    check_fast_path("vel", gait_vel.INITIAL_STATE, t, own, np.zeros(20), VEL, [13], [11, 12, 19])


@pytest.mark.parametrize(
    "head, peak_max, emitted",
    [
        ([0.5, 0.3, 0.2, 0.1], 1.0, [1]),  # the carried peak is confirmed
        ([0.5, 1.2, 0.3, 0.2, 0.1], 1.0, [4]),  # a higher sample takes over
        ([0.1, 0.2, 0.6, 0.3, 0.2, 0.1], 0.3, [5]),  # carried below the peak height
    ],
)
def test_vel_carried_peak(head, peak_max, emitted):
    own = np.array(head + [0.0] * 6)
    t = np.arange(len(own)) / 100.0
    state = (Phase.STANCE, -math.inf, peak_max, -0.05, 1, 0, math.nan)
    check_fast_path("vel", state, t, own, np.zeros(len(own)), VEL, emitted)


def test_detection_calls_grow_with_events_not_ticks():
    log = generate(GaitParams(seed=3, noise_sigma=0.05), 60.0)
    t = log.times()
    for detect, channels, cfg in (
        (gait_fsr.detect, log.insole, FsrDetectorConfig()),
        (gait_vel.detect, log.omega, VelDetectorConfig()),
    ):
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            events, _ = detect(channels, t, cfg)
        finally:
            sys.setprofile(None)
        assert len(events) > 100
        assert calls <= 20 * len(events) + 200, (detect.__module__, calls, len(events))
