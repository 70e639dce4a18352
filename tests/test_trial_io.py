"""On-disk trial format tests: roundtrips, byte stability, malformed inputs."""
from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitassist import trial_io
from gaitassist.cli import _RUN_DEFAULTS, _SIM_DEFAULTS, main
from gaitassist.controller import UNLIMITED
from gaitassist.errors import DataFormatError, InvalidSpecError
from gaitassist.gait import EventKind, Foot, GaitEvent
from gaitassist.signals import EmgChannel, TimeSeries
from gaitassist.simgait import ChannelRates, GaitParams, TrialTruth, generate
from gaitassist.trial_io import (
    BLOCK_TICKS,
    FORMAT_TAG,
    format_value,
    load_trial,
    parse_manifest,
    parse_value,
    read_events_csv,
    read_manifest,
    save_trial,
    write_events_csv,
    write_table,
)

from gait_reference import events_of


@pytest.fixture(scope="module")
def saved_trial(tmp_path_factory):
    log = generate(GaitParams(noise_sigma=0.02, seed=6), 10.0)
    out = tmp_path_factory.mktemp("trials") / "t6"
    save_trial(log, out)
    return log, out


class TestRoundTrip:
    def test_channels_survive_within_format_precision(self, saved_trial):
        log, out = saved_trial
        loaded = load_trial(out)
        assert loaded.n_ticks == log.n_ticks
        assert loaded.rates == log.rates
        np.testing.assert_allclose(
            loaded.omega[Foot.LEFT], log.omega[Foot.LEFT], atol=1e-6
        )
        np.testing.assert_allclose(
            loaded.emg.raw.samples, log.emg.raw.samples, atol=1e-6
        )
        assert loaded.emg.mvc_mv == log.emg.mvc_mv
        for foot in Foot:
            np.testing.assert_allclose(loaded.insole[foot], log.insole[foot], atol=1e-6)
            np.testing.assert_allclose(loaded.foot_xy[foot], log.foot_xy[foot], atol=1e-6)
            np.testing.assert_allclose(loaded.hip_deg[foot], log.hip_deg[foot], atol=1e-6)

    def test_truth_survives_exactly(self, saved_trial):
        log, out = saved_trial
        loaded = load_trial(out)
        for foot in Foot:
            np.testing.assert_array_equal(loaded.truth.phases[foot], log.truth.phases[foot])
        assert len(loaded.truth.events) == len(log.truth.events)
        for a, b in zip(loaded.truth.events, log.truth.events):
            assert (a.foot, a.kind) == (b.foot, b.kind)
            assert a.t == pytest.approx(b.t, abs=1e-6)

    def test_params_survive(self, saved_trial):
        log, out = saved_trial
        loaded = load_trial(out)
        assert loaded.params.seed == log.params.seed
        assert loaded.params.noise_sigma == pytest.approx(log.params.noise_sigma)
        assert loaded.params.cadence_hz == pytest.approx(log.params.cadence_hz)

    def test_loaded_channels_are_contiguous_and_np_loadtxt_values(self, saved_trial):
        _, out = saved_trial
        loaded = load_trial(out)

        def table(name: str) -> np.ndarray:
            return np.loadtxt(out / name, delimiter=",", skiprows=1)

        omega, kin = table("omega.csv"), table("kinematics.csv")
        expected = {"emg": [(loaded.emg.raw.samples, table("emg.csv")[:, 1])]}
        for i, foot in enumerate(Foot):
            expected[foot.value] = [
                (loaded.omega[foot], omega[:, 1 + i]),
                (loaded.insole[foot], table(f"insole_{foot.value}.csv")[:, 1:]),
                (loaded.foot_xy[foot], kin[:, 1 + 2 * i : 3 + 2 * i]),
                (loaded.hip_deg[foot], kin[:, 5 + i]),
                (loaded.knee_deg[foot], kin[:, 7 + i]),
            ]
        for where, pairs in expected.items():
            for got, want in pairs:
                assert got.flags.f_contiguous, where
                assert got.tobytes(order="F") == want.tobytes(order="F"), where

    def test_rewrite_is_byte_identical(self, saved_trial, tmp_path):
        _, out = saved_trial
        loaded = load_trial(out)
        again = tmp_path / "again"
        save_trial(loaded, again)
        for file in sorted(out.iterdir()):
            assert (again / file.name).read_bytes() == file.read_bytes(), file.name

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("cadence_hz", [0.5, 0.9, 1.3])
    @pytest.mark.parametrize("stance_fraction", [0.55, 0.65, 0.75])
    def test_generated_truth_passes_the_load_checks(
        self, tmp_path, stance_fraction, cadence_hz, seed
    ):
        params = GaitParams(stance_fraction=stance_fraction, cadence_hz=cadence_hz, seed=seed)
        log = generate(params, 12.0)
        loaded = load_trial(save_trial(log, tmp_path / "trial"))
        assert [(e.foot, e.kind) for e in loaded.truth.events] == [
            (e.foot, e.kind) for e in log.truth.events
        ]

    def test_manifest_contents(self, saved_trial):
        _, out = saved_trial
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["format"] == FORMAT_TAG
        assert manifest["has_truth"] == "true"
        assert int(manifest["n_ticks"]) == 1000
        channels = manifest["channels"].split(",")
        assert len(channels) >= 6


    @settings(max_examples=12, deadline=None)
    @given(
        duration=st.floats(8.0, 12.0),
        rates=st.sampled_from([(100.0, 1000.0), (137.0, 1000.0), (50.0, 1000.0), (100.0, 1100.0)]),
    )
    @example(duration=10.006, rates=(100.0, 1000.0))
    def test_off_grid_durations_round_trip(self, tmp_path_factory, duration, rates):
        rates = ChannelRates(*rates)
        if rates.emg_rate_hz % rates.control_rate_hz:
            # generate refuses an EMG rate off the control grid, which the
            # trial format holds: swap such a channel, rounded length and all,
            # into a log generated at a rate on the grid
            log = generate(
                GaitParams(seed=4, noise_sigma=0.02),
                duration,
                dataclasses.replace(rates, emg_rate_hz=8 * rates.control_rate_hz),
            )
            raw = log.emg.raw.samples[: rates.emg_samples(log.n_ticks)]
            emg = dataclasses.replace(log.emg, raw=TimeSeries(raw, rates.emg_rate_hz))
            log = dataclasses.replace(log, rates=rates, emg=emg)
        else:
            log = generate(GaitParams(seed=4, noise_sigma=0.02), duration, rates)
        assert len(log.emg.raw) == log.rates.emg_samples(log.n_ticks)
        loaded = load_trial(save_trial(log, tmp_path_factory.mktemp("grid") / "t"))
        assert loaded.n_ticks == log.n_ticks and loaded.rates == log.rates
        pairs = [(loaded.emg.raw.samples, log.emg.raw.samples)]
        for name in ("omega", "insole", "foot_xy", "hip_deg", "knee_deg"):
            pairs += [(getattr(loaded, name)[foot], getattr(log, name)[foot]) for foot in Foot]
        for got, want in pairs:
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
        for foot in Foot:
            np.testing.assert_array_equal(loaded.truth.phases[foot], log.truth.phases[foot])


def _set(k: int, value: float):
    """An edit that sets element k of a copy of an array to `value`."""

    def edit(x: np.ndarray) -> np.ndarray:
        x = x.copy()
        x[k] = value
        return x

    return edit


class TestBuildRefuses:
    """A TrialLog refuses, when built, what load_trial would refuse, in one
    InvalidSpecError line, so save_trial gets no log it cannot write."""

    @pytest.fixture(scope="class")
    def log(self):
        return generate(GaitParams(seed=3), 10.0)

    @staticmethod
    def refusal(log, **changes) -> str:
        with pytest.raises(InvalidSpecError) as info:
            dataclasses.replace(log, **changes)
        return str(info.value)

    @pytest.mark.parametrize(
        "name, foot, edit, message",
        [
            ("omega", Foot.LEFT, _set(5, math.nan), "left omega must be finite"),
            ("hip_deg", Foot.RIGHT, _set(7, math.inf), "right hip_deg must be finite"),
            ("knee_deg", Foot.LEFT, lambda x: x[:-3],
             "left knee_deg needs shape (1000,), got (997,)"),
            ("knee_deg", Foot.RIGHT, _set(0, -math.inf), "right knee_deg must be finite"),
            ("hip_deg", Foot.LEFT, lambda x: x[:, None],
             "left hip_deg needs shape (1000,), got (1000, 1)"),
            ("foot_xy", Foot.RIGHT, _set(3, math.nan), "right foot_xy must be finite"),
            ("foot_xy", Foot.LEFT, lambda x: x[:, :1],
             "left foot_xy needs shape (1000, 2), got (1000, 1)"),
        ],
    )
    def test_bad_leg_channel(self, log, name, foot, edit, message):
        channel = dict(getattr(log, name))
        channel[foot] = edit(channel[foot])
        assert self.refusal(log, **{name: channel}) == message

    # each mode's detector channel: a list of rows is refused, not left for a
    # `run_trial` in that mode to fail on with a TypeError
    @pytest.mark.parametrize("name", ["omega", "insole"], ids=["velocity", "foot-sensors"])
    def test_a_channel_that_is_not_an_array(self, log, name):
        channel = {f: list(getattr(log, name)[f]) for f in Foot}
        assert self.refusal(log, **{name: channel}) == f"left {name} must be a numpy array, not list"

    # the control envelope reads only the first 9,991 samples, but load_trial
    # refuses each of these
    @pytest.mark.parametrize(
        "edit, got",
        [
            (lambda x: x[:-1], 9999),
            (lambda x: x[:-10], 9990),
            (lambda x: np.concatenate([x, [0.0]]), 10001),
            (_set(-1, math.nan), 10000),
        ],
    )
    def test_emg_of_another_length_or_not_finite(self, log, edit, got):
        emg = EmgChannel(log.emg.raw.with_samples(edit(log.emg.raw.samples)), mvc_mv=1.0)
        message = f"emg channel needs 10000 samples, all finite; got {got}"
        assert self.refusal(log, emg=emg) == message

    def test_a_log_without_ticks(self, log, tmp_path):
        # save_trial would write it, and load_trial refuse its manifest
        channels = {
            name: {foot: getattr(log, name)[foot][:0] for foot in Foot}
            for name in ("omega", "insole", "foot_xy", "hip_deg", "knee_deg")
        }
        emg = EmgChannel(log.emg.raw.with_samples(log.emg.raw.samples[:0]), mvc_mv=1.0)
        message = "n_ticks must be positive, got 0"
        assert self.refusal(log, emg=emg, truth=None, **channels) == message

    # seed 3's 27 events begin with the right foot's toe off and heel strike
    # and end with a left toe off
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda events: events[1::-1] + events[2:],
             "events for right not strictly increasing: 0.14285714285714282 after "
             "0.7142857142857143"),
            (lambda events: [events[0], GaitEvent(events[1].t, Foot.RIGHT, EventKind.TOE_OFF),
                             *events[2:]],
             "duplicated toe_off for right at t=0.7142857142857143"),
            (lambda events: events + [GaitEvent(10.000002, Foot.LEFT, EventKind.HEEL_STRIKE)],
             "t_s 10.000002 in data row 28 is outside the trial, 0 to duration_s 10.000000"),
            (lambda events: [GaitEvent(-2e-6, Foot.RIGHT, EventKind.HEEL_STRIKE)] + events,
             "t_s -0.000002 in data row 1 is outside the trial, 0 to duration_s 10.000000"),
            (lambda events: events[:-1] + [GaitEvent(math.nan, Foot.LEFT, EventKind.TOE_OFF)],
             "t_s nan in data row 27 is outside the trial, 0 to duration_s 10.000000"),
        ],
        ids=["swapped", "repeated-kind", "after-the-end", "before-the-start", "nan"],
    )
    def test_truth_events_that_load_trial_refuses(self, log, edit, message):
        events = list(log.truth.events)
        assert [(ev.foot, ev.kind) for ev in (*events[:2], events[-1])] == [
            (Foot.RIGHT, EventKind.TOE_OFF), (Foot.RIGHT, EventKind.HEEL_STRIKE),
            (Foot.LEFT, EventKind.TOE_OFF),
        ]
        truth = TrialTruth(log.truth.phases, events_of(edit(events)))
        assert self.refusal(log, truth=truth) == f"truth_events.csv: {message}"

    def test_truth_events_within_the_grid_tolerance_save(self, log, tmp_path):
        edge = [GaitEvent(10.000001, Foot.LEFT, EventKind.HEEL_STRIKE)]
        truth = TrialTruth(log.truth.phases, events_of([*log.truth.events, *edge]))
        out = save_trial(dataclasses.replace(log, truth=truth), tmp_path / "t")
        assert list(load_trial(out).truth.events)[-1] == edge[0]

    @pytest.mark.parametrize("foot", list(Foot))
    @pytest.mark.parametrize(
        "edit, shape",
        [
            (lambda x: x[:-1], "(999,)"), (lambda x: x[:0], "(0,)"),
            (lambda x: x[:, None], "(1000, 1)"),
        ],
    )
    def test_truth_phases_of_another_shape(self, log, foot, edit, shape):
        phases = dict(log.truth.phases)
        phases[foot] = edit(phases[foot])
        message = f"{foot.value} truth phases need shape (1000,), got {shape}"
        assert self.refusal(log, truth=TrialTruth(phases, log.truth.events)) == message

    @pytest.mark.parametrize("foot", list(Foot))
    def test_truth_phases_without_a_foot(self, log, foot):
        phases = {other: log.truth.phases[other] for other in Foot if other is not foot}
        message = f"truth is missing the {foot.value} phases"
        assert self.refusal(log, truth=TrialTruth(phases, log.truth.events)) == message

    @pytest.mark.parametrize(
        "foot, value, message",
        [(Foot.LEFT, 2, "left truth phase 2 at tick 5 is not 0 or 1"),
         (Foot.RIGHT, 0.5, "right truth phase 0.5 at tick 5 is not 0 or 1"),
         (Foot.RIGHT, math.nan, "right truth phase nan at tick 5 is not 0 or 1")],
    )
    def test_truth_phase_codes_other_than_0_and_1(self, log, foot, value, message):
        phases = dict(log.truth.phases)
        phases[foot] = _set(5, value)(phases[foot].astype(type(value)))
        assert self.refusal(log, truth=TrialTruth(phases, log.truth.events)) == message

    def test_emg_at_another_rate(self, log):
        samples = np.repeat(log.emg.raw.samples, 2)
        emg = EmgChannel(TimeSeries(samples, 2000.0), mvc_mv=log.emg.mvc_mv)
        message = "emg channel is at 2000 Hz, not at emg_rate_hz 1000"
        assert self.refusal(log, emg=emg) == message


_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**12), 10**12).map(lambda k: (k + 0.5) * 1e-6),  # rounding ties
    st.integers(-(10**9), 10**9).map(lambda k: (k + 0.5) * 1e-6),  # ties in the usual range
    st.sampled_from([-0.0, 0.5e-6, -0.5e-6, 1e12, 1e-300, math.nan, math.inf, -math.inf]),
)
_ROW_COUNTS = st.one_of(
    st.integers(1, 40),
    st.sampled_from([BLOCK_TICKS - 1, BLOCK_TICKS, BLOCK_TICKS + 1, 2 * BLOCK_TICKS + 1]),
)


class TestWriteTable:
    """`write_table` writes exactly what np.savetxt(fmt="%.6f", delimiter=",") writes."""

    @settings(max_examples=60, deadline=None)
    @given(
        pool=st.lists(_CELLS, min_size=1, max_size=16),
        n_rows=_ROW_COUNTS,
        width=st.integers(1, 9),
        one_d=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(pool=[-0.0, 0.5e-6, 1.5e-6, 1e12, 1e-300], n_rows=1, width=9, one_d=False, seed=0)
    @example(pool=[math.nan, math.inf, -math.inf, 2.5e-6], n_rows=3, width=3, one_d=False, seed=1)
    # blocks of BLOCK_TICKS rows: one short of a block, and one over
    @example(pool=[0.1234565, -1.0], n_rows=BLOCK_TICKS - 1, width=2, one_d=True, seed=2)
    @example(pool=[0.0000005, 7.0], n_rows=BLOCK_TICKS + 1, width=2, one_d=False, seed=3)
    @example(pool=[1.0000005, -0.0], n_rows=BLOCK_TICKS - 1, width=3, one_d=False, seed=4)
    # edges of the words numpy spells: signed zeros, a carry into the integer
    # part at 1e3 and at the 1e6 limit, the largest cells below it, and a NaN
    # that sends its block through `%`
    @example(pool=[-0.0, -4e-7, 999.9999995, 999.9999996], n_rows=40, width=9, one_d=False, seed=5)
    @example(pool=[999999.999999, -999999.999999, 0.25], n_rows=40, width=3, one_d=False, seed=6)
    @example(pool=[999999.9999995, -999999.9999996], n_rows=40, width=3, one_d=False, seed=7)
    @example(pool=[math.nan] + [k - 7.5 for k in range(15)], n_rows=60, width=1, one_d=True, seed=8)
    def test_bytes_match_savetxt(self, tmp_path_factory, pool, n_rows, width, one_d, seed):
        shape = (n_rows,) if one_d else (n_rows, width)
        rows = np.random.default_rng(seed).choice(np.array(pool, dtype=float), size=shape)
        columns = [f"c{j}" for j in range(1 if one_d else width)]
        path = tmp_path_factory.mktemp("table") / "table.csv"
        write_table(path, columns, rows)
        expected = io.StringIO()
        expected.write(",".join(columns) + "\n")
        np.savetxt(expected, rows, fmt="%.6f", delimiter=",", newline="\n")
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    @settings(max_examples=60, deadline=None)
    @given(
        pool=st.lists(
            st.one_of(
                st.floats(-2e3, 2e3),
                st.sampled_from([999.9999994, 999.9999995, 999.9999996, -999.9999995, -0.0, -4e-7]),
            ),
            min_size=1, max_size=8,
        ),
    )
    @example(pool=[-0.0, -4e-7, 999.9999995, 999.9999996])
    @example(pool=[-0.0, -4e-7, 999.9999994, -999.9999994])
    def test_a_fourth_word_only_for_a_cell_of_1000_or_more(self, pool):
        """Three 4-byte words spell a cell, four only in a block with a cell
        that `%` spells with four digits before the dot; either way the
        words, spaces dropped, are the `%` text."""
        block = np.array([pool])
        words = trial_io._fixed_point_words(block)
        thousands = any(len("%.6f" % abs(cell)) > len("999.999999") for cell in pool)
        assert words.shape == block.shape + (3 + thousands,) and words.dtype == "<u4"
        assert words.tobytes().translate(None, b" ") == "".join("%.6f," % c for c in pool).encode()

    def test_generated_trials_take_the_fast_path(self, tmp_path, monkeypatch):
        """numpy spells every block of a simulated trial and of its run's
        tables, three words per cell: with the `%` fallback and the four-word
        layout made to fail, they still write their golden bytes."""
        from test_golden import _COMMON, GOLDEN, SIMULATE_SEED42

        def fail(block):
            raise AssertionError(f"a block of shape {block.shape} went through %")

        fixed_point_words = trial_io._fixed_point_words

        def three_words(block):
            words = fixed_point_words(block)
            if words is not None and words.shape[-1] != 3:
                raise AssertionError(f"a block of shape {block.shape} took four words a cell")
            return words

        def digest(path: Path) -> str:
            return hashlib.sha256(path.read_bytes()).hexdigest()

        monkeypatch.setattr(trial_io, "_exact_words", fail)
        monkeypatch.setattr(trial_io, "_fixed_point_words", three_words)
        trial, run = tmp_path / "trial", tmp_path / "run"
        assert main(["simulate", *_COMMON[1:], "--seed", "42", "--out", str(trial)]) == 0
        assert {p.name: digest(p) for p in trial.iterdir()} == SIMULATE_SEED42
        argv = ["run", *_COMMON, "--seed", "42", "--mode", "foot-sensors", "--out", str(run)]
        assert main(argv) == 0
        golden = GOLDEN["seed42-foot-sensors"][3]
        assert {name: digest(run / name) for name in ("torque.csv", "labels.csv")} == {
            name: golden[name] for name in ("torque.csv", "labels.csv")
        }


# `run --trial --mode foot-sensors` on the trial `simulate --duration 30
# --noise-sigma 0.05 --seed 42` writes (test_golden.py's SIMULATE_SEED42):
# torque.csv, as recorded when np.loadtxt read every table. Its other
# artifacts equal those of the golden `run --simulate` case.
TRIAL_SEED42_TORQUE = "7fc1faed4d1b8e12217997580470cbacc356ba384d451f4cc451cd2dc318b0a0"
_FLOAT_TABLES = ("omega.csv", "insole_left.csv", "insole_right.csv", "emg.csv", "kinematics.csv")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read(path: Path, columns: list[str], rows: int, chunk: int, fast: bool = True):
    """`_read_table` with text chunks of `chunk` bytes; with `fast` off, as
    before the fixed-point reader, every table through np.loadtxt."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trial_io, "_CHUNK_BYTES", chunk)
        if not fast:
            mp.setattr(trial_io, "_read_fixed_point", lambda *args: None)
        return trial_io._read_table(path, columns, np.empty((rows, len(columns))))


def _read_error(*args, **kwargs) -> str:
    with pytest.raises(DataFormatError) as excinfo:
        _read(*args, **kwargs)
    return str(excinfo.value)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReadTable:
    """`_read_table` reads every table as np.loadtxt does, bit for bit, and
    reports every fault as the np.loadtxt path does."""

    COLUMNS = ["t_s", "a", "b"]
    ROWS = 50
    CHUNK = 160  # bytes: row 40 of the table below lies past the first chunk

    @settings(max_examples=60, deadline=None)
    @given(
        pool=st.lists(st.one_of(_CELLS.filter(math.isfinite), st.floats(-1e8, 1e8)), min_size=1,
                      max_size=16),
        n_rows=st.integers(1, 120),
        width=st.integers(1, 9),
        chunk=st.sampled_from([160, 257, 1024, 1 << 17]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(pool=[-0.0, -4e-7, 0.5e-6, 999999.999999, -999999.999999], n_rows=100, width=9,
             chunk=160, seed=0)
    # 8 characters before the dot, the most the fixed-point reader takes, and more
    @example(pool=[99999999.0, -9999999.5, 0.25], n_rows=30, width=2, chunk=160, seed=1)
    @example(pool=[1e6, -1e7, 1e8, -1e8, 1e12], n_rows=30, width=3, chunk=257, seed=2)
    def test_matches_loadtxt(self, tmp_path_factory, pool, n_rows, width, chunk, seed):
        table = np.random.default_rng(seed).choice(np.array(pool), size=(n_rows, width))
        columns = [f"c{j}" for j in range(width)]
        path = tmp_path_factory.mktemp("table") / "table.csv"
        write_table(path, columns, table)
        expected = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert _same_bits(_read(path, columns, n_rows, chunk), expected)
        # the fixed-point reader takes every table whose cells have at most 8
        # characters before the dot
        cells = path.read_text().replace("\n", ",").split(",")[width:-1]
        fits = max(len(cell.partition(".")[0]) for cell in cells) <= 8
        with pytest.MonkeyPatch.context() as mp, open(path, "rb") as fh:
            mp.setattr(trial_io, "_CHUNK_BYTES", chunk)
            fh.readline()
            got = trial_io._read_fixed_point(fh, np.empty((n_rows, width)))
            assert (got is not None) == fits

    def table(self, tmp_path: Path, mutate) -> Path:
        """A table of ROWS rows in the writer's spelling, its list of lines,
        header first and each ending in a newline, passed through `mutate`."""
        path = tmp_path / "table.csv"
        t = np.arange(self.ROWS) / 100.0
        write_table(path, self.COLUMNS, t, np.column_stack([t * -3.5, t + 1e6]))
        lines = mutate(path.read_text().splitlines(keepends=True))
        path.write_text("".join(lines), newline="")
        return path

    @staticmethod
    def set_cell(row: int, cell: str):
        def mutate(lines: list[str]) -> list[str]:
            cells = lines[row].rstrip("\n").split(",")
            cells[1] = cell
            return lines[:row] + [",".join(cells) + "\n"] + lines[row + 1 :]
        return mutate

    @pytest.mark.parametrize("row", [1, 40])
    @pytest.mark.parametrize(
        "spelling",
        [" 1.5", "1.5 ", "1e3", "+2.000000", "1.5", "-0", "-.000000", "1.0000000", "00000000001.5"],
    )
    def test_other_accepted_cells_read_as_loadtxt_reads_them(self, tmp_path, row, spelling):
        path = self.table(tmp_path, self.set_cell(row, spelling))
        expected = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert _same_bits(_read(path, self.COLUMNS, self.ROWS, self.CHUNK), expected)

    LAYOUTS = {
        "crlf": lambda lines: [line.replace("\n", "\r\n") for line in lines],
        "blank-line": lambda lines: lines[:40] + ["\n"] + lines[40:],
        "comment-line": lambda lines: lines[:40] + ["# a comment line\n"] + lines[40:],
        "trailing-comment": lambda lines: (
            lines[:40] + [lines[40].replace("\n", " # a comment\n")] + lines[41:]
        ),
        "no-final-newline": lambda lines: lines[:-1] + [lines[-1].rstrip("\n")],
        # more cells in the first chunk than fixed-point rows could give it
        "short-cells": lambda lines: (
            lines[:1] + ["1,2,3\n"] * 25 + [",".join(["12345678.000000"] * 3) + "\n"] * 25
        ),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_other_accepted_layouts_read_as_loadtxt_reads_them(self, tmp_path, layout):
        path = self.table(tmp_path, self.LAYOUTS[layout])
        expected = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert _same_bits(_read(path, self.COLUMNS, self.ROWS, self.CHUNK), expected)

    @pytest.mark.parametrize("rows", [ROWS - 1, ROWS + 1, 0])
    def test_every_row_is_read_whatever_the_expected_count(self, tmp_path, rows):
        """The caller's array has a row count other than the table's."""
        path = self.table(tmp_path, lambda lines: lines)
        expected = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert _same_bits(_read(path, self.COLUMNS, rows, self.CHUNK), expected)

    @pytest.mark.parametrize("row", [1, 40])
    @pytest.mark.parametrize(
        "cell",
        ["abc", "1.000000.0", "--1.000000", "1.-000000", "1/000000", "", "0x10", "nan", "1.5,2.5",
         "\u00e9"],
    )
    def test_rejected_cells_are_reported_as_before(self, tmp_path, row, cell):
        path = self.table(tmp_path, self.set_cell(row, cell))
        message = _read_error(path, self.COLUMNS, self.ROWS, self.CHUNK)
        assert message == _read_error(path, self.COLUMNS, self.ROWS, self.CHUNK, fast=False)
        assert message.startswith("table.csv: ") and f"data row {row}" in message

    REJECTED_LAYOUTS = {
        # separators that are neither a comma nor a newline, or in the wrong place
        "plus-between-cells": lambda lines: (
            lines[:40] + [lines[40].replace(",", "+", 1)] + lines[41:]
        ),
        "newline-moved": lambda lines: (
            lines[:40]
            + [lines[40].replace("\n", ",") + lines[41].replace(",", "\n", 1)]
            + lines[42:]
        ),
    }

    @pytest.mark.parametrize("layout", sorted(REJECTED_LAYOUTS))
    def test_rejected_layouts_are_reported_as_before(self, tmp_path, layout):
        path = self.table(tmp_path, self.REJECTED_LAYOUTS[layout])
        message = _read_error(path, self.COLUMNS, self.ROWS, self.CHUNK)
        assert message == _read_error(path, self.COLUMNS, self.ROWS, self.CHUNK, fast=False)
        assert message.startswith("table.csv: data row 40 has ")

    def test_header_only_table_is_reported_as_before(self, tmp_path):
        path = self.table(tmp_path, lambda lines: lines[:1])
        assert _read_error(path, self.COLUMNS, self.ROWS, self.CHUNK) == "table.csv: no data rows"

    def test_generated_trials_take_the_fast_path(self, tmp_path, monkeypatch):
        """The fixed-point reader reads every float table and the truth
        labels of a simulated trial: with np.loadtxt refused them, `analyze`
        and `run --trial` still write their golden bytes."""
        from test_golden import ANALYZE_SEED42_METRICS, GOLDEN

        loadtxt = trial_io._loadtxt

        def events_only(fh, name, *args, **kwargs):
            if name in (*_FLOAT_TABLES, "truth_labels.csv"):
                raise AssertionError(f"{name} went through np.loadtxt")
            return loadtxt(fh, name, *args, **kwargs)

        monkeypatch.setattr(trial_io, "_loadtxt", events_only)
        trial, run, metrics = tmp_path / "seed42", tmp_path / "run", tmp_path / "metrics.csv"
        simulate = ["simulate", "--duration", "30", "--noise-sigma", "0.05", "--seed", "42"]
        assert main([*simulate, "--out", str(trial)]) == 0
        assert main(["analyze", str(trial), "--out", str(metrics)]) == 0
        assert _digest(metrics) == ANALYZE_SEED42_METRICS
        argv = ["run", "--trial", str(trial), "--mode", "foot-sensors", "--out", str(run)]
        assert main(argv) == 0
        golden = GOLDEN["seed42-foot-sensors"][3]
        expected = {name: golden[name] for name in ("events.csv", "labels.csv", "score.txt")}
        expected["torque.csv"] = TRIAL_SEED42_TORQUE
        assert {name: _digest(run / name) for name in expected} == expected

    def test_crlf_trial_loads_the_same_arrays(self, saved_trial, tmp_path):
        _, out = saved_trial
        crlf = tmp_path / "crlf"
        shutil.copytree(out, crlf)
        for path in crlf.glob("*.csv"):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))

        def arrays(log) -> dict[str, np.ndarray]:
            out = {
                "omega_left": log.omega[Foot.LEFT],
                "omega_right": log.omega[Foot.RIGHT],
                "emg": log.emg.raw.samples,
                "events": np.array([(e.t, e.foot.value, e.kind.value) for e in log.truth.events]),
            }
            for foot in Foot:
                out[f"insole_{foot.value}"] = log.insole[foot]
                out[f"foot_xy_{foot.value}"] = log.foot_xy[foot]
                out[f"hip_{foot.value}"] = log.hip_deg[foot]
                out[f"knee_{foot.value}"] = log.knee_deg[foot]
                out[f"phases_{foot.value}"] = log.truth.phases[foot]
            return out

        lf, other = arrays(load_trial(out)), arrays(load_trial(crlf))
        assert lf.keys() == other.keys()
        for name in lf:
            assert _same_bits(other[name], lf[name]), name


_TAILS = [
    # the writer's four
    *(f",{word.tobytes().decode().lstrip()}" for word in trial_io._LABEL_WORDS),
    ",walking,stance,stance\n",  # an unknown state
    ",double_stance,swing,stance\n",  # a state that does not match its phases
    ",double_stance,stance,hover\n",  # an unknown phase
    ", double_stance,stance,stance\n",  # spaces
    ",double_stance,stance, stance\n",
    ",double_stance,stance,stance \n",
    ",double_stance,stance,stance # a comment\n",
    ",double_stance,stance,stance\r\n",
    ",double_stance,stance,stance\n\n",  # a blank line
    ",double_stance,stance,stance\n# a comment line\n",
    ",double_stance,stance,stance,stance\n",  # a cell too many or too few
    ",double_stance,stance\n",
    "\n",
    ",xdouble_stance,stance,stance\n",  # one byte more, fewer or changed
    ",double_stancex,stance,stance\n",
    ",ouble_stance,stance,stance\n",
    ",double_stance,stance,stanc\n",
    ",double_stancf,stance,stance\n",
    ",louble_stance,stance,stance\n",
    ",DOUBLE_STANCE,stance,stance\n",
    ",left_stance_right_swing,swing,stance\n",
    ",right_stance_left_swing,stance,swing\n",
]


class TestReadLabels:
    """`truth_labels.csv` in the writer's spelling is read by the fixed-point
    reader, and every table gives what the np.loadtxt path gives: the same
    phases, or the same message."""

    ROWS = 40
    RATE = 100.0

    def outcome(self, trial: Path, chunk: int, fast: bool) -> tuple[list, bool]:
        """The truth phases `_read_truth` reads from `trial`, as dtype and
        bytes per foot, or its message; and whether np.loadtxt read the labels."""
        loadtxt, names = trial_io._loadtxt, []

        def recording(fh, name, *args, **kwargs):
            names.append(name)
            return loadtxt(fh, name, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trial_io, "_CHUNK_BYTES", chunk)
            mp.setattr(trial_io, "_loadtxt", recording)
            if not fast:
                mp.setattr(trial_io, "_read_fixed_point", lambda *args: None)
            try:
                labels, columns = trial / "truth_labels.csv", trial_io._LABEL_COLS
                out = np.empty((self.ROWS, 2))
                phases = trial_io._read_truth(labels, columns, self.ROWS, self.RATE, out).phases
                got = [(phases[foot].dtype.str, phases[foot].tobytes()) for foot in Foot]
            except DataFormatError as exc:
                got = [str(exc)]
        return got, "truth_labels.csv" in names

    def trial(self, tmp_path: Path, codes: list[int], edits: list[tuple[int, str, str]]) -> Path:
        """A truth labels table of state `codes`, each edit `(row, t_s, tail)`
        respelling a data row, its `t_s` cell kept if `t_s` is empty, and no
        truth events."""
        tmp_path.mkdir(exist_ok=True)
        write_events_csv(tmp_path / "truth_events.csv", events_of([]))
        codes = np.array(codes, np.int8)
        path = tmp_path / "truth_labels.csv"
        t = np.arange(self.ROWS) / self.RATE
        trial_io.write_labels_csv(path, t, {Foot.LEFT: codes >> 1, Foot.RIGHT: codes & 1})
        lines = path.read_text().splitlines(keepends=True)
        for row, t_s, tail in edits:
            lines[row] = (t_s or lines[row].split(",")[0]) + tail
        path.write_text("".join(lines), newline="")
        return tmp_path

    @settings(max_examples=150, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 3), min_size=ROWS, max_size=ROWS),
        edits=st.lists(
            st.tuples(
                st.integers(1, ROWS),
                st.sampled_from(["", "", "", "0.010000", "1e-2", " 0.01", "abc", "nan", "-0"]),
                st.sampled_from(_TAILS),
            ),
            max_size=3,
        ),
        chunk=st.sampled_from([100, 160, 257, 1 << 17]),  # rows straddle the small chunks
    )
    @example(codes=[0] * ROWS, edits=[], chunk=100)
    @example(codes=[3, 1, 2, 0] * (ROWS // 4), edits=[(40, "", _TAILS[4])], chunk=160)
    @example(codes=[0] * ROWS, edits=[(1, "1e-2", _TAILS[0]), (1, "", _TAILS[0])], chunk=100)
    @example(codes=[0] * ROWS, edits=[(1, "", "\n"), (1, "", _TAILS[0])], chunk=100)
    def test_matches_the_loadtxt_path(self, tmp_path_factory, codes, edits, chunk):
        trial = self.trial(tmp_path_factory.mktemp("labels"), codes, edits)
        (fast, loaded), (slow, _) = (self.outcome(trial, chunk, fast) for fast in (True, False))
        assert fast == slow
        # the fixed-point reader takes any `t_s` in the writer's spelling, on the
        # grid or off it; each edited row's text is rebuilt as `trial` builds it,
        # so an edit that keeps its `t_s` keeps all text before the first comma
        last: dict[int, str] = {}
        for row, t_s, tail in edits:
            line = last.get(row, f"{(row - 1) / self.RATE:.6f},")
            last[row] = (t_s or line.split(",")[0]) + tail
        writer_spelling = all(
            re.fullmatch(r"\d\.\d{6}", cell) is not None and f",{rest}" in _TAILS[:4]
            for cell, _, rest in (line.partition(",") for line in last.values())
        )
        assert loaded == (not writer_spelling)

    @pytest.mark.parametrize("tail", _TAILS[4:], ids=[repr(tail) for tail in _TAILS[4:]])
    @pytest.mark.parametrize("row", [1, 20, ROWS])
    def test_each_other_spelling_matches_the_loadtxt_path(self, tmp_path, row, tail):
        trial = self.trial(tmp_path, [0, 1, 3, 2] * (self.ROWS // 4), [(row, "", tail)])
        (fast, loaded), (slow, _) = (self.outcome(trial, 160, fast) for fast in (True, False))
        assert fast == slow and loaded


class TestEventsCsv:
    def test_round_trip(self, tmp_path):
        events = [
            GaitEvent(0.51, Foot.LEFT, EventKind.HEEL_STRIKE),
            GaitEvent(1.23, Foot.RIGHT, EventKind.TOE_OFF),
        ]
        path = tmp_path / "events.csv"
        write_events_csv(path, events_of(events))
        loaded = list(read_events_csv(path))
        assert [(e.foot, e.kind) for e in loaded] == [(e.foot, e.kind) for e in events]
        assert loaded[0].t == pytest.approx(0.51, abs=1e-9)

    def test_empty_event_file_round_trips(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events_csv(path, events_of([]))
        assert list(read_events_csv(path)) == []

    def test_name_cells_read_under_numpy_1_default_encoding(self, tmp_path, monkeypatch):
        # numpy 1.x's np.loadtxt defaults to encoding="bytes", which hands a
        # converter bytes cells unless the caller names an encoding
        loadtxt = np.loadtxt
        monkeypatch.setattr(
            np, "loadtxt", lambda *a, **kw: loadtxt(*a, **{"encoding": "bytes", **kw})
        )
        path = tmp_path / "events.csv"
        path.write_text("t_s,foot,kind\n0.500000,right,toe_off\n")
        events = list(read_events_csv(path))
        assert [(e.foot, e.kind) for e in events] == [(Foot.RIGHT, EventKind.TOE_OFF)]

        path = tmp_path / "events.csv"
        path.write_text("t_s,foot,kind\n0.100000,middle,heel_strike\n")
        with pytest.raises(DataFormatError):
            read_events_csv(path)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                _CELLS | st.floats(1e6, 1e9),
                st.sampled_from(list(Foot)),
                st.sampled_from(list(EventKind)),
            ),
            max_size=40,
        )
    )
    # a rounding tie, -0.0, the 1e6 edge of the digit tables, and a NaN after a finite time
    @example(rows=[(t, Foot.LEFT, EventKind.TOE_OFF) for t in (0.5e-6, -0.0, 1e6, 999999.9999995)])
    @example(rows=[(1.5, Foot.RIGHT, EventKind.TOE_OFF), (math.nan, Foot.LEFT, EventKind.TOE_OFF)])
    def test_bytes_are_the_f_string_rows_and_read_back(self, tmp_path_factory, rows):
        """`write_events_csv` writes `f"{t:.6f},{foot},{kind}\\n"` per event,
        and `read_events_csv` reads back what it wrote, or names the first
        non-finite time."""
        events = [GaitEvent(t, foot, kind) for t, foot, kind in rows]
        path = tmp_path_factory.mktemp("events") / "events.csv"
        write_events_csv(path, events_of(events))
        expected = "".join(f"{ev.t:.6f},{ev.foot.value},{ev.kind.value}\n" for ev in events)
        assert path.read_bytes() == ("t_s,foot,kind\n" + expected).encode()
        bad = [row for row, ev in enumerate(events, start=1) if not math.isfinite(ev.t)]
        if bad:
            with pytest.raises(DataFormatError) as excinfo:
                read_events_csv(path)
            assert str(excinfo.value) == f"events.csv: non-finite 't_s' in data row {bad[0]}"
        else:
            assert list(read_events_csv(path)) == [
                GaitEvent(float(f"{ev.t:.6f}"), ev.foot, ev.kind) for ev in events
            ]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.100000,left", "events.csv: data row 2 has 2 cells, expected 3"),
            ("0.100000,middle,heel_strike", "events.csv: unknown foot 'middle' in data row 2"),
            ("0.100000,leftfoot,toe_off", "events.csv: unknown foot 'leftfoot' in data row 2"),
            # the first bad row in file order
            ("0.100000,middle,toe_off\nabc,left,toe_off",
             "events.csv: unknown foot 'middle' in data row 2"),
            ("nan,left,toe_off\n0.200000,middle,toe_off",
             "events.csv: non-finite 't_s' in data row 2"),
            ("nan,left,toe_off\nabc,left,toe_off", "events.csv: non-finite 't_s' in data row 2"),
            ("0.100000,left,toe_offs", "events.csv: unknown kind 'toe_offs' in data row 2"),
            ("0.100000,left,toe_off ", "events.csv: unknown kind 'toe_off ' in data row 2"),
            ("abc,left,toe_off", "events.csv: t_s 'abc' in data row 2 is not a number"),
            ("1e400,left,toe_off", "events.csv: non-finite 't_s' in data row 2"),
            # float() takes these, np.loadtxt does not
            ("1_000,right,toe_off", "events.csv: t_s '1_000' in data row 2 is not a number"),
            ("\u0661.5,right,toe_off", "events.csv: t_s '\u0661.5' in data row 2 is not a number"),
            # np.loadtxt skips a line only if it is empty once its comment is cut
            ("  # spaces", "events.csv: data row 2 has 1 cells, expected 3"),
        ],
    )
    def test_bad_row_is_named_by_its_data_row(self, tmp_path, row, message):
        path = tmp_path / "events.csv"
        text = f"t_s,foot,kind\n0.050000,right,toe_off\n# a comment\n\n{row}\n"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError) as excinfo:
            read_events_csv(path)
        assert str(excinfo.value) == message

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("t_s,foot,kind\n# a comment\n\n0.100000,left,toe_off\n")
        assert list(read_events_csv(path)) == [GaitEvent(0.1, Foot.LEFT, EventKind.TOE_OFF)]

    @pytest.mark.parametrize(
        "text", ["t_s,foot,kind\n", "t_s,foot,kind\n# no events\n\n#\n"], ids=["header", "comments"]
    )
    def test_a_table_without_data_rows_reads_as_no_events_and_warns_not(self, tmp_path, text):
        path = tmp_path / "events.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            events = read_events_csv(path)
        assert events.t.shape == events.foot.shape == events.kind.shape == (0,)

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "missing file: {path}"),
            ("t_s,kind,foot\n", "events.csv: header 't_s,kind,foot' does not match "
             "['t_s', 'foot', 'kind']"),
        ],
    )
    def test_missing_file_or_bad_header_is_one_line(self, tmp_path, text, message):
        path = tmp_path / "events.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(DataFormatError) as excinfo:
            read_events_csv(path)
        assert str(excinfo.value) == message.format(path=path)


class TestMalformedTrials:
    def corrupt(self, src: Path, tmp_path: Path, name: str, mutate) -> Path:
        import shutil

        dst = tmp_path / "corrupt"
        shutil.copytree(src, dst)
        target = dst / name
        mutate(target)
        return dst

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_trial(tmp_path / "nope")

    def test_missing_channel_file(self, saved_trial, tmp_path):
        _, out = saved_trial
        broken = self.corrupt(out, tmp_path, "omega.csv", lambda p: p.unlink())
        with pytest.raises(DataFormatError):
            load_trial(broken)

    def test_wrong_header_rejected(self, saved_trial, tmp_path):
        _, out = saved_trial

        def swap_header(p: Path):
            lines = p.read_text().splitlines()
            lines[0] = "time,left,right"
            p.write_text("\n".join(lines) + "\n")

        broken = self.corrupt(out, tmp_path, "omega.csv", swap_header)
        with pytest.raises(DataFormatError):
            load_trial(broken)

    def test_non_numeric_cell_rejected(self, saved_trial, tmp_path):
        _, out = saved_trial

        def poison(p: Path):
            lines = p.read_text().splitlines()
            lines[3] = "oops,1.0,2.0"
            p.write_text("\n".join(lines) + "\n")

        broken = self.corrupt(out, tmp_path, "omega.csv", poison)
        with pytest.raises(DataFormatError):
            load_trial(broken)

    def test_row_count_mismatch_rejected(self, saved_trial, tmp_path):
        _, out = saved_trial

        def truncate(p: Path):
            lines = p.read_text().splitlines()
            p.write_text("\n".join(lines[:-10]) + "\n")

        broken = self.corrupt(out, tmp_path, "insole_left.csv", truncate)
        with pytest.raises(DataFormatError):
            load_trial(broken)

    def test_bad_format_tag_rejected(self, saved_trial, tmp_path):
        _, out = saved_trial

        def retag(p: Path):
            text = p.read_text().replace(FORMAT_TAG, "something-else/9")
            p.write_text(text)

        broken = self.corrupt(out, tmp_path, "manifest.txt", retag)
        with pytest.raises(DataFormatError):
            load_trial(broken)


class TestManifestParsing:
    def test_parse_ignores_blanks_and_comments(self):
        text = "# comment\n\nkey = value\nspaced   =   x y z\n"
        parsed = parse_manifest(text)
        assert parsed == {"key": "value", "spaced": "x y z"}

    def test_malformed_line_rejected(self):
        with pytest.raises(DataFormatError):
            parse_manifest("just some words\n")


class TestValueCodec:
    DEFAULTS = [*_SIM_DEFAULTS.items(), *_RUN_DEFAULTS.items()]

    @pytest.mark.parametrize(
        "key, value",
        [*DEFAULTS, ("ramp_rate_nm_s", UNLIMITED)],
        ids=[*(key for key, _ in DEFAULTS), "UNLIMITED"],
    )
    def test_every_default_survives_a_round_trip(self, key, value):
        parsed = parse_value(key, format_value(value), value)
        assert parsed == value and type(parsed) is type(value)

    def test_spellings(self):
        assert [format_value(v) for v in (UNLIMITED, -UNLIMITED, 0.5, -0.0, 3, True, False)] == [
            "unlimited", "-inf", "0.500000", "-0.000000", "3", "true", "false"
        ]
        for raw in ("unlimited", "Unlimited", "UNLIMITED", "inf", "Infinity"):
            assert parse_value("ramp_rate_nm_s", raw, 1.0) == UNLIMITED
        assert parse_value("mode", " x ", "foot-sensors") == " x "
        for flag in (True, False):
            assert parse_value("has_truth", format_value(flag), not flag) is flag

    @pytest.mark.parametrize(
        "raw, like, kind",
        [("abc", 1.0, "float"), ("2.5", 3, "int"), ("", 1.0, "float"), ("True", False, "bool"),
         ("1", True, "bool"), (" true", True, "bool")],
    )
    def test_unparsable_value_is_one_line_naming_the_key(self, raw, like, kind):
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_value("some_key", raw, like)
        assert str(excinfo.value) == f"setting 'some_key': {raw!r} is not a valid {kind}"

    def test_int_valued_float_settings_write_the_same_manifest(self, saved_trial, tmp_path):
        log, _ = saved_trial
        # the 1000 ticks at 200 Hz span 5,000 samples at 1000 Hz and 5 s:
        # save_trial refuses an EMG of any other length, and truth events past 5 s
        raw = log.emg.raw.with_samples(log.emg.raw.samples[:5000])
        truth = TrialTruth(log.truth.phases, log.truth.events[log.truth.events.t <= 5.0])
        as_ints = dataclasses.replace(
            log,
            rates=ChannelRates(control_rate_hz=200, emg_rate_hz=1000),
            params=GaitParams(cadence_hz=1, load_peak_n=400, seed=6),
            emg=EmgChannel(raw, mvc_mv=1),
            truth=truth,
        )
        as_floats = dataclasses.replace(
            log,
            rates=ChannelRates(control_rate_hz=200.0, emg_rate_hz=1000.0),
            params=GaitParams(cadence_hz=1.0, load_peak_n=400.0, seed=6),
            emg=EmgChannel(raw, mvc_mv=1.0),
            truth=truth,
        )
        manifests = [
            (save_trial(trial, tmp_path / name) / "manifest.txt").read_bytes()
            for name, trial in (("ints", as_ints), ("floats", as_floats))
        ]
        assert manifests[0] == manifests[1]
        lines = manifests[0].decode().splitlines()
        for line in (
            "control_rate_hz = 200.000000",
            "emg_rate_hz = 1000.000000",
            "cadence_hz = 1.000000",
            "load_peak_n = 400.000000",
            "mvc_mv = 1.000000",
            "seed = 6",
        ):
            assert line in lines
