"""On-disk trial format tests: roundtrips, byte stability, malformed inputs."""
from __future__ import annotations

import hashlib
import io
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitassist import trial_io
from gaitassist.cli import main
from gaitassist.errors import DataFormatError
from gaitassist.gait import BLOCK_TICKS, EventKind, Foot, GaitEvent
from gaitassist.simgait import GaitParams, generate
from gaitassist.trial_io import (
    FORMAT_TAG,
    load_trial,
    parse_manifest,
    read_events_csv,
    read_manifest,
    save_trial,
    write_events_csv,
    write_table,
)


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
            loaded.omega_left.samples, log.omega_left.samples, atol=1e-6
        )
        np.testing.assert_allclose(
            loaded.emg.raw.samples, log.emg.raw.samples, atol=1e-6
        )
        assert loaded.emg.mvc == log.emg.mvc
        for foot in Foot:
            np.testing.assert_allclose(loaded.insole[foot], log.insole[foot], atol=1e-6)
            np.testing.assert_allclose(loaded.foot_xy[foot], log.foot_xy[foot], atol=1e-6)
            np.testing.assert_allclose(
                loaded.hip_deg[foot].samples, log.hip_deg[foot].samples, atol=1e-6
            )

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

    def test_rewrite_is_byte_identical(self, saved_trial, tmp_path):
        _, out = saved_trial
        loaded = load_trial(out)
        again = tmp_path / "again"
        save_trial(loaded, again)
        for file in sorted(out.iterdir()):
            assert (again / file.name).read_bytes() == file.read_bytes(), file.name

    def test_manifest_contents(self, saved_trial):
        _, out = saved_trial
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["format"] == FORMAT_TAG
        assert manifest["has_truth"] == "true"
        assert int(manifest["n_ticks"]) == 1000
        channels = manifest["channels"].split(",")
        assert len(channels) >= 6


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

    def test_generated_trials_take_the_fast_path(self, tmp_path, monkeypatch):
        """numpy spells every block of a simulated trial and of its run's
        tables: with the `%` fallback made to fail, they still write their
        golden bytes."""
        from test_golden import _COMMON, GOLDEN, SIMULATE_SEED42

        def fail(block):
            raise AssertionError(f"a block of shape {block.shape} went through %")

        def digest(path: Path) -> str:
            return hashlib.sha256(path.read_bytes()).hexdigest()

        monkeypatch.setattr(trial_io, "_exact_words", fail)
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
            mp.setattr(trial_io, "_read_fixed_point", lambda fh, ncols, rows: None)
        return trial_io._read_table(path, columns, rows)


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
            assert (trial_io._read_fixed_point(fh, width, n_rows) is not None) == fits

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

    @pytest.mark.parametrize("rows", [ROWS - 1, ROWS + 1, 0, -1])
    def test_every_row_is_read_whatever_the_expected_count(self, tmp_path, rows):
        """The caller reports a row count other than the manifest's."""
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
        """The fixed-point reader reads every float table of a simulated
        trial: with np.loadtxt refused them, `analyze` and `run --trial` still
        write their golden bytes."""
        from test_golden import ANALYZE_SEED42_METRICS, GOLDEN

        loadtxt = trial_io._loadtxt

        def labels_only(fh, name, *args, **kwargs):
            if name in _FLOAT_TABLES:
                raise AssertionError(f"{name} went through np.loadtxt")
            return loadtxt(fh, name, *args, **kwargs)

        monkeypatch.setattr(trial_io, "_loadtxt", labels_only)
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
                "omega_left": log.omega_left.samples,
                "omega_right": log.omega_right.samples,
                "emg": log.emg.raw.samples,
                "events": np.array([(e.t, e.foot.value, e.kind.value) for e in log.truth.events]),
            }
            for foot in Foot:
                out[f"insole_{foot.value}"] = log.insole[foot]
                out[f"foot_xy_{foot.value}"] = log.foot_xy[foot]
                out[f"hip_{foot.value}"] = log.hip_deg[foot].samples
                out[f"knee_{foot.value}"] = log.knee_deg[foot].samples
                out[f"phases_{foot.value}"] = log.truth.phases[foot]
            return out

        lf, other = arrays(load_trial(out)), arrays(load_trial(crlf))
        assert lf.keys() == other.keys()
        for name in lf:
            assert _same_bits(other[name], lf[name]), name


class TestEventsCsv:
    def test_round_trip(self, tmp_path):
        events = [
            GaitEvent(0.51, Foot.LEFT, EventKind.HEEL_STRIKE),
            GaitEvent(1.23, Foot.RIGHT, EventKind.TOE_OFF),
        ]
        path = tmp_path / "events.csv"
        write_events_csv(path, events)
        loaded = read_events_csv(path)
        assert [(e.foot, e.kind) for e in loaded] == [(e.foot, e.kind) for e in events]
        assert loaded[0].t == pytest.approx(0.51, abs=1e-9)

    def test_empty_event_file_round_trips(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events_csv(path, [])
        assert read_events_csv(path) == []

    def test_bad_foot_name_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("t_s,foot,kind\n0.100000,middle,heel_strike\n")
        with pytest.raises(DataFormatError):
            read_events_csv(path)


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
