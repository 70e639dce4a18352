"""On-disk trial format tests: roundtrips, byte stability, malformed inputs."""
from __future__ import annotations

import hashlib
import io
import math
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
