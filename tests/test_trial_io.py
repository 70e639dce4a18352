"""On-disk trial format tests: roundtrips, byte stability, malformed inputs."""
from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # a block holds BLOCK_TICKS // width rows: one short of a block, one over
    # two blocks, and exactly three blocks
    @example(pool=[0.1234565, -1.0], n_rows=BLOCK_TICKS - 1, width=2, one_d=True, seed=2)
    @example(pool=[0.0000005, 7.0], n_rows=BLOCK_TICKS + 1, width=2, one_d=False, seed=3)
    @example(pool=[1.0000005, -0.0], n_rows=BLOCK_TICKS - 1, width=3, one_d=False, seed=4)
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
