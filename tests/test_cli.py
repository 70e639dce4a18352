"""Command-line interface tests: subcommands, exit codes, artifacts."""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gaitassist
from gaitassist.cli import main
from gaitassist.errors import DataFormatError
from gaitassist.trial_io import load_trial, read_manifest


def run_cli(*argv: str) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code)


@pytest.fixture(scope="module")
def trial_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "trial"
    assert run_cli("simulate", "--out", str(out), "--duration", "10", "--seed", "2") == 0
    return out


def with_byte_ff(trial_dir: Path, dst: Path, name: str) -> Path:
    """A copy of `trial_dir` whose file `name` has the byte 0xff, never
    UTF-8, at the start of its second line."""
    shutil.copytree(trial_dir, dst)
    data = (dst / name).read_bytes()
    cut = data.index(b"\n") + 1
    (dst / name).write_bytes(data[:cut] + b"\xff" + data[cut:])
    return dst


class TestSimulate:
    def test_writes_manifest_with_channels_and_seed(self, trial_dir):
        manifest = read_manifest(trial_dir / "manifest.txt")
        assert len(manifest["channels"].split(",")) >= 6
        assert manifest["seed"] == "2"
        assert manifest["noise_sigma"] == "0.000000"
        for name in ("omega", "emg", "insole_left", "insole_right", "kinematics"):
            assert (trial_dir / f"{name}.csv").is_file()

    def test_short_duration_is_usage_error(self, tmp_path):
        code = run_cli("simulate", "--out", str(tmp_path / "x"), "--duration", "3")
        assert code == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        code = run_cli("simulate", "--out", str(tmp_path / "x"), "--frobnicate")
        assert code == 1

    def test_config_file_sets_parameters(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("duration_s = 10\nseed = 9\nemg_level = 0.25\n")
        out = tmp_path / "trial9"
        assert run_cli("simulate", "--out", str(out), "--config", str(cfg)) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["seed"] == "9"
        assert manifest["emg_level"] == "0.250000"

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("duration_s = 10\nseed = 9\n")
        out = tmp_path / "trial10"
        assert run_cli("simulate", "--out", str(out), "--config", str(cfg), "--seed", "10") == 0
        assert read_manifest(out / "manifest.txt")["seed"] == "10"

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("duration_s = 10\nnot_a_key = 1\n")
        assert run_cli("simulate", "--out", str(tmp_path / "x"), "--config", str(cfg)) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--duration", "nan"),
            ("--control-rate", "inf"),
            ("--cadence", "inf"),
            ("--noise-sigma", "inf"),
            ("--speed", "inf"),
            ("--load-peak", "inf"),
            ("--omega-amp", "inf"),
        ],
    )
    def test_non_finite_setting_is_one_line_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        capsys.readouterr()
        code = run_cli("simulate", "--out", str(out), "--duration", "10", flag, value)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and "finite" in err[0]
        assert not out.exists()


class TestRun:
    @pytest.mark.parametrize("mode", ["foot-sensors", "actuators-velocity"])
    def test_produces_all_artifacts(self, trial_dir, tmp_path, mode):
        out = tmp_path / f"run-{mode}"
        code = run_cli("run", "--trial", str(trial_dir), "--mode", mode, "--out", str(out))
        assert code == 0
        for name in ("run_manifest.txt", "torque.csv", "events.csv", "labels.csv", "score.txt"):
            assert (out / name).is_file(), name
        score = read_manifest(out / "score.txt")
        assert float(score["phase_accuracy"]) >= 0.99
        assert float(score["recall"]) == 1.0

    def test_manifest_echoes_every_effective_setting(self, trial_dir, tmp_path):
        out = tmp_path / "run-echo"
        run_cli("run", "--trial", str(trial_dir), "--out", str(out), "--k-myo", "7.5")
        manifest = read_manifest(out / "run_manifest.txt")
        assert manifest["mode"] == "foot-sensors"
        assert manifest["k_myo_nm"] == "7.500000"
        assert manifest["k_stance"] == "0.500000"
        assert manifest["ramp_rate_nm_s"] == "unlimited"
        assert manifest["contact_threshold_n"] == "20.000000"
        assert manifest["release_threshold_n"] == "10.000000"
        assert manifest["min_phase_s"] == "0.150000"
        assert manifest["zero_hysteresis_rad_s"] == "0.050000"
        assert manifest["peak_min_rad_s"] == "0.500000"
        assert manifest["peak_confirm_samples"] == "3"
        assert manifest["min_event_gap_s"] == "0.300000"
        assert manifest["realtime"] == "false"
        assert manifest["input"] == str(trial_dir)

    def test_simulated_input_echoes_sim_settings(self, tmp_path):
        out = tmp_path / "run-sim"
        code = run_cli(
            "run", "--simulate", "--duration", "10", "--seed", "4", "--out", str(out)
        )
        assert code == 0
        manifest = read_manifest(out / "run_manifest.txt")
        assert manifest["input"] == "simulate"
        assert manifest["sim.seed"] == "4"
        assert manifest["sim.duration_s"] == "10.000000"

    def test_zero_gain_writes_zero_torque(self, trial_dir, tmp_path):
        out = tmp_path / "run-zero"
        run_cli("run", "--trial", str(trial_dir), "--out", str(out), "--k-myo", "0")
        torque = np.loadtxt(out / "torque.csv", delimiter=",", skiprows=1)
        assert np.all(torque[:, 1:] == 0.0)

    def test_needs_exactly_one_input(self, trial_dir, tmp_path):
        out = str(tmp_path / "x")
        assert run_cli("run", "--out", out) == 1
        assert (
            run_cli("run", "--trial", str(trial_dir), "--simulate", "--out", out) == 1
        )

    def test_missing_trial_is_data_error(self, tmp_path):
        code = run_cli(
            "run", "--trial", str(tmp_path / "absent"), "--out", str(tmp_path / "y")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "name, cell, mode",
        [
            ("omega.csv", "nan", "actuators-velocity"),
            ("omega.csv", "nan", "foot-sensors"),
            ("insole_left.csv", "nan", "foot-sensors"),
            ("insole_right.csv", "inf", "actuators-velocity"),
            ("insole_right.csv", "-1.000000", "foot-sensors"),
            ("insole_left.csv", "-1.000000", "actuators-velocity"),
            ("emg.csv", "nan", "foot-sensors"),
        ],
    )
    def test_bad_cell_is_one_line_data_error(
        self, trial_dir, tmp_path, capsys, name, cell, mode
    ):
        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        lines = (broken / name).read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = cell
        lines[5] = ",".join(cells)
        (broken / name).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("run", "--trial", str(broken), "--mode", mode, "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and name in err[0]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_ticks", "abc"),
            ("control_rate_hz", "0"),
            ("seed", "1.5"),
            ("mvc_mv", "0"),
            ("mvc_mv", "nan"),
        ],
    )
    def test_bad_manifest_value_is_one_line_data_error(
        self, trial_dir, tmp_path, capsys, key, value
    ):
        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        manifest = broken / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines]
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and "manifest.txt" in err[0]

    @pytest.mark.parametrize(
        "mutation",
        ["three-columns", "unknown-phase", "extended-phase-name", "extra-row", "missing-row"],
    )
    def test_bad_truth_labels_is_one_line_data_error(self, trial_dir, tmp_path, capsys, mutation):
        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        labels = broken / "truth_labels.csv"
        lines = labels.read_text().splitlines()
        cells = lines[5].split(",")
        if mutation == "three-columns":
            lines[5] = ",".join(cells[:3])
        elif mutation == "unknown-phase":
            lines[5] = ",".join([*cells[:2], "hover", cells[3]])
        elif mutation == "extended-phase-name":
            lines[5] = ",".join([*cells[:3], cells[3] + "x"])
        elif mutation == "extra-row":
            lines.append(lines[-1])
        else:
            lines.pop()
        labels.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as excinfo:
            load_trial(broken)
        message = str(excinfo.value)
        assert "truth_labels.csv" in message and "\n" not in message
        capsys.readouterr()
        code = run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and "truth_labels.csv" in err[0]

    def test_gait_state_contradicting_phases_is_one_line_data_error(
        self, trial_dir, tmp_path, capsys
    ):
        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        labels = broken / "truth_labels.csv"
        lines = labels.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",double_swing,stance,stance"
        labels.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert "truth_labels.csv" in err[0] and "data row 5" in err[0] and "double_swing" in err[0]

    @pytest.mark.parametrize(
        "mutation, problem",
        [("bad-cell", "'abc'"), ("too-wide", "4 cells, expected 3")],
        ids=["bad-cell", "too-wide"],
    )
    def test_unparsable_row_is_named_by_its_data_row(
        self, trial_dir, tmp_path, capsys, mutation, problem
    ):
        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        omega = broken / "omega.csv"
        lines = omega.read_text().splitlines()
        cells = lines[5].split(",")
        if mutation == "bad-cell":
            cells[1] = "abc"
        else:
            cells.append(cells[2])
        lines[5] = ",".join(cells)
        omega.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert "omega.csv" in err[0] and "data row 5" in err[0] and problem in err[0]
        # none of numpy's own row numbers or advice
        assert "at row" not in err[0] and "usecols" not in err[0]

    @pytest.mark.filterwarnings("error")  # a warning would be more stderr lines
    @pytest.mark.parametrize("name", ["omega.csv", "truth_labels.csv"])
    def test_header_only_table_is_one_line_data_error(self, trial_dir, tmp_path, capsys, name):
        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        header = (broken / name).read_text().splitlines()[0]
        (broken / name).write_text(header + "\n")
        capsys.readouterr()
        code = run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and name in err[0]

    def test_blank_truth_label_line_is_skipped(self, trial_dir, tmp_path):
        spaced = tmp_path / "spaced"
        shutil.copytree(trial_dir, spaced)
        labels = spaced / "truth_labels.csv"
        lines = labels.read_text().splitlines()
        lines.insert(5, "")
        labels.write_text("\n".join(lines) + "\n")
        truth = load_trial(spaced).truth
        for foot, phases in load_trial(trial_dir).truth.phases.items():
            np.testing.assert_array_equal(truth.phases[foot], phases)
        assert run_cli("run", "--trial", str(spaced), "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize(
        "name",
        ["omega.csv", "insole_left.csv", "insole_right.csv", "emg.csv", "kinematics.csv",
         "truth_labels.csv"],
    )
    def test_t_s_off_the_sample_grid_is_one_line_data_error(
        self, trial_dir, tmp_path, capsys, name
    ):
        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        lines = (broken / name).read_text().splitlines()
        cells = lines[5].split(",")
        cells[0] = f"{float(cells[0]) + 2e-6:.6f}"  # twice the grid tolerance
        lines[5] = ",".join(cells)
        (broken / name).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and name in err[0] and "data row 5" in err[0]

    @pytest.mark.parametrize("name", ["emg.csv", "manifest.txt", "truth_events.csv"])
    def test_non_utf8_byte_is_one_line_data_error(self, trial_dir, tmp_path, capsys, name):
        broken = with_byte_ff(trial_dir, tmp_path / "broken", name)
        capsys.readouterr()
        code = run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"gaitassist: data error: {name}: byte 0xff is not UTF-8 (invalid start byte)\n"
        )

    def test_print_torque_streams_rows(self, trial_dir, tmp_path, capsys):
        out = tmp_path / "run-stdout"
        run_cli("run", "--trial", str(trial_dir), "--out", str(out), "--print-torque")
        lines = capsys.readouterr().out.strip().splitlines()
        # 1000 torque rows plus the summary line
        assert len(lines) == 1001
        assert lines[0] == "0.000000,0.000000,0.000000"

    def test_realtime_paces_without_changing_outputs(self, trial_dir, tmp_path, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        fast = tmp_path / "fast"
        paced = tmp_path / "paced"
        run_cli("run", "--trial", str(trial_dir), "--out", str(fast))
        run_cli("run", "--trial", str(trial_dir), "--out", str(paced), "--realtime")
        assert sleeps and sleeps[0] > 0
        for name in ("torque.csv", "events.csv", "labels.csv", "score.txt"):
            assert (paced / name).read_bytes() == (fast / name).read_bytes()

    def test_labels_csv_has_causal_state_stream(self, trial_dir, tmp_path):
        out = tmp_path / "run-labels"
        run_cli("run", "--trial", str(trial_dir), "--out", str(out))
        lines = (out / "labels.csv").read_text().splitlines()
        assert lines[0] == "t_s,gait_state,phase_left,phase_right"
        assert len(lines) == 1001
        states = {line.split(",")[1] for line in lines[1:]}
        assert states <= {
            "double_stance",
            "left_stance_right_swing",
            "right_stance_left_swing",
            "double_swing",
        }


@pytest.mark.parametrize(
    "command, line",
    [("simulate", "seed = abc"), ("run", "k_myo_nm = ten"), ("run", "mode = bogus")],
)
def test_unparsable_config_value_is_one_line_usage_error(
    trial_dir, tmp_path, capsys, command, line
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "run":
        argv += ["--trial", str(trial_dir)]
    capsys.readouterr()
    code = run_cli(*argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    key = line.split(" = ")[0]
    assert len(err) == 1 and repr(key) in err[0]


class TestAnalyze:
    def test_metrics_table_for_multiple_trials(self, trial_dir, tmp_path):
        out = tmp_path / "metrics.csv"
        assert run_cli("analyze", str(trial_dir), str(trial_dir), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "trial,s. length [m],hip RoM [deg],knee RoM [deg],speed [m/s],"
            "EMG RMS [MVC],EMG p90 [MVC]"
        )
        assert len(lines) == 3
        assert lines[1] == lines[2]

    def test_stdout_when_no_output_path(self, trial_dir, capsys):
        assert run_cli("analyze", str(trial_dir)) == 0
        assert capsys.readouterr().out.startswith("trial,")

    def test_broken_trial_is_data_error_and_reported(self, trial_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        (broken / "emg.csv").unlink()
        code = run_cli("analyze", str(trial_dir), str(broken), "--out", str(tmp_path / "m.csv"))
        assert code == 2
        assert "broken" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["emg.csv", "manifest.txt", "truth_events.csv"])
    def test_non_utf8_byte_names_the_file(self, trial_dir, tmp_path, capsys, name):
        broken = with_byte_ff(trial_dir, tmp_path / "broken", name)
        capsys.readouterr()
        code = run_cli("analyze", str(trial_dir), str(broken), "--out", str(tmp_path / "m.csv"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"analyze: {broken}: {name}: byte 0xff is not UTF-8 (invalid start byte)\n"
        )

    def test_trial_without_truth_detects_its_own_events(self, trial_dir, tmp_path):
        truthless = tmp_path / "truthless"
        shutil.copytree(trial_dir, truthless)
        manifest = truthless / "manifest.txt"
        text = manifest.read_text()
        assert "has_truth = true\n" in text
        manifest.write_text(text.replace("has_truth = true\n", "has_truth = false\n"))
        out = tmp_path / "metrics.csv"
        assert run_cli("analyze", str(trial_dir), str(truthless), "--out", str(out)) == 0
        header, with_truth, without = out.read_text().splitlines()
        columns = header.split(",")[1:]
        truth_row = dict(zip(columns, map(float, with_truth.split(",")[1:])))
        row = dict(zip(columns, map(float, without.split(",")[1:])))
        assert all(np.isfinite(v) for v in row.values())
        for column in ("s. length [m]", "speed [m/s]"):
            assert row[column] == pytest.approx(truth_row[column], rel=0.02)


class TestCompare:
    @pytest.fixture()
    def metrics_files(self, trial_dir, tmp_path):
        base = tmp_path / "base.csv"
        run_cli("analyze", str(trial_dir), "--out", str(base))
        other_trial = tmp_path / "trial-louder"
        run_cli(
            "simulate", "--out", str(other_trial), "--duration", "10",
            "--seed", "2", "--emg-level", "0.75",
        )
        other = tmp_path / "other.csv"
        run_cli("analyze", str(other_trial), "--out", str(other))
        return base, other

    def test_reports_percent_change_per_metric(self, metrics_files, tmp_path):
        base, other = metrics_files
        out = tmp_path / "cmp.csv"
        assert run_cli("compare", "--baseline", str(base), str(other), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,other [%]"
        table = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines[1:]}
        assert table["s. length [m]"] == pytest.approx(0.0, abs=1e-9)
        # raising emg_level 0.5 -> 0.75 raises the envelope RMS by about half
        assert 30.0 < table["EMG RMS [MVC]"] < 70.0

    def test_identical_baseline_gives_zero_change(self, metrics_files, tmp_path):
        base, _ = metrics_files
        out = tmp_path / "cmp0.csv"
        run_cli("compare", "--baseline", str(base), str(base), "--out", str(out))
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[1]) == pytest.approx(0.0, abs=1e-9)

    def test_mismatched_columns_is_data_error(self, metrics_files, tmp_path):
        base, _ = metrics_files
        bad = tmp_path / "bad.csv"
        bad.write_text("trial,apples [kg]\nx,1.0\n")
        assert run_cli("compare", "--baseline", str(base), str(bad)) == 2

    @pytest.mark.parametrize("cells", [("0.0", "0.0"), ("1.0", "-1.0"), ("nan", "1.0")])
    def test_zero_baseline_is_one_line_data_error(self, tmp_path, capsys, cells):
        base = tmp_path / "zero.csv"
        base.write_text(f"trial,a,b\nx,{cells[0]},1.0\ny,{cells[1]},2.0\n")
        other = tmp_path / "other.csv"
        other.write_text("trial,a,b\nz,1.0,3.0\n")
        capsys.readouterr()
        assert run_cli("compare", "--baseline", str(base), str(other)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and "'a'" in err[0]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["baseline", "other"])
    def test_non_finite_cell_is_one_line_data_error(self, tmp_path, capsys, cell, side):
        good = tmp_path / "good.csv"
        good.write_text("trial,a,b\nx,1.0,2.0\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(f"trial,a,b\nx,1.0,2.0\n\ny,3.0,{cell}\n")
        base, other = (bad, good) if side == "baseline" else (good, bad)
        capsys.readouterr()
        assert run_cli("compare", "--baseline", str(base), str(other)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gaitassist: data error: {bad}: non-finite 'b' in data row 2\n"

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning would be more stderr lines
    @pytest.mark.parametrize("side", ["baseline", "other"])
    def test_overflowing_mean_is_one_line_data_error(self, tmp_path, capsys, side):
        big = tmp_path / "big.csv"
        big.write_text("trial,a,b\nx,1.7e308,1.0\ny,1.7e308,2.0\n")
        good = tmp_path / "good.csv"
        good.write_text("trial,a,b\nz,1.0,3.0\n")
        base, other = (big, good) if side == "baseline" else (good, big)
        capsys.readouterr()
        assert run_cli("compare", "--baseline", str(base), str(other)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        mean = "baseline mean" if side == "baseline" else "mean"
        assert captured.err == (
            f"gaitassist: data error: {big}: {mean} of 'a' is inf, "
            "so its percent change is undefined\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_overflowing_percent_change_is_one_line_data_error(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("trial,a\nx,1e-300\n")
        huge = tmp_path / "huge.csv"
        huge.write_text("trial,a\nx,1e10\n")
        capsys.readouterr()
        assert run_cli("compare", "--baseline", str(tiny), str(huge)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gaitassist: data error: {huge}: percent change of 'a' overflows\n"

    def test_missing_baseline_is_data_error(self, tmp_path):
        assert run_cli("compare", "--baseline", str(tmp_path / "none.csv"), "x.csv") == 2


_SUBCOMMANDS = ("simulate", "run", "analyze", "compare")
_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _child_env() -> dict[str, str]:
    """Environment whose PYTHONPATH starts at the imported ``gaitassist`` copy."""
    root = str(Path(gaitassist.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def _help_output(argv: list[str]) -> str:
    result = subprocess.run(argv, capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr
    for command in _SUBCOMMANDS:
        assert command in result.stdout
    return result.stdout


def test_console_script_and_module_entry():
    module_help = _help_output([sys.executable, "-m", "gaitassist", "--help"])

    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with _PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gaitassist"]
    module, _, func = target.partition(":")
    # What the console-script wrapper generated at install time runs.
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    script_help = _help_output([sys.executable, "-c", wrapper, "--help"])
    assert script_help == module_help


@pytest.mark.skipif(
    shutil.which("gaitassist") is None, reason="gaitassist console script not installed"
)
def test_installed_console_script():
    module_help = _help_output([sys.executable, "-m", "gaitassist", "--help"])
    assert _help_output(["gaitassist", "--help"]) == module_help
