"""Command-line interface tests: subcommands, exit codes, artifacts."""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gaitassist
from gaitassist import cli
from gaitassist.cli import _RUN_DEFAULTS, _SIM_DEFAULTS, build_parser, main
from gaitassist.errors import DataFormatError
from gaitassist.simgait import ChannelRates, GaitParams
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


def with_manifest_value(trial_dir: Path, dst: Path, key: str, value: str) -> Path:
    """A copy of `trial_dir` whose manifest spells `key` as `value`."""
    shutil.copytree(trial_dir, dst)
    manifest = dst / "manifest.txt"
    lines = manifest.read_text().splitlines()
    assert sum(line.startswith(f"{key} = ") for line in lines) == 1
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines]
    manifest.write_text("\n".join(lines) + "\n")
    return dst


# a manifest value, and the message that refuses it
MANIFEST_CASES = [
    ("control_rate_hz", "0", "control_rate_hz must be finite and positive"),
    ("control_rate_hz", "-1", "control_rate_hz must be finite and positive"),
    ("seed", "1.5", "setting 'seed': '1.5' is not a valid int"),
    ("mvc_mv", "0", "mvc_mv must be finite and positive"),
    ("mvc_mv", "nan", "mvc_mv must be finite and positive"),
    ("mvc_mv", "-1", "mvc_mv must be finite and positive"),
    ("mvc_mv", "inf", "mvc_mv must be finite and positive"),
    ("mvc_mv", "abc", "setting 'mvc_mv': 'abc' is not a valid float"),
    ("n_ticks", "abc", "setting 'n_ticks': 'abc' is not a valid int"),
    ("seed", "abc", "setting 'seed': 'abc' is not a valid int"),
    ("has_truth", "True", "setting 'has_truth': 'True' is not a valid bool"),
    ("has_truth", "1", "setting 'has_truth': '1' is not a valid bool"),
    *(
        ("duration_s", value, f"duration_s {value} does not match "
         "n_ticks / control_rate_hz = 10.000000")
        for value in ("99.000000", "10.000002", "nan")
    ),
    ("duration_s", "abc", "setting 'duration_s': 'abc' is not a valid float"),
    ("channels", "omega", "channels 'omega' do not match has_truth = true, which lists "
     "'omega,insole_left,insole_right,emg,kinematics,truth_labels,truth_events'"),
    *(
        (f.name, "abc", f"setting {f.name!r}: 'abc' is not a valid float")
        for cls in (ChannelRates, GaitParams)
        for f in fields(cls)
        if f.name != "seed"
    ),
]


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

    @pytest.mark.parametrize("command", [["simulate"], ["run", "--simulate"]])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_one_line_usage_error(self, tmp_path, capsys, command, source):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -3\n")
        extra = ["--seed", "-1"] if source == "flag" else ["--config", str(cfg)]
        out = tmp_path / "x"
        capsys.readouterr()
        code = run_cli(*command, "--out", str(out), "--duration", "10", *extra)
        assert code == 1
        assert capsys.readouterr().err == (
            "gaitassist: error: seed must be a whole number in [0, inf)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", [["simulate"], ["run", "--simulate"]])
    def test_trial_without_a_control_tick_is_one_line_usage_error(
        self, tmp_path, capsys, command
    ):
        out = tmp_path / "x"
        capsys.readouterr()
        code = run_cli(
            *command, "--out", str(out), "--duration", "10", "--control-rate", "0.01"
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "gaitassist: error: duration 10.0 s holds no control tick at 0.01 Hz\n"
        )
        assert not out.exists()

    # each refused before generate allocates an array or starts its truth loop
    @pytest.mark.parametrize("command", [["simulate"], ["run", "--simulate"]])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--duration", "1e9"],
                "duration_s 1e+09 and control_rate_hz make 1e+11 control ticks, "
                "more than 1,000,000",
            ),
            (
                ["--duration", "10", "--control-rate", "1e300"],
                "duration_s 10 and control_rate_hz make 1e+301 control ticks, "
                "more than 1,000,000",
            ),
            (
                ["--duration", "10", "--emg-rate", "1e306"],
                "duration_s 10 and emg_rate_hz make 1e+307 EMG samples, more than 10,000,000",
            ),
            (
                ["--duration", "60", "--cadence", "1e6"],
                "duration_s 60 and cadence_hz make 1.2e+08 truth events, more than 100,000",
            ),
        ],
    )
    def test_oversized_trial_is_one_line_usage_error(
        self, tmp_path, capsys, command, flags, message
    ):
        out = tmp_path / "x"
        capsys.readouterr()
        code = run_cli(*command, "--out", str(out), *flags)
        assert code == 1
        assert capsys.readouterr().err == f"gaitassist: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["simulate"], ["run", "--simulate"]])
    @pytest.mark.parametrize(
        "rate, message",
        [
            ("1000.0001", "cannot decimate 1000.0001 Hz to 100.0 Hz by an integer factor"),
            ("500", "EMG rate 500.0 Hz too low; the 400.0 Hz band edge needs at least 800.0 Hz"),
        ],
    )
    def test_emg_rate_the_control_envelope_refuses_is_one_line_usage_error(
        self, tmp_path, capsys, monkeypatch, command, rate, message
    ):
        from gaitassist import simgait

        def no_synthesis(*args):
            raise AssertionError("the EMG was synthesized")

        monkeypatch.setattr(simgait, "_synth_emg", no_synthesis)
        out = tmp_path / "x"
        capsys.readouterr()
        code = run_cli(*command, "--out", str(out), "--duration", "10", "--emg-rate", rate)
        assert code == 1
        assert capsys.readouterr().err == f"gaitassist: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["simulate"], ["run", "--simulate"]])
    @pytest.mark.parametrize("cadence", ["10.000001", "20", "30", "100"])
    def test_cadence_past_the_swing_limit_is_one_line_usage_error(
        self, tmp_path, capsys, command, cadence
    ):
        # at the default stance fraction 0.6 and 100 Hz the limit is 0.4 * 100 / 4 = 10 Hz
        out = tmp_path / "x"
        capsys.readouterr()
        assert run_cli(*command, "--out", str(out), "--duration", "10", "--cadence", cadence) == 1
        assert capsys.readouterr().err == (
            f"gaitassist: error: cadence_hz {float(cadence):g} leaves a swing under 4 control"
            " ticks; at most (1 - stance_fraction) * control_rate_hz / 4 = 10\n"
        )
        assert not out.exists()

    def test_cadence_at_the_swing_limit_runs_and_scores(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--simulate", "--duration", "10", "--cadence", "10", "--out", str(out)) == 0
        accuracy = float(read_manifest(out / "score.txt")["phase_accuracy"])
        assert 0.0 < accuracy <= 1.0

    @pytest.mark.parametrize("command", ["simulate", "run"])
    def test_help_shows_the_cadence_limit(self, capsys, command):
        assert run_cli(command, "--help") == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--cadence is at most (1 - stance-fraction) * control-rate / 4" in text

    def test_off_grid_duration_writes_a_trial_that_run_and_analyze_read(self, tmp_path):
        trial = tmp_path / "t"
        assert run_cli("simulate", "--out", str(trial), "--duration", "10.006", "--seed", "1") == 0
        assert int(read_manifest(trial / "manifest.txt")["n_ticks"]) == 1001
        assert len((trial / "emg.csv").read_text().splitlines()) == 1 + 10_010
        assert run_cli("run", "--trial", str(trial), "--out", str(tmp_path / "run")) == 0
        assert run_cli("analyze", str(trial), "--out", str(tmp_path / "m.csv")) == 0


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
        "key, value, message", MANIFEST_CASES, ids=[f"{k}-{v}" for k, v, _ in MANIFEST_CASES]
    )
    def test_bad_manifest_value_is_one_line_data_error(
        self, trial_dir, tmp_path, capsys, key, value, message
    ):
        broken = with_manifest_value(trial_dir, tmp_path / "broken", key, value)
        for command in ("run", "analyze"):
            capsys.readouterr()
            if command == "run":
                code = run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o"))
                prefix = "gaitassist: data error: "
            else:
                code = run_cli("analyze", str(broken))
                prefix = f"analyze: {broken}: "
            assert code == 2
            assert capsys.readouterr().err == f"{prefix}manifest.txt: {message}\n"
        assert not (tmp_path / "o").exists()

    # refused in the manifest block, before a table is read or an array allocated
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("emg_rate_hz", "1e308", "n_ticks 1000 and emg_rate_hz make inf EMG samples"),
            ("n_ticks", "1" + "0" * 400, "int too large to convert to float"),
        ],
        ids=["emg_rate_hz-1e308", "n_ticks-1e400"],
    )
    def test_uncountable_manifest_value_is_one_line_data_error(
        self, trial_dir, tmp_path, capsys, monkeypatch, key, value, message
    ):
        from gaitassist import trial_io

        def no_table(path, *args):
            raise AssertionError(f"{path.name} was read")

        broken = with_manifest_value(trial_dir, tmp_path / "broken", key, value)
        monkeypatch.setattr(trial_io, "_read_table", no_table)
        capsys.readouterr()
        assert run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"gaitassist: data error: manifest.txt: {message}\n"
        assert run_cli("analyze", str(broken)) == 2
        assert capsys.readouterr().err == f"analyze: {broken}: manifest.txt: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_emg_rate_off_the_control_grid_is_a_data_error_for_run_only(
        self, trial_dir, tmp_path, capsys
    ):
        # load_trial takes the rate, which the zero-phase metrics envelope
        # reads at any rate; the control envelope keeps every k-th sample
        broken = with_manifest_value(trial_dir, tmp_path / "broken", "emg_rate_hz", "1000.000100")
        message = "cannot decimate 1000.0001 Hz to 100.0 Hz by an integer factor"
        capsys.readouterr()
        assert run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"gaitassist: data error: manifest.txt: {message}\n"
        assert not (tmp_path / "o").exists()
        assert run_cli("analyze", str(broken), "--out", str(tmp_path / "m.csv")) == 0
        capsys.readouterr()
        flags = ["--simulate", "--duration", "10", "--emg-rate", "1000.0001"]
        assert run_cli("run", *flags, "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"gaitassist: error: {message}\n"

    def test_duration_within_printing_tolerance_loads(self, trial_dir, tmp_path):
        edited = with_manifest_value(trial_dir, tmp_path / "edited", "duration_s", "10.0000009")
        assert load_trial(edited).duration_s == 10.0

    @pytest.mark.parametrize("key", ["duration_s", "channels", "has_truth"])
    def test_missing_manifest_key_is_one_line_data_error(self, trial_dir, tmp_path, capsys, key):
        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        manifest = broken / "manifest.txt"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines if not line.startswith(f"{key} = ")))
        capsys.readouterr()
        assert run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err == f"gaitassist: data error: manifest is missing key {key!r}\n"

    TRIAL_TABLES = [
        "omega.csv", "insole_left.csv", "insole_right.csv", "emg.csv", "kinematics.csv",
        "truth_labels.csv", "truth_events.csv",
    ]

    @pytest.mark.parametrize("cell", ["nan", "1e400"])
    @pytest.mark.parametrize("name", TRIAL_TABLES)
    def test_non_finite_t_s_is_one_line_naming_the_data_row(
        self, trial_dir, tmp_path, capsys, name, cell
    ):
        """Every table a trial holds is checked alike; `1e400` reads as inf."""
        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        lines = (broken / name).read_text().splitlines()
        cells = lines[5].split(",")
        cells[0] = cell
        lines[5] = ",".join(cells)
        (broken / name).write_text("\n".join(lines) + "\n")
        for command in ("run", "analyze"):
            capsys.readouterr()
            if command == "run":
                code = run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o"))
                prefix = "gaitassist: data error: "
            else:
                code = run_cli("analyze", str(broken))
                prefix = f"analyze: {broken}: "
            assert code == 2
            assert capsys.readouterr().err == f"{prefix}{name}: non-finite 't_s' in data row 5\n"

    @pytest.mark.parametrize(
        "mutation, problem",
        [
            ("duplicated-row", "not strictly increasing"),
            ("swapped-rows", "not strictly increasing"),
            ("repeated-kind", "duplicated"),
        ],
    )
    def test_truth_events_that_do_not_alternate_are_one_line_data_error(
        self, trial_dir, tmp_path, capsys, mutation, problem
    ):
        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        events = broken / "truth_events.csv"
        lines = events.read_text().splitlines(keepends=True)
        if mutation == "duplicated-row":
            lines.insert(5, lines[5])
        elif mutation == "swapped-rows":  # the first two events of one foot
            i, j = [k for k in range(1, len(lines)) if ",left," in lines[k]][:2]
            lines[i], lines[j] = lines[j], lines[i]
        else:
            row = next(k for k in range(2, len(lines)) if ",heel_strike" in lines[k])
            lines[row] = lines[row].replace("heel_strike", "toe_off")
        events.write_text("".join(lines))
        for command in ("run", "analyze"):
            capsys.readouterr()
            if command == "run":
                code = run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o"))
            else:
                code = run_cli("analyze", str(broken))
            err = capsys.readouterr().err.splitlines()
            assert code == 2
            assert len(err) == 1 and "truth_events.csv: " in err[0] and problem in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "analyze"])
    @pytest.mark.parametrize("n_ticks", ["-5", "0"])
    def test_non_positive_n_ticks_is_one_line_data_error(
        self, trial_dir, tmp_path, capsys, command, n_ticks
    ):
        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        manifest = broken / "manifest.txt"
        text = manifest.read_text()
        assert "n_ticks = 1000\n" in text
        manifest.write_text(text.replace("n_ticks = 1000\n", f"n_ticks = {n_ticks}\n"))
        capsys.readouterr()
        if command == "run":
            code = run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o"))
            prefix = "gaitassist: data error: "
        else:
            code = run_cli("analyze", str(broken))
            prefix = f"analyze: {broken}: "
        assert code == 2
        assert capsys.readouterr().err == (
            f"{prefix}manifest.txt: n_ticks must be positive, got {n_ticks}\n"
        )

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

    @pytest.mark.parametrize("state", ["double_stance_extra_long_name", "walking"])
    def test_unknown_gait_state_is_quoted_whole(self, trial_dir, tmp_path, capsys, state):
        broken = tmp_path / "broken"
        shutil.copytree(trial_dir, broken)
        labels = broken / "truth_labels.csv"
        lines = labels.read_text().splitlines()
        t_s, _, left, right = lines[5].split(",")
        lines[5] = ",".join([t_s, state, left, right])
        labels.write_text("\n".join(lines) + "\n")
        message = f"truth_labels.csv: unknown gait_state {state!r} in data row 5"
        capsys.readouterr()
        assert run_cli("run", "--trial", str(broken), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"gaitassist: data error: {message}\n"
        assert run_cli("analyze", str(broken)) == 2
        assert capsys.readouterr().err == f"analyze: {broken}: {message}\n"

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


@pytest.mark.parametrize("command", ["simulate", "run"])
@pytest.mark.parametrize("broken", ["missing", "non-utf8"])
def test_unreadable_config_is_one_line_data_error(trial_dir, tmp_path, capsys, command, broken):
    cfg = tmp_path / "cfg.txt"
    if broken == "non-utf8":
        cfg.write_bytes(b"seed = 1\n\xff\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "run":
        argv += ["--trial", str(trial_dir)]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == "gaitassist: data error: " + (
        f"missing file: {cfg}\n"
        if broken == "missing"
        else "cfg.txt: byte 0xff is not UTF-8 (invalid start byte)\n"
    )
    assert not (tmp_path / "o").exists()


def _flags(command: str) -> dict[str, list[str]]:
    """Option strings of one subcommand, by the settings key they set."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags: dict[str, list[str]] = {}
    for action in sub.choices[command]._actions:
        flags.setdefault(action.dest, []).extend(action.option_strings)
    return flags


class TestFlags:
    SIM_FLAGS = {
        "--cadence", "--control-rate", "--duration", "--emg-level", "--emg-rate",
        "--load-peak", "--noise-sigma", "--omega-amp", "--seed", "--speed",
        "--stance-fraction",
    }
    RUN_FLAGS = {
        "--contact-threshold", "--k-myo", "--k-stance", "--k-swing", "--min-event-gap",
        "--min-phase", "--mode", "--peak-confirm", "--peak-min", "--ramp-rate",
        "--release-threshold", "--zero-hysteresis",
    }
    COMMON = {"-h", "--help", "--out", "--config"}

    def test_simulate_and_run_keep_their_flag_strings(self):
        simulate = {flag for flags in _flags("simulate").values() for flag in flags}
        run = {flag for flags in _flags("run").values() for flag in flags}
        assert simulate == self.COMMON | self.SIM_FLAGS
        assert run == self.COMMON | self.SIM_FLAGS | self.RUN_FLAGS | {
            "--trial", "--simulate", "--realtime", "--print-torque"
        }

    @pytest.mark.parametrize(
        "command, defaults",
        [("simulate", [_SIM_DEFAULTS]), ("run", [_RUN_DEFAULTS, _SIM_DEFAULTS])],
    )
    def test_every_settings_key_has_exactly_one_flag(self, command, defaults):
        flags = _flags(command)
        for keys in defaults:
            for key in keys:
                assert len(flags.get(key, [])) == 1, key

    def test_unlimited_gain_flag_is_one_line_usage_error_like_config(
        self, trial_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "unlimited.cfg"
        cfg.write_text("k_myo_nm = unlimited\n")
        errs = []
        for extra in (["--k-myo", "unlimited"], ["--config", str(cfg)]):
            capsys.readouterr()
            code = run_cli("run", "--trial", str(trial_dir), "--out", str(tmp_path / "o"), *extra)
            assert code == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == (
            "gaitassist: error: k_myo_nm must be finite and non-negative\n"
        )
        assert not (tmp_path / "o").exists()

    def test_run_settings_are_checked_before_the_trial(self, tmp_path, capsys, monkeypatch):
        def no_trial(*args):
            raise AssertionError("trial built before the run settings were checked")

        monkeypatch.setattr(cli, "generate", no_trial)
        monkeypatch.setattr(cli, "load_trial", no_trial)
        for source in (["--simulate", "--duration", "300"], ["--trial", str(tmp_path / "none")]):
            capsys.readouterr()
            assert run_cli("run", *source, "--out", str(tmp_path / "o"), "--k-stance", "nan") == 1
            assert capsys.readouterr().err == (
                "gaitassist: error: k_stance must be finite and non-negative\n"
            )


INT_KEYS = ("seed", "peak_confirm_samples")
SETTINGS_KEYS = sorted({*_SIM_DEFAULTS, *_RUN_DEFAULTS} - {"mode"})


def _unparsable(key: str) -> tuple[str, str]:
    """A value of the settings key `key` that does not parse for its type,
    and the one line that refuses it."""
    raw, kind = ("2.5", "int") if key in INT_KEYS else ("abc", "float")
    return raw, f"gaitassist: error: setting {key!r}: {raw!r} is not a valid {kind}\n"


class TestUnparsableSettings:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key", SETTINGS_KEYS)
    def test_is_one_line_usage_error_naming_the_key(self, tmp_path, capsys, key, source):
        command = ["simulate"] if key in _SIM_DEFAULTS else ["run", "--simulate"]
        self.check(tmp_path, capsys, key, source, command)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key", sorted(_SIM_DEFAULTS))
    def test_simulation_setting_is_parsed_with_a_trial_input(
        self, trial_dir, tmp_path, capsys, key, source
    ):
        """The trial ignores simulation settings, but they must still parse:
        a config value that does not exited 0 before flags and config
        values shared one parser."""
        self.check(tmp_path, capsys, key, source, ["run", "--trial", str(trial_dir)])

    @staticmethod
    def check(tmp_path, capsys, key, source, command):
        raw, line = _unparsable(key)
        if source == "flag":
            extra = [_flags(command[0])[key][0], raw]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{key} = {raw}\n")
            extra = ["--config", str(cfg)]
        out = tmp_path / "o"
        capsys.readouterr()
        assert run_cli(*command, "--out", str(out), *extra) == 1
        assert capsys.readouterr().err == line
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--peak-confirm", "2.5", "setting 'peak_confirm_samples': '2.5' is not a valid int"),
            ("--k-myo", "abc", "setting 'k_myo_nm': 'abc' is not a valid float"),
            ("--control-rate", "-1", "control_rate_hz must be finite and positive"),
            ("--emg-rate", "inf", "emg_rate_hz must be finite and positive"),
        ],
    )
    def test_flag_error_is_one_line_naming_the_key(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "o"
        capsys.readouterr()
        code = run_cli("run", "--simulate", "--duration", "10", "--out", str(out), flag, value)
        assert code == 1
        assert capsys.readouterr().err == f"gaitassist: error: {message}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
    def test_trial_name_that_breaks_the_table_is_refused(self, trial_dir, tmp_path, capsys, name):
        odd = tmp_path / name
        shutil.copytree(trial_dir, odd)
        out = tmp_path / "m.csv"
        capsys.readouterr()
        assert run_cli("analyze", str(odd), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"gaitassist: data error: {name!r} cannot name a table cell: "
            "it holds ',' or a line break\n"
        )
        assert not out.exists()

    def test_trial_without_truth_detects_its_own_events(self, trial_dir, tmp_path):
        truthless = tmp_path / "truthless"
        shutil.copytree(trial_dir, truthless)
        manifest = truthless / "manifest.txt"
        text = manifest.read_text()
        assert "has_truth = true\n" in text and ",truth_labels,truth_events\n" in text
        text = text.replace(",truth_labels,truth_events\n", "\n")
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

    def test_stdout_bytes_are_pinned(self, tmp_path, capsys):
        """Six decimals per percent change, `-0.000000` for a tiny drop, one
        `<stem> [%]` column per compared file."""
        files = {
            "base": "trial,a [m],b,c\nx,1.0,2.0,1.0\ny,3.5,-4.25,1.0\n",
            "one": "trial,a [m],b,c\nz,2.0000005,-1.0,0.99999999999\n",
            "two-x": "trial,a [m],b,c\nw,1e6,0.1,1.0\nv,-3.0,1e-9,1.0\n",
        }
        for stem, text in files.items():
            (tmp_path / f"{stem}.csv").write_text(text)
        capsys.readouterr()
        argv = ["compare", "--baseline", str(tmp_path / "base.csv")]
        assert run_cli(*argv, str(tmp_path / "one.csv"), str(tmp_path / "two-x.csv")) == 0
        assert capsys.readouterr().out == (
            "metric,one [%],two-x [%]\n"
            "a [m],-11.111089,22222055.555556\n"
            "b,-11.111111,-104.444444\n"
            "c,-0.000000,0.000000\n"
        )

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

    def test_file_stem_that_breaks_the_header_is_refused(self, metrics_files, tmp_path, capsys):
        base, other = metrics_files
        odd = tmp_path / "x,y.csv"
        shutil.copyfile(other, odd)
        out = tmp_path / "cmp.csv"
        capsys.readouterr()
        assert run_cli("compare", "--baseline", str(base), str(odd), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gaitassist: data error: 'x,y [%]' cannot name a table cell: "
            "it holds ',' or a line break\n"
        )
        assert not out.exists()

    def test_missing_baseline_is_data_error(self, tmp_path):
        assert run_cli("compare", "--baseline", str(tmp_path / "none.csv"), "x.csv") == 2

    @pytest.mark.parametrize("side", ["baseline", "other"])
    @pytest.mark.parametrize("broken", ["missing", "non-utf8"])
    def test_unreadable_metrics_file_is_one_line_data_error(
        self, metrics_files, tmp_path, capsys, side, broken
    ):
        # the same words as every other reader: the path of a missing file,
        # the name of a file that is not UTF-8
        bad = tmp_path / "bad.csv"
        if broken == "non-utf8":
            bad.write_bytes(b"trial,a\nx,1.0\xff\n")
        base, other = (bad, metrics_files[1]) if side == "baseline" else (metrics_files[0], bad)
        capsys.readouterr()
        assert run_cli("compare", "--baseline", str(base), str(other)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gaitassist: data error: " + (
            f"missing file: {bad}\n"
            if broken == "missing"
            else "bad.csv: byte 0xff is not UTF-8 (invalid start byte)\n"
        )


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
