"""Command-line entry points: simulate, run, analyze, compare.

Offline by default: a simulated clock advances one control period per tick,
so runs complete as fast as the host allows; `--realtime` paces the same
loop against the wall clock without changing a single computed value.

Exit codes: 0 on success, 1 for usage errors (bad flags or parameters),
2 for data errors (missing or malformed inputs).

Configuration comes from defaults, then an optional `key = value` config
file, then explicit flags, in that order of precedence. Flags and config
values parse alike, by `trial_io.parse_value`. Every effective value is
echoed into the output manifest.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
import time
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import gait_fsr
from .controller import ControllerConfig
from .errors import DataFormatError, GaitAssistError, InvalidSpecError
from .gait import Foot
from .gait_fsr import FsrDetectorConfig
from .gait_vel import VelDetectorConfig
from .metrics import METRIC_COLUMNS, TrialMetrics, cadence, percentile, rms, rom, stride_length
from .runner import DetectionMode, RunResult, run_trial
from .signals import emg_envelope, envelope_decimation
from .simgait import ChannelRates, GaitParams, TrialLog, generate
from .trial_io import (
    TORQUE_COLS,
    format_named_rows,
    format_rows,
    format_value,
    load_trial,
    parse_value,
    read_manifest,
    read_metrics_csv,
    save_trial,
    write_events_csv,
    write_labels_csv,
    write_manifest,
    write_table,
)

_USAGE_EXIT = 1
_DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse, but usage failures exit with code 1."""

    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _settings(args: argparse.Namespace, *defaults: dict) -> list[dict]:
    """A copy of each dict of `defaults`, overridden by the --config file's
    values, then by the flags', each parsed by `parse_value`. A config key
    that none of `defaults` holds is refused."""
    config = {} if args.config is None else read_manifest(Path(args.config))
    for key in config:
        if not any(key in keys for keys in defaults):
            raise InvalidSpecError(f"unknown config key {key!r}")
    merged = []
    for keys in defaults:
        values = dict(keys)
        for source in (config, vars(args)):
            for key, raw in source.items():
                if key in keys and raw is not None:
                    values[key] = parse_value(key, raw, keys[key])
        merged.append(values)
    return merged


def _build_config(cls, settings: dict):
    """An instance of the dataclass `cls` from its fields in `settings`."""
    return cls(**{f.name: settings[f.name] for f in fields(cls)})


def _add_flags(parser: argparse.ArgumentParser, defaults: dict) -> None:
    """One flag per settings key, named after it without its unit suffix:
    `duration_s` is `--duration`, `ramp_rate_nm_s` is `--ramp-rate`. Its help
    shows the default and the range that the key's field declares."""
    for key, default in defaults.items():
        flag = re.sub(r"_(hz|m_s|rad_s|nm_s|nm|n|s|samples)$", "", key).replace("_", "-")
        shown = f"default {format_value(default)}"
        if key in _FIELDS:
            shown += f", range {_FIELDS[key].metadata['range']}"
        elif key == "mode":
            shown += f", one of {_MODES}"
        parser.add_argument(f"--{flag}", dest=key, help=shown)


_SIM_DEFAULTS = {
    "duration_s": 60.0,
    **{f.name: f.default for cls in (ChannelRates, GaitParams) for f in fields(cls)},
}
_RUN_CONFIGS = (ControllerConfig, FsrDetectorConfig, VelDetectorConfig)
_RUN_DEFAULTS = {
    "mode": DetectionMode.FOOT_SENSORS.value,
    **{f.name: f.default for cls in _RUN_CONFIGS for f in fields(cls)},
}
_MODES = ", ".join(m.value for m in DetectionMode)
# the field that declares the range of each settings key but duration_s and mode
_FIELDS = {f.name: f for cls in (ChannelRates, GaitParams, *_RUN_CONFIGS) for f in fields(cls)}


def _build_trial(settings: dict) -> TrialLog:
    params = _build_config(GaitParams, settings)
    return generate(params, settings["duration_s"], _build_config(ChannelRates, settings))


def cmd_simulate(args: argparse.Namespace) -> int:
    (settings,) = _settings(args, _SIM_DEFAULTS)
    log = _build_trial(settings)
    out = save_trial(log, args.out)
    print(
        f"wrote trial to {out}: {log.n_ticks} ticks at "
        f"{log.rates.control_rate_hz:g} Hz, seed {log.params.seed}"
    )
    return 0


def _write_score(path: Path, result: RunResult) -> None:
    score = result.score
    assert score is not None
    entries = [
        ("phase_accuracy", score.phase_accuracy),
        ("recall", score.recall),
        ("spurious_total", score.total_spurious),
    ]
    for kind, s in score.by_kind.items():
        entries += [(f"{kind.value}.{f.name}", getattr(s, f.name)) for f in fields(s)]
    write_manifest(path, entries)


def cmd_run(args: argparse.Namespace) -> int:
    run_settings, sim_settings = _settings(args, _RUN_DEFAULTS, _SIM_DEFAULTS)
    try:
        mode = DetectionMode(run_settings["mode"])
    except ValueError:
        raise InvalidSpecError(f"setting 'mode' must be one of {_MODES}") from None
    controller_cfg, fsr_cfg, vel_cfg = (_build_config(c, run_settings) for c in _RUN_CONFIGS)
    if (args.trial is None) == (not args.simulate):
        raise InvalidSpecError("choose exactly one input: --trial DIR or --simulate")

    if args.simulate:
        log = _build_trial(sim_settings)
        input_desc = "simulate"
    else:
        log = load_trial(args.trial)
        input_desc = str(args.trial)
        try:  # a rate the trial format holds but the control envelope refuses
            envelope_decimation(log.rates.emg_rate_hz, log.rates.control_rate_hz)
        except InvalidSpecError as exc:
            raise DataFormatError(f"manifest.txt: {exc}") from None

    start = time.monotonic()
    result = run_trial(log, mode, controller_cfg, fsr_cfg, vel_cfg)
    if args.realtime:
        # pace output against the wall clock; values are already fixed
        remaining = log.duration_s - (time.monotonic() - start)
        if remaining > 0:
            time.sleep(remaining)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = [
        ("format", "gaitassist-run/1"),
        ("input", input_desc),
        ("n_ticks", log.n_ticks),
        ("control_rate_hz", log.rates.control_rate_hz),
        ("realtime", args.realtime),
        *run_settings.items(),
    ]
    if args.simulate:
        entries += [(f"sim.{key}", value) for key, value in sim_settings.items()]
    write_manifest(out / "run_manifest.txt", entries)

    torque = (result.t, result.tau_left, result.tau_right)
    write_table(out / "torque.csv", TORQUE_COLS, *torque)
    write_events_csv(out / "events.csv", result.events)
    write_labels_csv(out / "labels.csv", result.t, result.causal_phases)
    if result.score is not None:
        _write_score(out / "score.txt", result)

    if args.print_torque:
        sys.stdout.writelines(block.decode("ascii") for block in format_rows(*torque))

    summary = f"ran {mode.value} over {log.n_ticks} ticks -> {out}"
    if result.score is not None:
        summary += f" (phase accuracy {result.score.phase_accuracy:.4f})"
    print(summary)
    return 0


def compute_trial_metrics(log: TrialLog) -> TrialMetrics:
    """Trial-level outcome metrics from one log; uses truth events when present."""
    env = emg_envelope(log.emg)
    times = log.times()
    if log.truth is not None:
        events = log.truth.events
    else:
        # The insole detector starts in swing, so a foot already loaded on
        # the first tick reads as a heel strike there. That is the trial's
        # start, not a stride boundary: truth events likewise begin after it.
        detected = gait_fsr.detect(log.insole, times, FsrDetectorConfig())[0]
        events = detected[detected.t > times[0]]
    stride = stride_length(log.foot_xy, times, events)
    hip = float(np.mean([rom(log.hip_deg[f], times, events, f) for f in Foot]))
    knee = float(np.mean([rom(log.knee_deg[f], times, events, f) for f in Foot]))
    return TrialMetrics(
        emg_rms=rms(env.samples),
        emg_p90=percentile(env.samples, 90.0),
        stride_length_m=stride,
        hip_rom_deg=hip,
        knee_rom_deg=knee,
        speed_m_s=stride * cadence(events),
    )


def _emit(table: str, out: str | None, what: str) -> None:
    """Write `table`, which holds `what`, to the file `out` and say so, or to stdout."""
    if out:
        Path(out).write_text(table, encoding="utf-8")
        print(f"wrote {what} to {out}")
    else:
        sys.stdout.write(table)


def cmd_analyze(args: argparse.Namespace) -> int:
    failures: list[str] = []
    rows: list[tuple[str, tuple[float, ...]]] = []
    for path in args.trials:
        try:
            rows.append((Path(path).name, astuple(compute_trial_metrics(load_trial(path)))))
        except (GaitAssistError, OSError, ValueError) as exc:
            failures.append(f"{path}: {exc}")

    if failures:
        for line in failures:
            print(f"analyze: {line}", file=sys.stderr)
        return _DATA_EXIT

    table = format_named_rows(["trial", *METRIC_COLUMNS], rows)
    _emit(table, args.out, f"metrics for {len(rows)} trial(s)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    base_cols, base = read_metrics_csv(args.baseline)
    with np.errstate(over="ignore"):  # finite cells can overflow the sum: checked below
        base_mean = base.mean(axis=0)
    for col, mean in zip(base_cols, base_mean):
        if mean == 0.0 or not math.isfinite(mean):
            raise DataFormatError(
                f"{args.baseline}: baseline mean of {col!r} is {mean:g}, "
                "so its percent change is undefined"
            )
    names: list[str] = []
    changes: list[np.ndarray] = []
    for path in args.others:
        cols, vals = read_metrics_csv(path)
        if cols != base_cols:
            raise DataFormatError(
                f"{path}: metric columns {cols} do not match baseline {base_cols}"
            )
        with np.errstate(over="ignore"):
            means = vals.mean(axis=0)
            change = 100.0 * (means - base_mean) / base_mean
        for col, mean, percent in zip(cols, means, change):
            if not math.isfinite(mean):
                raise DataFormatError(
                    f"{path}: mean of {col!r} is {mean:g}, so its percent change is undefined"
                )
            if not math.isfinite(percent):
                raise DataFormatError(f"{path}: percent change of {col!r} overflows")
        names.append(Path(path).stem)
        changes.append(change)

    header = ["metric", *(f"{name} [%]" for name in names)]
    table = format_named_rows(header, zip(base_cols, zip(*changes)))
    _emit(table, args.out, f"comparison of {len(names)} file(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gaitassist", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic trial")
    p_sim.add_argument("--out", required=True, help="output trial directory")
    p_sim.add_argument("--config", default=None, help="key = value settings file")
    _add_flags(p_sim, _SIM_DEFAULTS)
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="detect gait and command torque over a trial")
    p_run.add_argument("--trial", default=None, help="input trial directory")
    p_run.add_argument(
        "--simulate", action="store_true", help="generate the input trial in memory"
    )
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--config", default=None, help="key = value settings file")
    p_run.add_argument("--realtime", action="store_true", help="pace against wall clock")
    p_run.add_argument(
        "--print-torque", action="store_true", help="also print torque rows to stdout"
    )
    _add_flags(p_run, _RUN_DEFAULTS)
    _add_flags(p_run, _SIM_DEFAULTS)
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="compute outcome metrics for trials")
    p_an.add_argument("trials", nargs="+", help="trial directories")
    p_an.add_argument("--out", default=None, help="metrics CSV path (default stdout)")
    p_an.set_defaults(func=cmd_analyze)

    p_cmp = sub.add_parser("compare", help="percent change of metrics versus a baseline")
    p_cmp.add_argument("--baseline", required=True, help="baseline metrics CSV")
    p_cmp.add_argument("others", nargs="+", help="metrics CSVs to compare")
    p_cmp.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidSpecError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (DataFormatError, OSError) as exc:
        print(f"{parser.prog}: data error: {exc}", file=sys.stderr)
        return _DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
