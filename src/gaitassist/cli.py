"""Command-line entry points: simulate, run, analyze, compare.

A run is computed whole, as fast as the host allows. `--realtime` does not
stream: it then sleeps until the trial's duration has passed on the wall
clock, and the outputs are the same bytes as without it.

Exit codes: 0 on success, 1 for usage errors (bad flags or parameters),
2 for data errors (missing or malformed inputs).

Configuration comes from defaults, then an optional `key = value` config
file, then explicit flags, in that order of precedence. Flags and config
values parse alike, by `settings.parse_value`. Every effective value is
echoed into the output manifest.

Each command imports the layers it uses when it runs, so `compare`, `--help`
and a usage error start without numpy.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
import time
from dataclasses import astuple, fields
from functools import reduce
from importlib import import_module
from operator import add
from pathlib import Path

from .errors import DataFormatError, GaitAssistError, InvalidSpecError
from .settings import (
    MIN_SWING_TICKS, ChannelRates, ControllerConfig, DetectionMode, FsrDetectorConfig,
    GaitParams, VelDetectorConfig, format_named_rows, format_value, parse_value, read_manifest,
    read_metrics_csv, write_manifest,
)

_USAGE_EXIT = 1
_DATA_EXIT = 2
# The layer functions that perfbench/spans.py reads and replaces on this
# module, and their modules. The commands call them through `_layer`, so they
# call whatever this module holds under the name.
_LAYER_OF = {"run_trial": "runner", "generate": "simgait", "load_trial": "trial_io",
             "save_trial": "trial_io", "emg_envelope": "signals"}


def _layer(name: str):
    """This module's `name`, one of _LAYER_OF: bound to the layer's function,
    imported now, unless the module already holds a value under it."""
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name not in globals():
        globals()[name] = getattr(import_module(f"{__package__}.{_LAYER_OF[name]}"), name)
    return globals()[name]


__getattr__ = _layer  # a lookup from outside binds the name too (PEP 562)


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
_CADENCE_LIMIT = f"--cadence is at most (1 - stance-fraction) * control-rate / {MIN_SWING_TICKS}"
# the field that declares the range of each settings key but duration_s and mode
_FIELDS = {f.name: f for cls in (ChannelRates, GaitParams, *_RUN_CONFIGS) for f in fields(cls)}


def _build_trial(settings: dict):
    """The `TrialLog` that `generate` makes from the simulation settings."""
    params, rates = _build_config(GaitParams, settings), _build_config(ChannelRates, settings)
    return _layer("generate")(params, settings["duration_s"], rates)


def cmd_simulate(args: argparse.Namespace) -> int:
    (settings,) = _settings(args, _SIM_DEFAULTS)
    log = _build_trial(settings)
    out = _layer("save_trial")(log, args.out)
    print(
        f"wrote trial to {out}: {log.n_ticks} ticks at "
        f"{log.rates.control_rate_hz:g} Hz, seed {log.params.seed}"
    )
    return 0


def _write_score(path: Path, score) -> None:
    """Write a run's `DetectionScore` to `path` as a manifest."""
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

    from .signals import envelope_decimation
    from .trial_io import TORQUE_COLS, format_rows, write_events_csv, write_labels_csv, write_table

    if args.simulate:
        log = _build_trial(sim_settings)
        input_desc = "simulate"
    else:
        log = _layer("load_trial")(args.trial)
        input_desc = str(args.trial)
        try:  # a rate the trial format holds but the control envelope refuses
            envelope_decimation(log.rates.emg_rate_hz, log.rates.control_rate_hz)
        except InvalidSpecError as exc:
            raise DataFormatError(f"manifest.txt: {exc}") from None

    start = time.monotonic()
    result = _layer("run_trial")(log, mode, controller_cfg, fsr_cfg, vel_cfg)
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
        _write_score(out / "score.txt", result.score)

    if args.print_torque:
        sys.stdout.writelines(block.decode("ascii") for block in format_rows(*torque))

    summary = f"ran {mode.value} over {log.n_ticks} ticks -> {out}"
    if result.score is not None:
        summary += f" (phase accuracy {result.score.phase_accuracy:.4f})"
    print(summary)
    return 0


def compute_trial_metrics(log):
    """The `TrialMetrics` of one `TrialLog`; uses truth events when present."""
    import numpy as np

    from . import gait_fsr
    from .gait import Foot
    from .metrics import TrialMetrics, cadence, percentile, rms, rom, stride_length

    env = _layer("emg_envelope")(log.emg)
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
    from .metrics import METRIC_COLUMNS

    failures: list[str] = []
    rows: list[tuple[str, tuple[float, ...]]] = []
    for path in args.trials:
        try:
            metrics = compute_trial_metrics(_layer("load_trial")(path))  # one trial alive at a time
            rows.append((Path(path).name, astuple(metrics)))
        except (GaitAssistError, OSError, ValueError) as exc:
            failures.append(f"{path}: {exc}")

    if failures:
        for line in failures:
            print(f"analyze: {line}", file=sys.stderr)
        return _DATA_EXIT

    table = format_named_rows(["trial", *METRIC_COLUMNS], rows)
    _emit(table, args.out, f"metrics for {len(rows)} trial(s)")
    return 0


def _pairwise_sum(values: tuple[float, ...]) -> float:
    """numpy's pairwise sum of `values`, rounding for rounding: below 8
    values in order; up to 128, eight running sums, added as a tree, then
    the rest in order; past 128, the two halves, cut at a multiple of 8."""
    n = len(values)
    rest = n - n % 8
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    if n < 8:
        return reduce(add, values, 0.0)
    r = [reduce(add, values[j:rest:8]) for j in range(8)]
    tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, values[rest:], tree)


def _column_means(rows: list[list[float]]) -> list[float]:
    """Each column's mean as numpy's `mean(axis=0)` of `rows` gives it, bit
    for bit: numpy adds each row to sums that start at 0.0, but sums a lone
    column pairwise; each sum is then divided by the row count."""
    columns = list(zip(*rows))
    if len(columns) == 1:
        return [(0.0 + _pairwise_sum(columns[0])) / len(rows)]
    return [reduce(add, column, 0.0) / len(rows) for column in columns]


def cmd_compare(args: argparse.Namespace) -> int:
    base_cols, base_rows = read_metrics_csv(args.baseline)
    base_means = _column_means(base_rows)
    for col, mean in zip(base_cols, base_means):
        if mean == 0.0 or not math.isfinite(mean):
            raise DataFormatError(
                f"{args.baseline}: baseline mean of {col!r} is {mean:g}, "
                "so its percent change is undefined"
            )
    names: list[str] = []
    changes: list[list[float]] = []
    for path in args.others:
        cols, rows = read_metrics_csv(path)
        if cols != base_cols:
            raise DataFormatError(
                f"{path}: metric columns {cols} do not match baseline {base_cols}"
            )
        change = []
        for col, mean, base in zip(cols, _column_means(rows), base_means):
            if not math.isfinite(mean):
                raise DataFormatError(
                    f"{path}: mean of {col!r} is {mean:g}, so its percent change is undefined"
                )
            percent = 100.0 * (mean - base) / base  # overflows to inf, as numpy did quietly
            if not math.isfinite(percent):
                raise DataFormatError(f"{path}: percent change of {col!r} overflows")
            change.append(percent)
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
    p_sim.epilog = p_run.epilog = _CADENCE_LIMIT

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
    except BrokenPipeError:
        raise  # stdout's reader has gone: no data error; `__main__.main` ends quietly
    except (DataFormatError, OSError) as exc:
        print(f"{parser.prog}: data error: {exc}", file=sys.stderr)
        return _DATA_EXIT

