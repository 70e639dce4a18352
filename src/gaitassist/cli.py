"""Command-line entry points: simulate, run, analyze, compare.

Offline by default: a simulated clock advances one control period per tick,
so runs complete as fast as the host allows; `--realtime` paces the same
loop against the wall clock without changing a single computed value.

Exit codes: 0 on success, 1 for usage errors (bad flags or parameters),
2 for data errors (missing or malformed inputs).

Configuration comes from defaults, then an optional `key = value` config
file, then explicit flags, in that order of precedence. Every effective
value is echoed into the output manifest.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .controller import UNLIMITED, ControllerConfig
from .errors import DataFormatError, GaitAssistError, InvalidSpecError
from .gait import Foot
from .gait_fsr import FsrDetectorConfig, detect_fsr
from .gait_vel import VelDetectorConfig
from .metrics import TrialMetrics, cadence, percentile, rms, rom, stride_length
from .runner import DetectionMode, RunResult, run_trial
from .signals import emg_envelope
from .simgait import ChannelRates, GaitParams, TrialLog, generate
from .trial_io import (
    TORQUE_COLS,
    format_metrics_csv,
    format_rows,
    load_trial,
    parse_manifest,
    read_metrics_csv,
    save_trial,
    utf8_errors,
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


def _fmt(value: float | int | str | bool) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "unlimited" if math.isinf(value) else f"{value:.6f}"
    return str(value)


def _load_config_file(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise DataFormatError(f"config file not found: {p}")
    with utf8_errors(str(p)):
        return parse_manifest(p.read_text(encoding="utf-8"))


def _check_config_keys(config: dict[str, str], *key_sets: dict) -> None:
    known = set().union(*(set(ks) for ks in key_sets))
    for key in config:
        if key not in known:
            raise InvalidSpecError(f"unknown config key {key!r}")


def _merge(defaults: dict, config: dict[str, str], overrides: dict) -> dict:
    """defaults <- config file <- explicit flags; ignores out-of-scope keys."""
    merged = dict(defaults)
    for key, raw in config.items():
        if key in merged:
            kind = type(merged[key])
            try:
                merged[key] = _parse_float(raw) if kind is float else kind(raw)
            except ValueError:
                raise InvalidSpecError(
                    f"config key {key!r}: {raw!r} is not a valid {kind.__name__}"
                ) from None
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return merged


def _parse_float(raw: str) -> float:
    """A float, where 'unlimited' or 'inf' (any case) mean UNLIMITED."""
    return UNLIMITED if raw.lower() in ("unlimited", "inf") else float(raw)


def _build_config(cls, settings: dict, **fixed):
    """An instance of the dataclass `cls` from its fields in `settings`."""
    return cls(**{f.name: settings[f.name] for f in fields(cls) if f.name not in fixed}, **fixed)


_SIM_DEFAULTS = {
    "duration_s": 60.0,
    "control_rate_hz": ChannelRates.control_hz,
    "emg_rate_hz": ChannelRates.emg_hz,
    **{f.name: f.default for f in fields(GaitParams)},
}


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--duration", dest="duration_s", type=float, help="trial length, s")
    parser.add_argument("--cadence", dest="cadence_hz", type=float, help="strides per second")
    parser.add_argument("--stance-fraction", dest="stance_fraction", type=float)
    parser.add_argument("--speed", dest="speed_m_s", type=float, help="walking speed, m/s")
    parser.add_argument("--omega-amp", dest="omega_amp_rad_s", type=float)
    parser.add_argument("--load-peak", dest="load_peak_n", type=float)
    parser.add_argument("--emg-level", dest="emg_level", type=float)
    parser.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    parser.add_argument("--seed", dest="seed", type=int)
    parser.add_argument("--control-rate", dest="control_rate_hz", type=float)
    parser.add_argument("--emg-rate", dest="emg_rate_hz", type=float)


def _sim_settings(args: argparse.Namespace, config: dict[str, str]) -> dict:
    overrides = {key: getattr(args, key, None) for key in _SIM_DEFAULTS}
    return _merge(_SIM_DEFAULTS, config, overrides)


def _build_trial(settings: dict) -> TrialLog:
    params = _build_config(GaitParams, settings)
    rates = ChannelRates(
        control_hz=settings["control_rate_hz"], emg_hz=settings["emg_rate_hz"]
    )
    return generate(params, settings["duration_s"], rates)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    _check_config_keys(config, _SIM_DEFAULTS)
    settings = _sim_settings(args, config)
    log = _build_trial(settings)
    out = save_trial(log, args.out)
    print(
        f"wrote trial to {out}: {log.n_ticks} ticks at "
        f"{log.rates.control_hz:g} Hz, seed {log.params.seed}"
    )
    return 0


_RUN_CONFIGS = (ControllerConfig, FsrDetectorConfig, VelDetectorConfig)
_RUN_DEFAULTS = {
    "mode": DetectionMode.FOOT_SENSORS.value,
    # rate_hz is the trial's control rate, not a setting
    **{f.name: f.default for cls in _RUN_CONFIGS for f in fields(cls) if f.name != "rate_hz"},
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode", choices=[m.value for m in DetectionMode], dest="mode", default=None
    )
    parser.add_argument("--k-myo", dest="k_myo_nm", type=float)
    parser.add_argument("--k-stance", dest="k_stance", type=float)
    parser.add_argument("--k-swing", dest="k_swing", type=float)
    parser.add_argument(
        "--ramp-rate",
        dest="ramp_rate_nm_s",
        type=_parse_float,
        help="N*m per second, or 'unlimited'",
    )
    parser.add_argument("--contact-threshold", dest="contact_threshold_n", type=float)
    parser.add_argument("--release-threshold", dest="release_threshold_n", type=float)
    parser.add_argument("--min-phase", dest="min_phase_s", type=float)
    parser.add_argument("--zero-hysteresis", dest="zero_hysteresis_rad_s", type=float)
    parser.add_argument("--peak-min", dest="peak_min_rad_s", type=float)
    parser.add_argument("--peak-confirm", dest="peak_confirm_samples", type=int)
    parser.add_argument("--min-event-gap", dest="min_event_gap_s", type=float)


def _write_score(path: Path, result: RunResult) -> None:
    score = result.score
    assert score is not None
    entries: list[tuple[str, str]] = [
        ("phase_accuracy", f"{score.phase_accuracy:.6f}"),
        ("recall", f"{score.recall:.6f}"),
        ("spurious_total", str(score.total_spurious)),
    ]
    for kind, s in score.by_kind.items():
        entries += [
            (f"{kind.value}.matched", str(s.matched)),
            (f"{kind.value}.missed", str(s.missed)),
            (f"{kind.value}.spurious", str(s.spurious)),
            (f"{kind.value}.timing_mae_s", f"{s.timing_mae_s:.6f}"),
        ]
    write_manifest(path, entries)


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    _check_config_keys(config, _RUN_DEFAULTS, _SIM_DEFAULTS)
    run_settings = _merge(
        _RUN_DEFAULTS,
        config,
        {key: getattr(args, key, None) for key in _RUN_DEFAULTS},
    )
    try:
        mode = DetectionMode(run_settings["mode"])
    except ValueError:
        modes = ", ".join(m.value for m in DetectionMode)
        raise InvalidSpecError(f"config key 'mode' must be one of {modes}") from None
    if (args.trial is None) == (not args.simulate):
        raise InvalidSpecError("choose exactly one input: --trial DIR or --simulate")

    if args.simulate:
        sim_settings = _sim_settings(args, config)
        log = _build_trial(sim_settings)
        input_desc = "simulate"
    else:
        log = load_trial(args.trial)
        sim_settings = None
        input_desc = str(args.trial)

    controller_cfg = _build_config(ControllerConfig, run_settings, rate_hz=log.rates.control_hz)
    fsr_cfg = _build_config(FsrDetectorConfig, run_settings)
    vel_cfg = _build_config(VelDetectorConfig, run_settings)

    start = time.monotonic()
    result = run_trial(log, mode, controller_cfg, fsr_cfg, vel_cfg)
    if args.realtime:
        # pace output against the wall clock; values are already fixed
        remaining = log.duration_s - (time.monotonic() - start)
        if remaining > 0:
            time.sleep(remaining)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries: list[tuple[str, str]] = [
        ("format", "gaitassist-run/1"),
        ("input", input_desc),
        ("n_ticks", str(log.n_ticks)),
        ("control_rate_hz", _fmt(log.rates.control_hz)),
        ("realtime", _fmt(bool(args.realtime))),
    ]
    entries += [(key, _fmt(run_settings[key])) for key in _RUN_DEFAULTS]
    if sim_settings is not None:
        entries += [(f"sim.{key}", _fmt(sim_settings[key])) for key in _SIM_DEFAULTS]
    write_manifest(out / "run_manifest.txt", entries)

    torque = (result.t, result.tau_left, result.tau_right)
    write_table(out / "torque.csv", TORQUE_COLS, *torque)
    write_events_csv(out / "events.csv", result.events)
    write_labels_csv(out / "labels.csv", result.t, result.causal_phases)
    if result.score is not None:
        _write_score(out / "score.txt", result)

    if args.print_torque:
        sys.stdout.writelines(format_rows(*torque))

    summary = f"ran {mode.value} over {log.n_ticks} ticks -> {out}"
    if result.score is not None:
        summary += f" (phase accuracy {result.score.phase_accuracy:.4f})"
    print(summary)
    return 0


def compute_trial_metrics(log: TrialLog) -> TrialMetrics:
    """Trial-level outcome metrics from one log; uses truth events when present."""
    env = emg_envelope(log.emg, zero_phase=True)
    times = log.times()
    if log.truth is not None:
        events = log.truth.events
    else:
        # The insole detector starts in swing, so a foot already loaded on
        # the first tick reads as a heel strike there. That is the trial's
        # start, not a stride boundary: truth events likewise begin after it.
        events = [
            ev for ev in detect_fsr(log.insole, times, FsrDetectorConfig())[0] if ev.t > times[0]
        ]
    stride = stride_length(log.foot_xy, times, events)
    hip = float(
        np.mean([rom(log.hip_deg[f].samples, times, events, f) for f in Foot])
    )
    knee = float(
        np.mean([rom(log.knee_deg[f].samples, times, events, f) for f in Foot])
    )
    return TrialMetrics(
        emg_rms=rms(env.samples),
        emg_p90=percentile(env.samples, 90.0),
        stride_length_m=stride,
        hip_rom_deg=hip,
        knee_rom_deg=knee,
        speed_m_s=stride * cadence(events),
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    failures: list[str] = []
    rows: list[tuple[str, TrialMetrics]] = []
    for path in args.trials:
        try:
            rows.append((Path(path).name, compute_trial_metrics(load_trial(path))))
        except (GaitAssistError, OSError, ValueError) as exc:
            failures.append(f"{path}: {exc}")

    if failures:
        for line in failures:
            print(f"analyze: {line}", file=sys.stderr)
        return _DATA_EXIT

    table = format_metrics_csv(rows)
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
        print(f"wrote metrics for {len(rows)} trial(s) to {args.out}")
    else:
        sys.stdout.write(table)
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

    lines = ["metric," + ",".join(f"{n} [%]" for n in names)]
    for i, col in enumerate(base_cols):
        lines.append(col + "," + ",".join(f"{c[i]:.6f}" for c in changes))
    table = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
        print(f"wrote comparison of {len(names)} file(s) to {args.out}")
    else:
        sys.stdout.write(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gaitassist", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic trial")
    p_sim.add_argument("--out", required=True, help="output trial directory")
    p_sim.add_argument("--config", default=None, help="key = value settings file")
    _add_sim_flags(p_sim)
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
    _add_run_flags(p_run)
    _add_sim_flags(p_run)
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
