"""gaitassist benchmark: three workloads, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload loop-300s --seed 42 --seconds 28 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones (see README.md here).
The package runs from `src/`: in this process through `sys.path`, and in
fresh processes as `PYTHONPATH=src python -m gaitassist`.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from checks import (
    CheckFailed,
    Expectations,
    check_finite_table,
    check_run_dir,
    check_run_result,
    digest_files,
    digest_run_result,
    require,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # results and span dumps
WORK = STATE / "work"  # trials and run outputs, emptied on every run
REFERENCE = BENCH_DIR / "reference.json"

SETUP_PROBES = 3  # fresh interpreters timed for setup_s
# On a shared machine a step's wall time depends on how fast the machine ran
# during it, by up to 2x. The end-to-end times are therefore medians of wall
# times scaled by a probe of the machine's speed taken just before and after
# each step (see speed.py). Wall-time medians are printed too.
IMPORT_PROBES = 3  # `python -X importtime` runs for the import breakdown
CHILD_TIMEOUT_S = 120.0
NOISE = "0.05"
RUN_FILES = ("torque.csv", "events.csv", "labels.csv", "score.txt")
MODES = (("fsr", "foot-sensors"), ("vel", "actuators-velocity"))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str]) -> float:
    """Run `python ARGS` in the work directory to completion; its wall time in s."""
    with open(WORK / "child.out", "wb") as out, open(WORK / "child.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=WORK, env=_child_env(), stdout=out, stderr=err
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
    if code != 0:
        tail = (WORK / "child.err").read_text(errors="replace").strip().splitlines()[-1:]
        raise CheckFailed(f"python {' '.join(args)} exited {code}: {tail}")
    return elapsed


def cli_main(*argv: str) -> float:
    """Call `gaitassist.cli.main` in this process from the work directory; wall time in s."""
    from gaitassist import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.chdir(WORK):
        t0 = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - t0
    require(code == 0, f"gaitassist {' '.join(argv)} exited {code}")
    return elapsed


def import_breakdown(text: str) -> dict[str, float]:
    """`cli.import_ms.*` from the stderr of `python -X importtime`."""
    rows = []  # (depth, self us, cumulative us, module), children before parents
    for line in text.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        rows.append((depth, int(parts[0]), int(parts[1]), name.strip()))

    def cumulative_ms(prefix: str) -> float:
        # sum the outermost imports of `prefix` and its submodules
        total, ancestors = 0, []  # ancestors: (depth, inside a match)
        for depth, _, cum, name in reversed(rows):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            inside = bool(ancestors) and ancestors[-1][1]
            match = name == prefix or name.startswith(prefix + ".")
            if match and not inside:
                total += cum
            ancestors.append((depth, inside or match))
        return total / 1e3

    return {
        "cli.import_ms.scipy_signal": cumulative_ms("scipy.signal"),
        "cli.import_ms.numpy": cumulative_ms("numpy"),
        "cli.import_ms.gaitassist": sum(s for _, s, _, n in rows if n.startswith("gaitassist")) / 1e3,
        "cli.import_ms.total": cumulative_ms("gaitassist"),
    }


class Run:
    """Counts operations and failures for one benchmark run."""

    def __init__(self, seed: int, reference: dict[str, str] | None) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.expectations = Expectations(reference)
        self.span_files: list[Path] = []  # written by traced child processes

    def expect(self, key: str, digest: str) -> None:
        self.expectations.expect(key, digest)

    def op(self, label: str, fn):
        """Run one operation; an exception or a failed check counts it failed.

        Returns what `fn` returns, which is kept when only a check failed, or
        None when `fn` raised.
        """
        self.attempted += 1
        self._problems: list[str] = []
        try:
            out = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            self._problems.append(f"{type(exc).__name__}: {exc}")
            out = None
        if self._problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(self._problems)}", file=sys.stderr)
        return out

    def verify(self, *checks) -> None:
        """Check the outputs of the current operation, after its timing."""
        for check in checks:
            try:
                check()
            except CheckFailed as exc:
                self._problems.append(str(exc))


class Loop:
    """One noisy 300 s trial in memory, run through `run_trial` in both modes.

    Per-tick Python work in runner, replay, both detectors and the controller
    is about 95% of the time; trial I/O and import are outside the timed part.
    """

    name = "loop-300s"
    in_process = True
    probe = staticmethod(speed.in_process)
    ticks = 30_000

    def setup_code(self, seed: int) -> str:
        return (
            "import gaitassist as g; g.generate(g.GaitParams("
            f"seed={seed}, noise_sigma={NOISE}), duration_s=300.0)"
        )

    def prepare(self, run: Run) -> None:
        from gaitassist import GaitParams, simgait

        self.log = simgait.generate(GaitParams(seed=run.seed, noise_sigma=float(NOISE)), 300.0)

    def steps(self, run: Run, traced: bool):
        from gaitassist import runner
        from gaitassist.runner import DetectionMode

        def run_mode(mode: DetectionMode):
            def step() -> float:
                t0 = time.perf_counter()
                result = runner.run_trial(self.log, mode)
                elapsed = time.perf_counter() - t0
                run.verify(
                    lambda: check_run_result(result),
                    lambda: run.expect(f"run_result.{mode.value}", digest_run_result(result)),
                )
                return elapsed

            return step

        return [(key, run_mode(DetectionMode(mode))) for key, mode in MODES]

    def details(self, med: dict[str, float]) -> list[tuple[str, float, str]]:
        return [(f"{k}_ticks_per_s", self.ticks / med[k], "1/s") for k, _ in MODES]

    def sweep(self, run: Run) -> None:
        """Reach the layers this workload skips, on the same trial."""
        from gaitassist import trial_io

        def analyze() -> None:
            cli_main("analyze", "trial", "--out", "metrics.csv")
            check_finite_table(WORK / "metrics.csv")

        run.op("save_trial", lambda: trial_io.save_trial(self.log, WORK / "trial"))
        _sweep_cli(run, "trial")
        run.op("analyze", analyze)


def _sweep_cli(run: Run, trial: str) -> None:
    for key, mode in MODES:
        def step(key=key, mode=mode):
            cli_main("run", "--trial", trial, "--out", f"run_{key}", "--mode", mode)
            check_run_dir(WORK / f"run_{key}")

        run.op(f"run {mode}", step)


def _check_table(run: Run, name: str) -> None:
    check_finite_table(WORK / name)
    run.expect(name, digest_files([WORK / name]))


def _split_rows(table: Path, names: tuple[str, ...]) -> None:
    """Write each row of a metrics CSV to its own file, header included."""
    header, *rows = table.read_text(encoding="utf-8").splitlines()
    require(len(rows) == len(names), f"{table.name}: expected {len(names)} rows")
    for name, row in zip(names, rows):
        (table.parent / name).write_text(f"{header}\n{row}\n", encoding="utf-8")


class Archive:
    """`simulate` two 300 s trials to disk, `analyze` both in one call, `compare`.

    About 16 MB of CSV per trial is written and read back, so trial I/O and
    the zero-phase envelope dominate; the per-tick loop does nothing. Two
    trials start the `analyze` thread pool with 2 workers.
    """

    name = "archive-300s"
    in_process = True
    probe = staticmethod(speed.in_process)
    ticks = 30_000
    trials = (("trial", ()), ("trial_light", ("--emg-level", "0.35")))

    def setup_code(self, seed: int) -> str:
        return "import gaitassist.cli"

    def prepare(self, run: Run) -> None:
        import gaitassist.cli  # noqa: F401

    def steps(self, run: Run, traced: bool):
        def simulate(trial: str, extra: tuple[str, ...]):
            def step() -> float:
                elapsed = cli_main(
                    "simulate", "--out", trial, "--duration", "300", "--seed", str(run.seed),
                    "--noise-sigma", NOISE, *extra,
                )
                run.verify(lambda: run.expect(f"{trial}/", digest_files([WORK / trial])))
                return elapsed

            return step

        def analyze() -> float:
            elapsed = cli_main("analyze", *(t for t, _ in self.trials), "--out", "metrics.csv")
            run.verify(lambda: _check_table(run, "metrics.csv"))
            return elapsed

        def compare() -> float:
            _split_rows(WORK / "metrics.csv", ("base.csv", "light.csv"))
            elapsed = cli_main("compare", "--baseline", "base.csv", "light.csv", "--out", "compare.csv")
            run.verify(lambda: _check_table(run, "compare.csv"))
            return elapsed

        return [
            ("simulate", simulate(*self.trials[0])),
            ("simulate_light", simulate(*self.trials[1])),
            ("analyze", analyze),
            ("compare", compare),
        ]

    def details(self, med: dict[str, float]) -> list[tuple[str, float, str]]:
        simulate_s = statistics.median([med["simulate"], med["simulate_light"]])
        return [
            ("simulate_ticks_per_s", self.ticks / simulate_s, "1/s"),
            ("analyze_ticks_per_s", len(self.trials) * self.ticks / med["analyze"], "1/s"),
        ]

    def sweep(self, run: Run) -> None:
        """Reach the layers this workload skips, on the same trial."""
        _sweep_cli(run, "trial")


class Quickstart:
    """The README quick start on a 30 s trial, each command a fresh process.

    About 1.2 s of each 1.3 to 1.7 s command is interpreter start and import,
    most of it `scipy.signal`, so import and start-up changes show here.
    """

    name = "quickstart-cli"
    in_process = False  # each command is a child; traced ones trace themselves

    @staticmethod
    def probe() -> float:
        return speed.fresh_process(WORK)

    def setup_code(self, seed: int) -> str:
        return "import gaitassist.cli"

    def _sim_args(self, run: Run, out: str) -> list[str]:
        return ["simulate", "--out", out, "--duration", "30", "--seed", str(run.seed),
                "--noise-sigma", NOISE]

    def prepare(self, run: Run) -> None:
        # the condition `compare` holds against the baseline, as in the README;
        # made in this process, since only the children are measured
        def light() -> bool:
            cli_main(*self._sim_args(run, "trial_light"), "--emg-level", "0.35")
            cli_main("analyze", "trial_light", "--out", "light.csv")
            _check_table(run, "light.csv")
            return True

        require(run.op("light trial", light) is not None, "could not prepare the light trial")

    def steps(self, run: Run, traced: bool):
        def command(key: str, argv: list[str], check):
            def step() -> float:
                if traced:
                    spans = WORK / f"spans-{len(run.span_files)}.npz"
                    run.span_files.append(spans)
                    elapsed = spawn([str(BENCH_DIR / "launch.py"), str(spans), *argv])
                else:
                    elapsed = spawn(["-m", "gaitassist", *argv])
                run.verify(check)
                return elapsed

            return key, step

        def run_outputs(out: str):
            def check() -> None:
                check_run_dir(WORK / out)
                run.expect(f"{out}/", digest_files([WORK / out / f for f in RUN_FILES]))

            return check

        return [
            command("simulate", self._sim_args(run, "trial"),
                    lambda: run.expect("trial/", digest_files([WORK / "trial"]))),
            *(
                command(f"run_{key}", ["run", "--trial", "trial", "--out", f"run_{key}",
                                       "--mode", mode], run_outputs(f"run_{key}"))
                for key, mode in MODES
            ),
            command("analyze", ["analyze", "trial", "--out", "metrics.csv"],
                    lambda: _check_table(run, "metrics.csv")),
            command("compare", ["compare", "--baseline", "metrics.csv", "light.csv",
                                "--out", "compare.csv"], lambda: _check_table(run, "compare.csv")),
        ]

    def details(self, med: dict[str, float]) -> list[tuple[str, float, str]]:
        return [(f"cli_{key}_s", value, "s") for key, value in med.items()]

    def sweep(self, run: Run) -> None:
        """The quick start already reaches every layer."""


WORKLOADS = {w.name: w for w in (Loop(), Archive(), Quickstart())}


Sample = tuple[float, float]  # (wall time in s, slowdown of the machine during it)


def sample(workload, run: Run, seconds: float, tracers: tuple, whole: bool):
    """Wall time and slowdown of each step, in passes that take turns over `tracers`.

    The slowdown is the mean of the workload's speed probes just before and
    just after the step. Returns the samples per entry of `tracers` and the
    number of whole rounds. Sampling ends once every entry has had one whole
    pass and `seconds` have passed: after the step that crosses the
    deadline, or with `whole`, after the round that does.
    """
    from spans import installed

    samples: list[dict[str, list[Sample]]] = [{} for _ in tracers]
    deadline = time.perf_counter() + seconds
    rounds = 0
    before = workload.probe()
    while True:
        for out, tracer in zip(samples, tracers):
            traced = tracer is not None
            with installed(tracer) if traced and workload.in_process else contextlib.nullcontext():
                for key, step in workload.steps(run, traced):
                    elapsed = run.op(key, step)
                    after = workload.probe()
                    if elapsed is not None:
                        out.setdefault(key, []).append((elapsed, (before + after) / 2))
                    before = after
                    if rounds and not whole and time.perf_counter() >= deadline:
                        return samples, rounds
        rounds += 1
        if time.perf_counter() >= deadline:
            return samples, rounds


def scaled_median(values: list[Sample]) -> float:
    """Median wall time at the probes' reference speed."""
    return statistics.median(elapsed / slowdown for elapsed, slowdown in values)


def wall_median(values: list[Sample]) -> float:
    return statistics.median(elapsed for elapsed, _ in values)


def _per_step(samples: dict[str, list[Sample]], steps: int, of) -> dict[str, float]:
    require(len(samples) == steps, "a step never completed")
    return {key: of(values) for key, values in samples.items()}


def measure(workload, run: Run, seconds: float) -> tuple[dict, list, dict]:
    """End-to-end metrics, traced off."""
    setup: list[Sample] = []
    before = speed.fresh_process(WORK)
    for _ in range(SETUP_PROBES):
        elapsed = run.op("setup", lambda: spawn(["-c", workload.setup_code(run.seed)]))
        after = speed.fresh_process(WORK)
        if elapsed is not None:
            setup.append((elapsed, (before + after) / 2))
        before = after
    require(bool(setup), "no set-up completed")
    workload.prepare(run)
    (samples,), _ = sample(workload, run, seconds, (None,), whole=False)
    n_steps = len(workload.steps(run, False))
    scaled = _per_step(samples, n_steps, scaled_median)
    wall = _per_step(samples, n_steps, wall_median)
    # the workload's process, or its largest child when every step is a child
    usage = resource.getrusage(resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN)
    metrics = {
        "setup_s": scaled_median(setup),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "scenario_s": sum(scaled.values()),
    }
    slowdowns = [f for values in samples.values() for _, f in values]
    details = [
        *workload.details(scaled),
        ("scenario_wall_s", sum(wall.values()), "s"),
        ("setup_wall_s", wall_median(setup), "s"),
        ("slowdown", statistics.median(slowdowns), "x"),
    ]
    return metrics, details, {"setup_samples": setup, "samples": samples}


def trace(workload, run: Run, seconds: float) -> tuple[dict, list, dict]:
    """Per-layer metrics from traced passes, alternated with untraced ones."""
    from spans import DESIGN_FILTER, Tracer, dump, installed, layer_metrics, load

    imports = []
    for _ in range(IMPORT_PROBES):
        if run.op("importtime", lambda: spawn(["-X", "importtime", "-c", "import gaitassist.cli"])):
            imports.append(import_breakdown((WORK / "child.err").read_text()))
    tracer = Tracer()
    with installed(tracer):
        workload.prepare(run)
    before = tracer.counts().get(DESIGN_FILTER, 0)
    (plain, traced), rounds = sample(workload, run, seconds, (None, tracer), whole=True)
    require(bool(imports), "no import breakdown")
    steps = len(workload.steps(run, False))
    design_filter = tracer.counts().get(DESIGN_FILTER, 0) - before
    with installed(tracer):
        workload.sweep(run)
    tables, counts = tracer.tables(), tracer.counts()
    for path in run.span_files:
        child_tables, child_counts = load(path)
        tables += child_tables
        design_filter += child_counts.get(DESIGN_FILTER, 0)
        for key, value in child_counts.items():
            counts[key] = counts.get(key, 0) + value
    dump(STATE / f"spans-{workload.name}-seed{run.seed}.npz", tables, counts)

    metrics = layer_metrics(tables)
    metrics.update({k: statistics.median(i[k] for i in imports) for k in imports[0]})
    metrics["signals.design_filter_calls"] = design_filter / rounds
    # scaled medians, as for the end-to-end times
    metrics["trace.overhead_ms"] = 1e3 * (
        sum(_per_step(traced, steps, scaled_median).values())
        - sum(_per_step(plain, steps, scaled_median).values())
    )
    details = [("traced_passes", rounds, "count")]
    return metrics, details, {"samples": plain, "traced_samples": traced}


def environment() -> dict[str, str | int]:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "launch": "PYTHONPATH=src python -m gaitassist",
        "not_benchmarked": "run --realtime (it computes the whole trial, then sleeps)",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="store this run's output digests as the reference for its workload and seed",
    )
    args = parser.parse_args(argv)
    if not (SRC / "gaitassist" / "__init__.py").is_file():
        print(f"perfbench: no gaitassist package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # {workload: {seed: {output: sha256}}}
    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    by_seed = references.setdefault(args.workload, {})
    reference = None if args.record_reference else by_seed.get(str(args.seed))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    workload = WORKLOADS[args.workload]
    run = Run(args.seed, reference)
    metrics, details, samples = (trace if args.trace else measure)(workload, run, args.seconds)
    shutil.rmtree(WORK, ignore_errors=True)
    # BENCHMARK.json declares every metric and its unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    require(set(metrics) == set(units), f"metrics {sorted(set(metrics) ^ set(units))} undeclared or missing")

    env = environment()
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "details": details, **samples}
    print("environment " + json.dumps(env))
    for name, value, unit in details:
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    if args.record_reference and run.failed == 0:
        by_seed[str(args.seed)] = run.expectations.seen
        REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (STATE / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, **result}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
