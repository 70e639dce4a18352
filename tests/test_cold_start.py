"""A command pays at start-up only for the layers it uses.

`import gaitassist`, `import gaitassist.cli`, `compare`, `--help` and a usage
error load no numpy and no scipy, in fresh processes; `simulate` loads no
detector, runner or metrics; `analyze` loads no `numpy.ma` and holds one
trial at a time. A command process runs with the cyclic collector off and
freezes its heap before exit, `cli.main` leaves the collector alone, and a
command leaves no more cyclic garbage for more trials, good or bad. An `ast`
rule keeps the modules those paths import at module level free of numpy.
`compare`'s numpy-free means and percent changes are held, bit for bit, to
the numpy expressions they replaced, and the lazy package still hands out
the same objects and submodules. The filter kernel loads once, however many
threads filter first, and leaves no `scipy` module behind; a command process
skips interpreter teardown with the same exit codes and output bytes.
"""
from __future__ import annotations

import ast
import contextlib
import gc
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaitassist
from gaitassist import cli

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "gaitassist"
# the modules that `import gaitassist.cli` and `python -m gaitassist` run
NUMPY_FREE = ("__init__", "__main__", "cli", "errors", "settings")
NUMPY = ("numpy", "scipy")
METRICS = "trial,a_mv,b_m\nlight,1.5,-2.25\nheavy,2.5,3.0\n"


def loaded_after(code: str) -> list[str]:
    """The modules of numpy, scipy and gaitassist in `sys.modules` after a
    fresh interpreter runs `code`, which may print lines of its own first."""
    script = textwrap.dedent(code) + textwrap.dedent(
        """
        import json, sys
        print(json.dumps(sorted(
            name for name in sys.modules
            if name.partition(".")[0] in ("numpy", "scipy", "gaitassist")
        )))
        """
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def numpy_modules(names: list[str]) -> list[str]:
    return [name for name in names if name.partition(".")[0] in NUMPY]


@pytest.mark.parametrize("module", ["gaitassist", "gaitassist.cli"])
def test_importing_loads_no_numpy(module):
    assert numpy_modules(loaded_after(f"import {module}")) == []


def test_compare_help_and_a_usage_error_load_no_numpy(tmp_path):
    for name in ("base.csv", "light.csv"):
        (tmp_path / name).write_text(METRICS, encoding="utf-8")
    loaded = loaded_after(
        f"""
        import contextlib, io
        from gaitassist import cli

        def exit_code(*argv):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            return code, err.getvalue().splitlines()

        base, light = {str(tmp_path / "base.csv")!r}, {str(tmp_path / "light.csv")!r}
        assert exit_code("compare", "--baseline", base, light) == (0, [])
        assert exit_code("--help") == (0, [])
        code, lines = exit_code("compare", "--baseline", base, light, "--no-such-flag")
        assert code == 1 and len(lines) == 2 and lines[0].startswith("usage: "), lines
        assert lines[1] == "gaitassist: error: unrecognized arguments: --no-such-flag"
        """
    )
    assert numpy_modules(loaded) == []


def test_simulate_loads_no_detector_runner_or_metrics(tmp_path):
    loaded = loaded_after(
        f"""
        from gaitassist import cli
        assert cli.main(["simulate", "--out", {str(tmp_path / "trial")!r}, "--duration", "10"]) == 0
        """
    )
    assert "gaitassist.simgait" in loaded and "gaitassist.trial_io" in loaded
    skipped = ("runner", "gait_fsr", "gait_vel", "metrics", "controller")
    assert [name for name in loaded if name.rpartition(".")[2] in skipped] == []


def test_a_command_calls_the_value_set_on_cli_before_any_lookup(tmp_path):
    """As perfbench's tracer does: a name set on `cli` is never bound over."""
    loaded = loaded_after(
        f"""
        from gaitassist import cli
        from gaitassist.errors import InvalidSpecError

        def fake_generate(*args):
            raise InvalidSpecError("fake generate")

        cli.generate = fake_generate
        assert cli.main(["simulate", "--out", {str(tmp_path / "trial")!r}]) == 1
        assert cli.generate is fake_generate
        """
    )
    assert "gaitassist.simgait" not in loaded and numpy_modules(loaded) == []


def test_cli_binds_the_traced_names_on_lookup_and_no_others():
    from gaitassist import runner, signals, simgait, trial_io

    assert cli.run_trial is runner.run_trial
    assert cli.generate is simgait.generate
    assert cli.load_trial is trial_io.load_trial and cli.save_trial is trial_io.save_trial
    assert cli.emg_envelope is signals.emg_envelope
    with pytest.raises(AttributeError, match="no attribute 'design_filter'"):
        cli.design_filter  # noqa: B018


def test_analyze_frees_each_trial_before_it_loads_the_next(tmp_path, monkeypatch):
    from gaitassist import trial_io

    trials = [str(tmp_path / name) for name in ("a", "b", "c")]
    for trial in trials:
        assert cli.main(["simulate", "--out", trial, "--duration", "10"]) == 0
    loaded = []

    def load_trial(path):
        assert [ref for ref in loaded if ref() is not None] == []
        log = trial_io.load_trial(path)
        loaded.append(weakref.ref(log))
        return log

    monkeypatch.setattr(cli, "load_trial", load_trial)
    assert cli.main(["analyze", *trials, "--out", str(tmp_path / "metrics.csv")]) == 0
    assert len(loaded) == 3


def test_analyze_loads_no_numpy_ma(tmp_path):
    trial = str(tmp_path / "trial")
    assert cli.main(["simulate", "--out", trial, "--duration", "10"]) == 0
    loaded = loaded_after(
        f"""
        from gaitassist import cli
        assert cli.main(["analyze", {trial!r}, "--out", {str(tmp_path / "m.csv")!r}]) == 0
        """
    )
    assert "gaitassist.metrics" in loaded
    assert [name for name in loaded if name.split(".")[:2] == ["numpy", "ma"]] == []


# --- the filter kernel's load ----------------------------------------------------


@pytest.mark.parametrize("scipy_first", [False, True], ids=["scipy-not-imported", "scipy-imported"])
def test_the_kernel_loads_without_leaving_scipy_behind(tmp_path, scipy_first):
    """A session that filters leaves no `scipy` module, placeholder or real,
    unless scipy was imported before; only the kernel's Cython helpers stay.
    A later `import scipy.signal` then gets the real package, whose `sosfilt`
    gives the kernel's bytes."""
    out = str(tmp_path)
    loaded = loaded_after(
        f"""
        import contextlib, io, sys
        {"import scipy" if scipy_first else "scipy = None"}
        import numpy
        from gaitassist import cli, signals, runner, metrics, trial_io

        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["simulate", "--out", {out!r} + "/trial", "--duration", "5", "--cadence", "2"],
                ["run", "--trial", {out!r} + "/trial", "--out", {out!r} + "/fsr"],
                ["run", "--trial", {out!r} + "/trial", "--out", {out!r} + "/vel",
                 "--mode", "actuators-velocity"],
                ["analyze", {out!r} + "/trial"],
            ):
                assert cli.main(argv) == 0, argv
        added = {{name.partition(".")[0] for name in set(sys.modules) - before}}
        others = added - set(sys.stdlib_module_names) - {{"numpy", "scipy"}}
        helpers = {{"_cyutility", "cython_runtime"}}
        assert {{n for n in others if not n.startswith("_cython_")}} <= helpers, others
        left = sorted(n for n in sys.modules if n.partition(".")[0] == "scipy")
        assert (sys.modules.get("scipy") is scipy) if scipy else left == [], left
        assert "scipy.signal" not in sys.modules
        kernel = signals._sosfilt
        assert kernel is not signals._sosfilt_via_scipy

        import numpy as np
        import scipy.signal

        assert scipy.__version__ and (scipy is sys.modules["scipy"])
        coeffs = signals.design_filter(signals.FilterSpec("band-pass", 4, (10.0, 400.0), 1000.0))
        x = np.random.default_rng(5).normal(size=3000)
        ours = signals.filter_causal(coeffs, signals.TimeSeries(x, 1000.0)).samples
        assert scipy.signal.sosfilt(coeffs.sos, x).tobytes() == ours.tobytes()
        assert signals._sosfilt is kernel
        """
    )
    assert "scipy.signal" in loaded


def test_threads_that_filter_first_together_load_the_kernel_once():
    """Two threads' first filter calls meet at a barrier; the load is slowed
    so both are inside it together unless the second waits for the first."""
    loaded_after(
        """
        import sys, threading, time
        import numpy as np
        from gaitassist import signals

        load, calls = signals._load_sosfilt, []

        def slow_load():
            calls.append(threading.get_ident())
            time.sleep(0.05)
            return load()

        signals._load_sosfilt = slow_load
        coeffs = signals.design_filter(signals.FilterSpec("low-pass", 4, (50.0,), 1000.0))
        x = signals.TimeSeries(np.random.default_rng(3).normal(size=2000), 1000.0)
        barrier, results, errors = threading.Barrier(2), [], []

        def first_call():
            barrier.wait()
            try:
                results.append(signals.filter_causal(coeffs, x).samples.tobytes())
            except BaseException as error:
                errors.append(error)

        threads = [threading.Thread(target=first_call) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == [] and len(calls) == 1, (errors, calls)
        assert signals._sosfilt is not signals._sosfilt_via_scipy
        assert [n for n in sys.modules if n.partition(".")[0] == "scipy"] == []
        import scipy.signal
        assert results == 2 * [scipy.signal.sosfilt(coeffs.sos, x.samples).tobytes()]
        """
    )


def test_a_kernel_that_fails_to_load_leaves_no_placeholder():
    """The fallback then imports the real scipy.signal."""
    loaded_after(
        """
        import importlib.machinery, sys
        import numpy as np
        from gaitassist import signals

        suffixes = importlib.machinery.EXTENSION_SUFFIXES
        importlib.machinery.EXTENSION_SUFFIXES = [".missing"]
        try:
            assert signals._load_sosfilt() is signals._sosfilt_via_scipy
        finally:
            importlib.machinery.EXTENSION_SUFFIXES = suffixes
        assert [n for n in sys.modules if n.partition(".")[0] == "scipy"] == []
        x, zi = np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 1, 2))
        signals._sosfilt_via_scipy(np.array([[0.5, 0.5, 0.0, 1.0, -0.5, 0.0]]), x, zi)
        assert x.tolist() == [[0.5, 0.75, 0.375]]
        import scipy
        assert scipy.__version__
        """
    )


# --- the cyclic collector -------------------------------------------------------


def test_the_module_entry_runs_a_command_with_the_collector_off(tmp_path):
    loaded_after(
        f"""
        import gc
        from gaitassist import __main__ as entry, cli

        states, run_command = [], cli.main

        def main(argv):
            states.append(gc.isenabled())
            return run_command(argv)

        cli.main = main
        assert gc.isenabled() and gc.get_freeze_count() == 0
        assert entry.main(["simulate", "--out", {str(tmp_path / "trial")!r}, "--duration", "10"]) == 0
        after = gc.isenabled(), gc.get_freeze_count()
        assert states == [False] and not after[0] and after[1] > 0, (states, after)
        """
    )


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_main_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = gc.isenabled(), gc.get_freeze_count()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--out", str(tmp_path / "trial"), "--duration", "10"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("threads", [1, 2])
def test_analyze_leaves_as_much_cyclic_garbage_for_five_trials_as_for_one(
    tmp_path, monkeypatch, threads
):
    """With the collector off, as in a command process, garbage in cycles
    stays until exit: a failing trial's traceback must not hold a cycle."""
    from gaitassist import trial_io

    monkeypatch.setattr(trial_io, "_THREADS", threads)
    good, bad = str(tmp_path / "good"), str(tmp_path / "bad")
    assert cli.main(["simulate", "--out", good, "--duration", "10"]) == 0
    shutil.copytree(good, bad)
    emg = Path(bad, "emg.csv")
    lines = emg.read_text(encoding="utf-8").splitlines(keepends=True)
    emg.write_text("".join([*lines[:2], "0.001000,oops\n", *lines[3:]]), encoding="utf-8")

    def garbage(*trials):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["analyze", *trials, "--out", str(tmp_path / "m.csv")])
        return code, gc.collect()

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for trial, code in ((good, 0), (bad, 2)):
            garbage(trial)  # one-time set-up
            one = garbage(trial)
            assert one[0] == code
            assert garbage(*[trial] * 5) == one
    finally:
        if was_enabled:
            gc.enable()


# --- the process exit ------------------------------------------------------------

# The entry before `run_process`: main's code through sys.exit, then teardown
TORN_DOWN = "import sys; from gaitassist.__main__ import main; sys.exit(main())"
# `python -m gaitassist`, with an exit handler that writes a line if teardown runs
MODULE = (
    "import atexit, runpy, sys; atexit.register(sys.stderr.write, 'teardown\\n'); "
    "runpy.run_module('gaitassist', run_name='__main__', alter_sys=True)"
)


def process(code: str, args: list[str], cwd: Path, closed: bool) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `python -c code args...` in `cwd`, its
    stdout block-buffered, into a pipe, or, if `closed`, into one whose
    reading end is closed."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read, write = os.pipe()
    try:
        if closed:
            os.close(read)
        result = subprocess.run(
            [sys.executable, "-c", code, *args], cwd=cwd, env=env, timeout=120,
            stdout=write if closed else subprocess.PIPE, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write)
        if not closed:
            os.close(read)
    return result.returncode, result.stdout or b"", result.stderr


@pytest.fixture(scope="module")
def exit_inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("exit")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--out", str(folder / "trial"), "--duration", "5",
                         "--cadence", "2"]) == 0
        assert cli.main(["analyze", str(folder / "trial"), "--out", str(folder / "m.csv")]) == 0
    return folder


@pytest.mark.parametrize(
    "args, closed, code, torn_down",
    [
        (["simulate", "--out", "t", "--duration", "5", "--cadence", "2"], False, 0, False),
        (["run", "--trial", "trial", "--out", "r", "--print-torque"], False, 0, False),
        (["compare", "--baseline", "m.csv", "m.csv"], False, 0, False),
        (["analyze", "missing"], False, 2, False),
        (["run", "--no-such-flag"], False, 1, True),  # argparse's SystemExit
        # the command meets the closed pipe and ends quietly, its files written
        (["run", "--trial", "trial", "--out", "r", "--print-torque"], True, 0, False),
        # the table waits in stdout's buffer: `main`'s flush meets the closed pipe
        (["analyze", "trial"], True, 0, False),
    ],
    ids=["simulate", "run", "compare", "data-error", "usage-error", "run-closed-pipe",
         "analyze-closed-pipe"],
)
def test_the_process_exit_keeps_the_codes_and_bytes(exit_inputs, args, closed, code, torn_down):
    """`python -m gaitassist` exits with the code and output of the exit
    through interpreter teardown, and skips teardown unless a flush fails or
    the command raised SystemExit."""
    before = process(TORN_DOWN, args, exit_inputs, closed)
    got, out, err = process(MODULE, args, exit_inputs, closed)
    assert (got, out, err.replace(b"teardown\n", b"")) == before
    assert (got, b"teardown\n" in err) == (code, torn_down), err


@pytest.mark.parametrize(
    "args", [["run", "--trial", "trial", "--out", "quiet", "--print-torque"], ["analyze", "trial"]],
    ids=["run", "analyze"],
)
def test_a_closed_stdout_ends_the_command_quietly(exit_inputs, args):
    """Into a pipe whose reader has gone, a command exits 0 with nothing on
    stderr, and `run` has written every file."""
    assert process(MODULE, args, exit_inputs, closed=True) == (0, b"", b"")
    if args[0] == "run":
        written = {path.name for path in (exit_inputs / "quiet").iterdir()}
        assert {"torque.csv", "events.csv", "labels.csv", "score.txt"} <= written


# --- the numpy-free import rule ----------------------------------------------


def eager_imports(source: str, package: str = "gaitassist") -> list[str]:
    """The modules that importing `source`, a module of `package`, imports
    by its own statements, in source order: every import outside function
    bodies and `if TYPE_CHECKING:` blocks. A relative import is resolved in
    `package`; `from . import x` names both the package and `package.x`."""
    found: list[str] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                found.append(node.module)
            elif node.module:
                found.append(f"{package}.{node.module}")
            else:
                found.extend([package, *(f"{package}.{alias.name}" for alias in node.names)])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def numpy_importers(sources: dict[str, str], package: str = "gaitassist") -> set[str]:
    """The modules of `package` (file stem to source) that import numpy or
    scipy when imported, directly or through other modules of `sources`."""
    names = {stem: package if stem == "__init__" else f"{package}.{stem}" for stem in sources}
    imports = {names[stem]: eager_imports(source, package) for stem, source in sources.items()}
    found = {m for m, deps in imports.items() if any(d.partition(".")[0] in NUMPY for d in deps)}
    while more := {m for m, deps in imports.items() if found.intersection(deps)} - found:
        found |= more
    return found


def test_the_rule_finds_what_it_looks_for():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy.linalg as la\n"
        "from . import gait_fsr\n"
        "from .settings import GaitParams\n"
        "if TYPE_CHECKING:\n    from .runner import RunResult\nelse:\n    import json\n"
        "try:\n    import scipy\nexcept ImportError:\n    pass\n"
        "class A:\n    from math import pi\n"
        "def f():\n    from .metrics import rms\n"
        "g = lambda: __import__('numpy')\n"
    )
    assert eager_imports(source) == [
        "typing", "numpy.linalg", "gaitassist", "gaitassist.gait_fsr", "gaitassist.settings",
        "json", "scipy", "math",
    ]
    sources = {
        "__init__": "from importlib import import_module\n",
        "a": "import numpy as np\n",
        "b": "from .a import x\n",
        "c": "from . import b\n",
        "d": "def f():\n    import numpy\n",
        "e": "from .d import f\nfrom . import settings\n",
        "f": "from scipy import signal\n",
    }
    assert numpy_importers(sources) == {f"gaitassist.{stem}" for stem in "abcf"}


@pytest.mark.parametrize("stem", NUMPY_FREE)
def test_the_start_up_modules_import_no_numpy(stem):
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    heavy = numpy_importers(sources)
    assert "gaitassist.runner" in heavy  # the rule sees the layers that do
    imports = eager_imports(sources[stem])
    assert [name for name in imports if name in heavy or name.partition(".")[0] in NUMPY] == []


# --- compare's numbers ---------------------------------------------------------


def numpy_compare(base: list[list[float]], others: list[list[list[float]]], cols: list[str]):
    """The percent changes, or the error, of the numpy path `compare` took
    before: `mean(axis=0)` of each table, then the change against the base."""
    with np.errstate(over="ignore", invalid="ignore"):
        base_mean = np.asarray(base).mean(axis=0)
    for col, mean in zip(cols, base_mean):
        if mean == 0.0 or not math.isfinite(mean):
            return (
                f"base.csv: baseline mean of {col!r} is {mean:g}, "
                "so its percent change is undefined"
            )
    changes = []
    for i, rows in enumerate(others):
        with np.errstate(over="ignore", invalid="ignore"):
            means = np.asarray(rows).mean(axis=0)
            change = 100.0 * (means - base_mean) / base_mean
        for col, mean, percent in zip(cols, means, change):
            if not math.isfinite(mean):
                return (
                    f"other{i}.csv: mean of {col!r} is {mean:g}, "
                    "so its percent change is undefined"
                )
            if not math.isfinite(percent):
                return f"other{i}.csv: percent change of {col!r} overflows"
        changes.append(change.tolist())
    return changes


def bits(values) -> list[bytes]:
    return [struct.pack("<d", value) for value in values]


def column(rng: np.random.Generator, rows: int, kind: str) -> list[float]:
    """A `%.6f` column read back, of cells 1e-3 to 1e306 in magnitude with
    zeros of either sign among them, or, of kind "huge", of cells near the
    largest double, whose sums overflow."""
    sign = rng.choice([-1.0, 1.0], rows)
    if kind == "huge":
        return (sign * rng.uniform(1e308, 1.79e308, rows)).tolist()
    cells = np.where(rng.random(rows) < 0.1, 0.0, 10.0 ** rng.uniform(-3.0, 306.0, rows))
    return [round(cell, 6) for cell in (sign * cells).tolist()]


@st.composite
def metrics_tables(draw):
    """A baseline table and one or two others: 1-6 columns, each 1-50 rows."""
    kinds = draw(st.lists(st.sampled_from(["cells", "cells", "cells", "huge"]), min_size=1,
                          max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def table():
        rows = draw(st.integers(1, 50))
        return [list(row) for row in zip(*(column(rng, rows, kind) for kind in kinds))]

    return table(), [table() for _ in range(draw(st.integers(1, 2)))]


@settings(max_examples=300, deadline=None)
@given(tables=metrics_tables())
def test_compare_gives_the_numbers_of_numpy(tables, tmp_path_factory):
    base, others = tables
    cols = [f"m{j}" for j in range(len(base[0]))]
    with np.errstate(over="ignore", invalid="ignore"):
        assert bits(cli._column_means(base)) == bits(np.asarray(base).mean(axis=0))
    folder = tmp_path_factory.mktemp("compare")
    for name, rows in [("base", base), *((f"other{i}", rows) for i, rows in enumerate(others))]:
        lines = [",".join(["trial", *cols])]
        lines += [",".join([f"t{k}", *map(repr, row)]) for k, row in enumerate(rows)]
        (folder / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    tables_out, err = [], io.StringIO()
    argv = ["compare", "--baseline", "base.csv", *(f"other{i}.csv" for i in range(len(others)))]
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
        patch.setattr(cli, "format_named_rows", lambda _, rows: tables_out.append(list(rows)) or "")
        patch.chdir(folder)
        code = cli.main(argv)
    err = err.getvalue()
    expected = numpy_compare(base, others, cols)
    if isinstance(expected, str):
        assert (code, err) == (2, f"gaitassist: data error: {expected}\n")
    else:
        assert code == 0, err
        (rows,) = tables_out
        got = [[row[1][i] for row in rows] for i in range(len(others))]
        assert [bits(change) for change in got] == [bits(change) for change in expected]


@pytest.mark.parametrize("n", [*range(1, 140), 255, 1000, 4097, 20_001])
def test_a_lone_column_is_summed_pairwise_as_numpy_sums_it(n):
    """Cells of like magnitude, so that each order of the additions rounds
    to its own sum, and every way a length can split into blocks of 8."""
    for seed in range(3):
        column = np.round(np.random.default_rng([n, seed]).normal(0.0, 1e3, n), 6)
        rows = [[value] for value in column.tolist()]
        assert bits(cli._column_means(rows)) == bits(column.reshape(-1, 1).mean(axis=0))


# --- the lazy package -----------------------------------------------------------


def test_every_export_is_its_modules_object():
    from gaitassist import controller, gait_fsr, gait_vel, runner, settings, simgait, trial_io

    for name in gaitassist.__all__:
        assert getattr(gaitassist, name) is not None
    assert gaitassist.GaitParams is settings.GaitParams is simgait.GaitParams
    assert gaitassist.ChannelRates is simgait.ChannelRates
    assert gaitassist.ControllerConfig is controller.ControllerConfig
    assert gaitassist.UNLIMITED is controller.UNLIMITED
    assert gaitassist.FsrDetectorConfig is gait_fsr.FsrDetectorConfig
    assert gaitassist.VelDetectorConfig is gait_vel.VelDetectorConfig
    assert gaitassist.DetectionMode is runner.DetectionMode
    assert gaitassist.load_trial is trial_io.load_trial
    assert trial_io.format_value is settings.format_value


def test_an_unknown_attribute_raises_and_submodules_still_import():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gaitassist.no_such_name  # noqa: B018
    assert not hasattr(gaitassist, "no_such_name")
    from gaitassist import runner

    assert runner.__name__ == "gaitassist.runner"
    assert "gaitassist.metrics" in loaded_after("from gaitassist import metrics")
