"""The benchmark's tracer must observe runs without changing them.

`perfbench/spans.py` replaces names on gaitassist modules from outside the
package while it traces. A traced `run_trial` must produce the same
`RunResult`, bit for bit, as an untraced one, and leaving the tracer must put
back every name it replaced.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

from gaitassist import cli, runner, signals, simgait, trial_io
from gaitassist.simgait import GaitParams, generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (runner, cli, simgait, trial_io, signals)


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's `checks` and `spans` modules, imported from its directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checks
        import spans

        yield checks, spans
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_runs_equal_untraced_and_every_name_is_restored(perfbench):
    checks, spans = perfbench
    log = generate(GaitParams(seed=3, noise_sigma=0.05), 8.0)
    untraced = {
        mode: checks.digest_run_result(runner.run_trial(log, mode))
        for mode in runner.DetectionMode
    }
    before = [dict(vars(module)) for module in MODULES]

    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert runner.run_trial is not before[0]["run_trial"]  # the tracer is in place
        traced = {
            mode: checks.digest_run_result(runner.run_trial(log, mode))
            for mode in runner.DetectionMode
        }
    assert traced == untraced
    assert spans.RUN_TRIAL in tracer.names

    for module, names in zip(MODULES, before):
        after = vars(module)
        changed = [name for name, value in names.items() if after.get(name) is not value]
        assert changed == [], f"{module.__name__} not restored: {changed}"
