"""Fixed probes of how fast the machine runs right now, to scale wall times by.

On a shared machine a process runs at one of several speeds, switching every
few seconds and sometimes staying slow for minutes, so a wall time depends on
when it was taken. A probe is fixed work that does not use gaitassist; timed
just before and just after a step, it gives the machine's slowdown during that
step, relative to the probe's time on an idle machine. A step's scaled time is
its wall time divided by that slowdown: what it would have taken at the
reference speed. A change to gaitassist changes a step's wall time but not
the probes, so it shows in full in the scaled time.

Two probes, matched to what a step runs:

* `in_process`: interpreter-bound Python and small numpy reads and writes, as
  the control loop and the CSV code do, in this process;
* `fresh_process`: a fresh interpreter importing numpy, for steps that start
  a fresh `python` (interpreter start, module loading and linking).
"""
from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Each probe's fastest time on an idle 2-vCPU Intel Xeon VM, Python 3.11.
IN_PROCESS_REF_S = 0.030
FRESH_PROCESS_REF_S = 0.134


class _Side(Enum):
    A = 0
    B = 1


@dataclass(frozen=True)
class _Row:
    index: int
    t: float
    a: float
    b: tuple


_TABLE = np.random.default_rng(0).standard_normal((7500, 5))
_CODE = {_Side.A: 0, _Side.B: 1}


def _kernel() -> None:
    out = np.zeros(len(_TABLE))
    codes = np.zeros(len(_TABLE), dtype=np.int8)
    events = []
    side, level = _Side.A, 0.0
    for k in range(len(_TABLE)):
        row = _Row(k, float(_TABLE[k, 0]), float(_TABLE[k, 1]), tuple(_TABLE[k, 2:]))
        level = 0.9 * level + 0.1 * max(row.b)
        if side is _Side.A and level > 0.3:
            side = _Side.B
            events.append((row.t, side))
        elif side is _Side.B and level < -0.1:
            side = _Side.A
            events.append((row.t, side))
        codes[k] = _CODE[side]
        out[k] = min(max(row.a * level, 0.0), 1.0)


def in_process() -> float:
    """Slowdown of this process now: the kernel's time over its reference time."""
    enabled = gc.isenabled()
    gc.disable()  # a collection would time the program's heap, not the machine
    try:
        t0 = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return elapsed / IN_PROCESS_REF_S


def fresh_process(cwd) -> float:
    """Slowdown of a fresh interpreter now: `import numpy`, without gaitassist on the path."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return (time.perf_counter() - t0) / FRESH_PROCESS_REF_S
