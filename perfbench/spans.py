"""In-memory span tracing of gaitassist layers, installed from outside the package.

`installed(tracer)` replaces the names that `gaitassist.runner`,
`gaitassist.cli`, `gaitassist.trial_io`, `gaitassist.simgait` and
`gaitassist.signals` look up at call time with wrappers that record one span
per call: its name, start, end and enclosing span. No file of the package
changes, and leaving the context restores the original functions.

Spans stay in memory, one buffer per thread (the `analyze` command loads
trials on a thread pool), until `dump` writes them. A layer's self
time is its span minus the spans of its children.
"""
from __future__ import annotations

import json
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

TICK_BUDGET_NS = 10_000_000  # one control period at 100 Hz

# span names, as recorded
REPLAY = "simgait.replay"
FSR_STEP = "gait_fsr.fsr_step"
VEL_STEP = "gait_vel.vel_step"
CONTROLLER_TICK = "controller.controller_tick"
CONTROL_ENVELOPE = "signals.control_envelope"
ZERO_PHASE_ENVELOPE = "signals.emg_envelope_zero_phase"
SCORE = "metrics.score_detection"
PHASES = "metrics.phases_from_events"
GENERATE = "simgait.generate"
SAVE = "trial_io.save_trial"
LOAD = "trial_io.load_trial"
RUN_TRIAL = "runner.run_trial"
CMD_RUN = "cli.cmd_run"
TRIAL_METRICS = "cli.compute_trial_metrics"
DESIGN_FILTER = "signals.design_filter"  # counted, not timed

_PER_TICK = (REPLAY, FSR_STEP, VEL_STEP, CONTROLLER_TICK)
_clock = time.perf_counter_ns


class _Buffer:
    """Spans recorded by one thread, indexed in the order they opened."""

    __slots__ = ("name", "start", "end", "parent", "attrs", "counts", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.attrs: dict[int, dict] = {}
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []


class Tracer:
    """Records spans and call counts from the functions it wraps."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, attrs=None):
        """One span per call of `fn`; `attrs(args, result)` annotates it."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0)
            stack.append(idx)
            buf.start.append(_clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                buf.end[idx] = _clock()
                stack.pop()
            if attrs is not None:
                buf.attrs[idx] = attrs(args, out)
            return out

        return traced

    def wrap_iter(self, name, fn):
        """`fn` returns an iterator; one span per item it produces."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            return self._iterate(nid, fn(*args, **kwargs))

        return traced

    def _iterate(self, nid, it):
        buf = self._buffer()
        while True:
            t0 = _clock()
            try:
                item = next(it)
            except StopIteration:
                return
            t1 = _clock()
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.start.append(t0)
            buf.end.append(t1)
            yield item

    def count(self, name, fn):
        """Count calls of `fn` without timing them."""

        def counted(*args, **kwargs):
            counts = self._buffer().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for buf in self._buffers:
            for key, value in buf.counts.items():
                total[key] = total.get(key, 0) + value
        return total

    def tables(self) -> list[SpanTable]:
        """A copy of the spans so far, one table per thread."""
        return [
            SpanTable(
                self.names,
                *(np.array(getattr(buf, key), dtype=getattr(buf, key).typecode) for key in _FIELDS),
                dict(buf.attrs),
            )
            for buf in self._buffers
        ]


_FIELDS = ("name", "start", "end", "parent")


class SpanTable:
    """The spans of one thread as arrays, with durations and self times."""

    def __init__(self, names, name, start, end, parent, attrs) -> None:
        self.names = list(names)
        self.name = name
        self.start = start
        self.end = end
        self.dur = (end - start).astype(np.float64)
        self.parent = parent
        self.attrs = attrs
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=self.dur[has_parent], minlength=len(parent)
        )
        self.self_ns = self.dur - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)


def dump(path: Path, tables: list[SpanTable], counts: dict[str, int]) -> None:
    """Write span tables and call counts to one `.npz` file."""
    arrays = {}
    for i, tb in enumerate(tables):
        for key in _FIELDS:
            arrays[f"{key}{i}"] = getattr(tb, key)
    meta = {
        "names": [tb.names for tb in tables],
        "attrs": [{str(k): v for k, v in tb.attrs.items()} for tb in tables],
        "counts": counts,
    }
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def load(path: Path) -> tuple[list[SpanTable], dict[str, int]]:
    """Read a file written by `dump`: its span tables and counts."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        tables = [
            SpanTable(
                names,
                *(data[f"{key}{i}"] for key in _FIELDS),
                {int(k): v for k, v in attrs.items()},
            )
            for i, (names, attrs) in enumerate(zip(meta["names"], meta["attrs"]))
        ]
    return tables, meta["counts"]


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _run_attrs(args, result) -> dict:
    score = result.score
    matched = sum(s.matched for s in score.by_kind.values()) if score else 0
    return {
        "mode": result.mode.value,
        "ticks": len(result.t),
        "events": len(result.events),
        "matched": matched,
    }


@contextmanager
def installed(tracer: Tracer):
    """Trace the layers of gaitassist inside this context.

    Every module that looks a wrapped name up at call time gets the same
    wrapper, so the benchmark's own calls (`runner.run_trial`,
    `simgait.generate`, `trial_io.save_trial`) are traced too.
    """
    from gaitassist import cli, runner, signals, simgait, trial_io

    wrap = tracer.wrap
    patches = [
        ((runner,), "replay", tracer.wrap_iter(REPLAY, runner.replay)),
        ((runner,), "fsr_step", wrap(FSR_STEP, runner.fsr_step)),
        ((runner,), "vel_step", wrap(VEL_STEP, runner.vel_step)),
        ((runner,), "controller_tick", wrap(CONTROLLER_TICK, runner.controller_tick)),
        ((runner,), "control_envelope", wrap(CONTROL_ENVELOPE, runner.control_envelope)),
        ((runner,), "score_detection", wrap(SCORE, runner.score_detection)),
        ((runner,), "phases_from_events", wrap(PHASES, runner.phases_from_events)),
        ((runner, cli), "run_trial", wrap(RUN_TRIAL, runner.run_trial, _run_attrs)),
        ((simgait, cli), "generate", wrap(GENERATE, simgait.generate)),
        (
            (trial_io, cli),
            "save_trial",
            wrap(SAVE, trial_io.save_trial, lambda args, out: {"bytes": _dir_bytes(out)}),
        ),
        (
            (trial_io, cli),
            "load_trial",
            wrap(LOAD, trial_io.load_trial, lambda args, out: {"bytes": _dir_bytes(args[0])}),
        ),
        ((cli,), "cmd_run", wrap(CMD_RUN, cli.cmd_run)),
        ((cli,), "compute_trial_metrics", wrap(TRIAL_METRICS, cli.compute_trial_metrics)),
        # cli calls emg_envelope only for the zero-phase metrics envelope
        ((cli,), "emg_envelope", wrap(ZERO_PHASE_ENVELOPE, cli.emg_envelope)),
        ((signals, simgait), "design_filter", tracer.count(DESIGN_FILTER, signals.design_filter)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mods, attr, _ in patches for mod in mods]
    for mods, attr, fn in patches:
        for mod in mods:
            setattr(mod, attr, fn)
    try:
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _quantile_us(values_ns, q: float) -> float:
    return float(np.quantile(values_ns, q)) / 1e3 if len(values_ns) else 0.0


def _median_ms(values_ns) -> float:
    return float(np.median(values_ns)) / 1e6 if len(values_ns) else 0.0


def layer_metrics(tables: list[SpanTable]) -> dict[str, float]:
    """Per-layer metrics, except call counts and imports, from traced spans."""
    dur: dict[str, list[np.ndarray]] = {}
    self_ns: dict[str, list[np.ndarray]] = {}
    attrs: dict[str, list[dict]] = {}
    runs: list[tuple[dict, float, float]] = []  # run_trial attributes, duration, self time
    ticks: list[np.ndarray] = []
    for tb in tables:
        for name in tb.names:
            m = tb.mask(name)
            dur.setdefault(name, []).append(tb.dur[m])
            self_ns.setdefault(name, []).append(tb.self_ns[m])
        for i, a in tb.attrs.items():
            attrs.setdefault(tb.names[tb.name[i]], []).append(a)
        runs += [(tb.attrs[i], tb.dur[i], tb.self_ns[i]) for i in np.flatnonzero(tb.mask(RUN_TRIAL))]
        # a tick is one replayed sample plus the per-tick calls that follow it
        per_tick = np.flatnonzero(np.logical_or.reduce([tb.mask(n) for n in _PER_TICK]))
        tick_no = np.cumsum(tb.mask(REPLAY)[per_tick]) - 1
        keep = tick_no >= 0
        ticks.append(np.bincount(tick_no[keep], weights=tb.dur[per_tick][keep]))

    def all_of(by_name: dict[str, list[np.ndarray]], name: str) -> np.ndarray:
        return np.concatenate(by_name.get(name) or [np.zeros(0)])

    def median_attr(name: str, key: str) -> int:
        values = [a[key] for a in attrs.get(name, [])]
        return int(np.median(values)) if values else 0

    out: dict[str, float] = {}
    for key, mode in (("fsr", "foot-sensors"), ("vel", "actuators-velocity")):
        mine = [(a, d, s) for a, d, s in runs if a["mode"] == mode]
        out[f"runner.run_trial_ms.{key}"] = _median_ms([d for _, d, _ in mine])
        out[f"runner.self_us_per_tick.{key}"] = _median_ms([s / a["ticks"] for a, _, s in mine]) * 1e3
    tick_ns = np.concatenate(ticks)
    out["runner.tick_us.p50"] = _quantile_us(tick_ns, 0.5)
    out["runner.tick_us.p99"] = _quantile_us(tick_ns, 0.99)
    out["runner.tick_us.max"] = float(tick_ns.max()) / 1e3 if len(tick_ns) else 0.0
    out["runner.ticks_over_budget"] = int((tick_ns > TICK_BUDGET_NS).sum())

    for metric, name in (
        ("simgait.replay_us", REPLAY),
        ("gait_fsr.step_us", FSR_STEP),
        ("gait_vel.step_us", VEL_STEP),
        ("controller.tick_us", CONTROLLER_TICK),
    ):
        out[f"{metric}.p50"] = _quantile_us(all_of(dur, name), 0.5)
        out[f"{metric}.p99"] = _quantile_us(all_of(dur, name), 0.99)
    out["simgait.generate_ms"] = _median_ms(all_of(dur, GENERATE))

    for prefix, mode in (("gait_fsr", "foot-sensors"), ("gait_vel", "actuators-velocity")):
        last = next((a for a, _, _ in reversed(runs) if a["mode"] == mode), None)
        events = last["events"] if last else 0
        out[f"{prefix}.events"] = events
        out[f"{prefix}.matched_ratio"] = last["matched"] / events if events else 0.0

    out["signals.envelope_causal_ms"] = _median_ms(all_of(dur, CONTROL_ENVELOPE))
    out["signals.envelope_zero_phase_ms"] = _median_ms(all_of(dur, ZERO_PHASE_ENVELOPE))
    out["metrics.score_ms"] = _median_ms(all_of(dur, SCORE))
    out["metrics.phases_from_events_ms"] = _median_ms(all_of(dur, PHASES))
    out["trial_io.save_ms"] = _median_ms(all_of(dur, SAVE))
    out["trial_io.bytes_written"] = median_attr(SAVE, "bytes")
    out["trial_io.load_ms"] = _median_ms(all_of(dur, LOAD))
    out["trial_io.bytes_read"] = median_attr(LOAD, "bytes")
    # cmd_run's children are load_trial and run_trial, so its self time is
    # argument handling plus the run-directory writers
    out["cli.run_writers_ms"] = _median_ms(all_of(self_ns, CMD_RUN))
    out["cli.compute_trial_metrics_ms"] = _median_ms(all_of(dur, TRIAL_METRICS))
    return out
