"""Output checks: SHA-256 digests of what the program wrote, and invariants.

On a seed recorded in `reference.json` the digests must equal the recorded
ones. On every seed each digest must repeat across the passes of one run,
traced or not, and the invariants below must hold:

* `gait.check_event_stream` accepts the detected events;
* phase accuracy and recall reach the floor of acceptance criterion 4;
* torques lie in [0, k_myo * k_stance];
* trial metrics and the compare table are finite.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

ACCURACY_FLOOR = 0.95  # acceptance criterion 4 (noisy trials)
RECALL_FLOOR = 0.95  # criterion 4 names no recall floor; the same 0.95 is applied


class CheckFailed(Exception):
    """An output differs from its reference or breaks an invariant."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def digest_files(paths) -> str:
    """Digest of the names and bytes of `paths`; a directory counts as its files."""
    h = hashlib.sha256()
    for path in paths:
        path = Path(path)
        files = sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(f.name.encode() + b"\0")
            with open(f, "rb") as fh:  # in blocks, so checks add little to peak memory
                while block := fh.read(1 << 20):
                    h.update(block)
    return h.hexdigest()


def digest_run_result(result) -> str:
    """Digest of every array and event of an in-memory `RunResult`."""
    from gaitassist.gait import Foot

    h = hashlib.sha256()
    arrays = [result.t, result.tau_left, result.tau_right, result.tau_exo,
              result.emg_norm.samples, result.state_codes]
    arrays += [result.causal_phases[f] for f in Foot] + [result.event_phases[f] for f in Foot]
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    for ev in result.events:
        h.update(f"{ev.t!r},{ev.foot.value},{ev.kind.value};".encode())
    h.update(repr(result.score).encode())
    return h.hexdigest()


def _torque_limit() -> float:
    from gaitassist.controller import ControllerConfig

    cfg = ControllerConfig()
    return cfg.k_myo_nm * cfg.k_stance


def _check_detection(events, accuracy: float, recall: float, what: str) -> None:
    from gaitassist.gait import check_event_stream

    try:
        check_event_stream(events)
    except ValueError as exc:
        raise CheckFailed(f"{what}: {exc}") from exc
    require(accuracy >= ACCURACY_FLOOR, f"{what}: phase accuracy {accuracy} below floor")
    require(recall >= RECALL_FLOOR, f"{what}: recall {recall} below floor")


def _check_torque(values: np.ndarray, what: str) -> None:
    limit = _torque_limit()
    require(
        bool(np.all((values >= 0.0) & (values <= limit))),
        f"{what}: torque outside [0, {limit}]",
    )


def check_run_result(result) -> None:
    what = f"run_trial {result.mode.value}"
    require(result.score is not None, f"{what}: no score")
    _check_detection(result.events, result.score.phase_accuracy, result.score.recall, what)
    _check_torque(np.concatenate([result.tau_left, result.tau_right]), what)


def check_run_dir(run_dir: Path) -> None:
    """Invariants of the files `gaitassist run` wrote."""
    from gaitassist.trial_io import read_events_csv, read_manifest

    score = read_manifest(run_dir / "score.txt")
    _check_detection(
        read_events_csv(run_dir / "events.csv"),
        float(score["phase_accuracy"]),
        float(score["recall"]),
        str(run_dir.name),
    )
    torque = np.loadtxt(run_dir / "torque.csv", delimiter=",", skiprows=1)
    _check_torque(torque[:, 1:], run_dir.name)


def check_finite_table(path: Path) -> None:
    """Every value cell of a metrics or compare CSV is a finite number."""
    lines = path.read_text(encoding="utf-8").splitlines()
    require(len(lines) >= 2, f"{path.name}: no rows")
    for line in lines[1:]:
        cells = line.split(",")[1:]
        require(
            bool(cells) and all(math.isfinite(float(c)) for c in cells),
            f"{path.name}: non-finite value in {line!r}",
        )


class Expectations:
    """Digests seen in one run, held against the reference and each other."""

    def __init__(self, reference: dict[str, str] | None) -> None:
        self.reference = reference or {}
        self.seen: dict[str, str] = {}

    def expect(self, key: str, digest: str) -> None:
        first = self.seen.setdefault(key, digest)
        require(digest == first, f"{key}: output differs from the first pass of this run")
        want = self.reference.get(key)
        require(want is None or want == digest, f"{key}: output differs from reference digest")
