"""Trial logs on disk: a directory of CSV channels plus a text manifest.

Every table is comma separated with a mandatory header row, decimal points,
and a first column `t_s` in seconds printed with six decimals. The manifest
is UTF-8 `key = value` lines. Formatting is fixed so identical inputs always
produce byte-identical directories.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .gait import EventKind, Foot, GaitEvent
from .signals import EmgChannel, TimeSeries
from .simgait import STATE_BY_CODE, ChannelRates, GaitParams, TrialLog, TrialTruth

FORMAT_TAG = "gaitassist-trial/1"

_PHASE_NAMES = ("stance", "swing")
_PARAM_KEYS = (
    "cadence_hz",
    "stance_fraction",
    "speed_m_s",
    "omega_amp_rad_s",
    "load_peak_n",
    "emg_level",
    "noise_sigma",
)


def format_manifest(entries: list[tuple[str, str]]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in entries)


def parse_manifest(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"manifest line {lineno} is not 'key = value': {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def write_manifest(path: Path, entries: list[tuple[str, str]]) -> None:
    path.write_text(format_manifest(entries), encoding="utf-8")


def read_manifest(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise DataFormatError(f"missing manifest: {path}")
    return parse_manifest(path.read_text(encoding="utf-8"))


def _write_table(path: Path, columns: list[str], rows: np.ndarray) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        np.savetxt(fh, rows, fmt="%.6f", delimiter=",", newline="\n")


def _read_table(path: Path, expected_columns: list[str]) -> np.ndarray:
    if not path.is_file():
        raise DataFormatError(f"missing channel file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.split(",") != expected_columns:
            raise DataFormatError(
                f"{path.name}: header {header!r} does not match {expected_columns}"
            )
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataFormatError(f"{path.name}: {exc}") from exc
    if data.size == 0:
        raise DataFormatError(f"{path.name}: no data rows")
    if data.shape[1] != len(expected_columns):
        raise DataFormatError(
            f"{path.name}: expected {len(expected_columns)} columns, got {data.shape[1]}"
        )
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DataFormatError(
            f"{path.name}: non-finite {expected_columns[col]} in data row {row + 1}"
        )
    return data


_OMEGA_COLS = ["t_s", "omega_left_rad_s", "omega_right_rad_s"]
_INSOLE_COLS = ["t_s"] + [f"f{i}_n" for i in range(8)]
_EMG_COLS = ["t_s", "emg_mv"]
_KINEMATICS_COLS = [
    "t_s",
    "foot_left_x_m",
    "foot_left_y_m",
    "foot_right_x_m",
    "foot_right_y_m",
    "hip_left_deg",
    "hip_right_deg",
    "knee_left_deg",
    "knee_right_deg",
]
_LABEL_COLS = ["t_s", "gait_state", "phase_left", "phase_right"]
_EVENT_COLS = ["t_s", "foot", "kind"]


def save_trial(log: TrialLog, out_dir: Path | str) -> Path:
    """Write `log` into `out_dir`, creating it if needed. Returns the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t = log.times()

    channels = ["omega", "insole_left", "insole_right", "emg", "kinematics"]
    if log.truth is not None:
        channels += ["truth_labels", "truth_events"]

    entries: list[tuple[str, str]] = [
        ("format", FORMAT_TAG),
        ("control_rate_hz", f"{log.rates.control_hz:.6f}"),
        ("emg_rate_hz", f"{log.rates.emg_hz:.6f}"),
        ("n_ticks", str(log.n_ticks)),
        ("duration_s", f"{log.duration_s:.6f}"),
        ("mvc_mv", f"{log.emg.mvc:.6f}"),
        ("channels", ",".join(channels)),
        ("has_truth", "true" if log.truth is not None else "false"),
    ]
    if log.params is not None:
        for key in _PARAM_KEYS:
            entries.append((key, f"{getattr(log.params, key):.6f}"))
        entries.append(("seed", str(log.params.seed)))
    write_manifest(out / "manifest.txt", entries)

    _write_table(
        out / "omega.csv",
        _OMEGA_COLS,
        np.column_stack([t, log.omega_left.samples, log.omega_right.samples]),
    )
    for foot, name in ((Foot.LEFT, "insole_left"), (Foot.RIGHT, "insole_right")):
        _write_table(
            out / f"{name}.csv", _INSOLE_COLS, np.column_stack([t, log.insole[foot]])
        )
    t_emg = log.emg.raw.times()
    _write_table(out / "emg.csv", _EMG_COLS, np.column_stack([t_emg, log.emg.raw.samples]))
    _write_table(
        out / "kinematics.csv",
        _KINEMATICS_COLS,
        np.column_stack(
            [
                t,
                log.foot_xy[Foot.LEFT],
                log.foot_xy[Foot.RIGHT],
                log.hip_deg[Foot.LEFT].samples,
                log.hip_deg[Foot.RIGHT].samples,
                log.knee_deg[Foot.LEFT].samples,
                log.knee_deg[Foot.RIGHT].samples,
            ]
        ),
    )

    if log.truth is not None:
        states = log.truth.state_codes
        left = log.truth.phases[Foot.LEFT]
        right = log.truth.phases[Foot.RIGHT]
        with open(out / "truth_labels.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(_LABEL_COLS) + "\n")
            for k in range(log.n_ticks):
                fh.write(
                    f"{t[k]:.6f},{STATE_BY_CODE[states[k]].value},"
                    f"{_PHASE_NAMES[left[k]]},{_PHASE_NAMES[right[k]]}\n"
                )
        write_events_csv(out / "truth_events.csv", log.truth.events)
    return out


def write_events_csv(path: Path, events: list[GaitEvent]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_EVENT_COLS) + "\n")
        for ev in events:
            fh.write(f"{ev.t:.6f},{ev.foot.value},{ev.kind.value}\n")


def read_events_csv(path: Path) -> list[GaitEvent]:
    if not path.is_file():
        raise DataFormatError(f"missing events file: {path}")
    events: list[GaitEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.split(",") != _EVENT_COLS:
            raise DataFormatError(f"{path.name}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataFormatError(f"{path.name}:{lineno}: malformed row {line!r}")
            try:
                events.append(GaitEvent(float(parts[0]), Foot(parts[1]), EventKind(parts[2])))
            except ValueError as exc:
                raise DataFormatError(f"{path.name}:{lineno}: {exc}") from exc
    return events


def _read_truth(trial_dir: Path, n: int) -> TrialTruth:
    path = trial_dir / "truth_labels.csv"
    if not path.is_file():
        raise DataFormatError(f"missing channel file: {path}")
    phase_code = {"stance": np.int8(0), "swing": np.int8(1)}
    left = np.zeros(n, dtype=np.int8)
    right = np.zeros(n, dtype=np.int8)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.split(",") != _LABEL_COLS:
            raise DataFormatError(f"{path.name}: unexpected header {header!r}")
        k = 0
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4 or parts[2] not in phase_code or parts[3] not in phase_code:
                raise DataFormatError(f"{path.name}:{lineno}: malformed row {line!r}")
            if k >= n:
                raise DataFormatError(f"{path.name}: more rows than n_ticks={n}")
            left[k] = phase_code[parts[2]]
            right[k] = phase_code[parts[3]]
            k += 1
    if k != n:
        raise DataFormatError(f"{path.name}: expected {n} rows, got {k}")
    events = read_events_csv(trial_dir / "truth_events.csv")
    return TrialTruth(phases={Foot.LEFT: left, Foot.RIGHT: right}, events=events)


def load_trial(trial_dir: Path | str) -> TrialLog:
    """Read a trial directory written by :func:`save_trial`.

    Raises DataFormatError, naming the file, for anything malformed: a
    missing file or key, a manifest value that does not parse or is out of
    range, a bad header or row count, a cell that is not a finite number,
    or a negative insole force.
    """
    trial_dir = Path(trial_dir)
    manifest = read_manifest(trial_dir / "manifest.txt")
    if manifest.get("format") != FORMAT_TAG:
        raise DataFormatError(
            f"unsupported trial format {manifest.get('format')!r} in {trial_dir}"
        )
    try:
        rates = ChannelRates(
            control_hz=float(manifest["control_rate_hz"]),
            emg_hz=float(manifest["emg_rate_hz"]),
        )
        n = int(manifest["n_ticks"])
        mvc = float(manifest["mvc_mv"])
        has_truth = manifest.get("has_truth", "false") == "true"
        params = None
        if all(key in manifest for key in _PARAM_KEYS) and "seed" in manifest:
            params = GaitParams(
                **{key: float(manifest[key]) for key in _PARAM_KEYS},
                seed=int(manifest["seed"]),
            )
    except KeyError as exc:
        raise DataFormatError(f"manifest is missing key {exc}") from exc
    except ValueError as exc:  # unparsable or out-of-range value
        raise DataFormatError(f"manifest.txt: {exc}") from exc

    def expect_rows(table: np.ndarray, rows: int, name: str) -> np.ndarray:
        if table.shape[0] != rows:
            raise DataFormatError(f"{name}: expected {rows} rows, got {table.shape[0]}")
        return table

    omega = expect_rows(_read_table(trial_dir / "omega.csv", _OMEGA_COLS), n, "omega.csv")
    insole = {}
    for foot, name in ((Foot.LEFT, "insole_left"), (Foot.RIGHT, "insole_right")):
        table = _read_table(trial_dir / f"{name}.csv", _INSOLE_COLS)
        forces = expect_rows(table, n, f"{name}.csv")[:, 1:]
        if (forces < 0.0).any():
            row, col = np.argwhere(forces < 0.0)[0]
            raise DataFormatError(
                f"{name}.csv: negative force {_INSOLE_COLS[col + 1]} in data row {row + 1}"
            )
        insole[foot] = forces
    n_emg = int(round(n * rates.emg_hz / rates.control_hz))
    emg = expect_rows(_read_table(trial_dir / "emg.csv", _EMG_COLS), n_emg, "emg.csv")
    kin = expect_rows(
        _read_table(trial_dir / "kinematics.csv", _KINEMATICS_COLS), n, "kinematics.csv"
    )

    truth = _read_truth(trial_dir, n) if has_truth else None

    control = rates.control_hz
    return TrialLog(
        rates=rates,
        omega_left=TimeSeries(omega[:, 1], control),
        omega_right=TimeSeries(omega[:, 2], control),
        insole=insole,
        emg=EmgChannel(TimeSeries(emg[:, 1], rates.emg_hz), mvc=mvc, label="forearm"),
        foot_xy={Foot.LEFT: kin[:, 1:3], Foot.RIGHT: kin[:, 3:5]},
        hip_deg={
            Foot.LEFT: TimeSeries(kin[:, 5], control),
            Foot.RIGHT: TimeSeries(kin[:, 6], control),
        },
        knee_deg={
            Foot.LEFT: TimeSeries(kin[:, 7], control),
            Foot.RIGHT: TimeSeries(kin[:, 8], control),
        },
        truth=truth,
        params=params,
    )
