"""On-disk formats: trial directories, run tables and metrics tables.

Every table is comma separated with a mandatory header row and decimal
points; time-indexed tables start with a column `t_s` in seconds printed with
six decimals, sample k at k / rate. Manifests are UTF-8 `key = value` lines.
Formatting is fixed so identical inputs always produce byte-identical files.
"""
from __future__ import annotations

import math
import os
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .gait import BLOCK_TICKS, EventKind, Foot, GaitEvent
from .metrics import METRIC_COLUMNS, TrialMetrics
from .signals import EmgChannel, TimeSeries
from .simgait import (
    STATE_BY_CODE, ChannelRates, GaitParams, TrialLog, TrialTruth, gait_state_codes
)

FORMAT_TAG = "gaitassist-trial/1"

_PHASE_NAMES = ("stance", "swing")  # indexed by phase code

# A `%.6f` cell is spelled in little-endian words: its sign and integer part
# right-aligned in 8 bytes, then `.ddd` and `ddd,`. Spaces pad words and are
# dropped from joined blocks. Digits and `-` have the space's bit set, so `|`
# of a padded word and a spelled one keeps what is spelled.
_LIMIT = 10**12  # rounded |cell| * 1e6 the words spell: integer parts to 999999
_DIGITS = [f"{k:03d}" for k in range(1000)]


def _words(texts: list[str], width: int = 0) -> np.ndarray:
    """`texts` right-aligned in `width` bytes, by default the fewest 8-byte words that fit."""
    width = width or -(-max(map(len, texts)) // 8) * 8
    return np.array([text.rjust(width) for text in texts], f"S{width}").view(f"<u{min(width, 8)}")


# An integer part h * 1000 + k is _HIGH_WORDS[h + s] | _LOW_WORDS[k + s + 2000 * (h > 0)],
# s = 1000 if the cell is negative: the sign goes before h, or before k if h = 0
_HIGH_WORDS = _words([f"{sign}{h}   " if h else "" for sign in ("", "-") for h in range(1000)], 8)
_LOW_WORDS = _words([f"{sign}{k}" for sign in ("", "-") for k in range(1000)] + 2 * _DIGITS)
_FRAC_HIGH = _words(["." + d for d in _DIGITS], 4)
_FRAC_LOW = _words([d + "," for d in _DIGITS], 4)
# Reading takes the words back: a cell and its separator end 16 bytes of
# text, read as two words, the sign and integer part, then `.dddddd` and the
# separator. XOR with the text of a zero cell turns digits into 0-9 and the
# dot and the right separator into 0; adding _LIMITS then sets the top bit of
# any byte above its limit, 9 or 0.
_LIMITS = np.array([0x76 * 0x0101010101010101, 0x7F7676767676767F], "<u8")
_TOP_BITS = 0x80 * 0x0101010101010101
# Indexed by 2 * d + s, d the distance from the separator before a cell to its
# own and s = 1 if the cell starts with `-`: the digit bytes of the first
# word, its top d - 8 - s, or else its top byte, which then holds no digit;
# and the scale of the digits.
_KEEP = np.array(
    [2**64 - (1 << 64 - 8 * max(d - 8 - s, 1)) for d in range(17) for s in (0, 1)], "<u8"
)
_SCALES = np.tile([1e7, -1e7], 17)
_CHUNK_BYTES = 1 << 17  # table text parsed at a time
_PAD = 16  # buffer bytes before each chunk, the last a newline, so windows fit
# `gait_state,phase_left,phase_right` ending a labels row, indexed by state
# code (the left leg's phase code is its high bit)
_LABEL_WORDS = _words([
    f"{state.value},{_PHASE_NAMES[code >> 1]},{_PHASE_NAMES[code & 1]}\n"
    for code, state in enumerate(STATE_BY_CODE)
]).reshape(len(STATE_BY_CODE), -1)
# `gait_state` of a labels row, indexed by state code
_STATE_NAMES = np.array([state.value for state in STATE_BY_CODE])
# truth_labels.csv as loadtxt reads it. A cell longer than its field is cut
# to the field's width, still longer than any name it may hold, so it cannot
# pass as one.
_TRUTH_ROW = np.dtype([("t_s", float), ("state", "U24"), ("left", "U7"), ("right", "U7")])
_GRID_TOLERANCE_S = 1e-6  # `t_s` against k / rate; printing rounds by at most 5e-7
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
    with utf8_errors(path.name):
        return parse_manifest(path.read_text(encoding="utf-8"))


def _fixed_point_words(block: np.ndarray) -> np.ndarray | None:
    """Each cell of the 2-D `block` as `%.6f` spells it, then a comma, in two
    words (shape block.shape + (2,)); None if a cell is not finite or rounds
    to 1e6 or more in magnitude.
    """
    with np.errstate(over="ignore"):  # inf is past _LIMIT too
        y = np.multiply(block, 1e6, dtype=float)
    n = np.rint(y)
    m = np.abs(n)
    top = m.max()
    if not top < _LIMIT:  # NaN too
        return None
    # y is off the exact product by at most |y| * 2**-53, so rint(y) rounds as
    # `%` does unless y is about that close to a tie; `%` spells those cells
    ties = np.flatnonzero(np.abs(y - n) >= 0.5 - (top + 1) * 2.0**-50)
    m = m.astype(np.int64)
    for i in ties:  # none reaches _LIMIT: fl is monotone and 999999999999.5 a double
        m.flat[i] = int(("%.6f" % abs(block.flat[i])).replace(".", ""))
    whole = m // 10**6
    frac = m - whole * 10**6
    frac_high = frac // 1000
    sign = np.signbit(block) * 1000  # `%` prints -0.0 and -4e-7 as -0.000000
    high = whole // 1000
    low = whole - 1000 * high + sign
    out = np.empty(block.shape + (2,), "<u8")
    out[..., 0] = _HIGH_WORDS[high + sign] | _LOW_WORDS[low + 2000 * (high > 0)]
    half = out.view("<u4")
    half[..., 2] = _FRAC_HIGH[frac_high]
    half[..., 3] = _FRAC_LOW[frac - 1000 * frac_high]
    return out


def _exact_words(block: np.ndarray) -> np.ndarray:
    """:func:`_fixed_point_words` of any `block`, every cell through `%`."""
    return _words(["%.6f," % cell for cell in block.ravel().tolist()]).reshape(block.shape + (-1,))


def format_rows(*parts: np.ndarray, tails: np.ndarray | None = None) -> Iterator[str]:
    """Data rows of a table: `parts`, 1-D columns or 2-D groups of columns,
    side by side, every cell `%.6f` and comma separated; one string per block
    of BLOCK_TICKS rows, so memory stays flat. A row ends with a newline, or
    with a comma and its row of `tails` words (see _words), whose text ends
    with one.

    The bytes are those of CPython's `%`, which np.savetxt reaches on each
    row. numpy spells the cells (_fixed_point_words); `%` spells only blocks
    with a non-finite cell or one of 1e6 or more (_exact_words).
    """
    for start in range(0, len(parts[0]), BLOCK_TICKS):
        stop = start + BLOCK_TICKS
        block = np.column_stack([part[start:stop] for part in parts])
        words = _fixed_point_words(block)
        if words is None:
            words = _exact_words(block)
        if tails is None:
            words.view(np.uint8)[:, -1, -1] = ord("\n")  # the last cell's comma
        else:
            words = np.concatenate([words.reshape(len(block), -1), tails[start:stop]], axis=1)
        yield words.tobytes().translate(None, b" ").decode("ascii")


def write_table(path: Path, columns: list[str], *parts: np.ndarray) -> None:
    """Write the rows of `parts` (see :func:`format_rows`) under a header of
    `columns`, every cell as `%.6f`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(format_rows(*parts))


def _eight_digits(x: np.ndarray) -> None:
    """Replace each word of digit values, its first byte the most significant
    digit, by the number it spells."""
    x *= 10 * 2**8 + 1  # pairs of digits in every other byte
    x >>= 8
    x &= 0x00FF00FF00FF00FF
    x *= 100 * 2**16 + 1  # fours in every other 16 bits
    x >>= 16
    x &= 0x0000FFFF0000FFFF
    x *= 10000 * 2**32 + 1  # all eight in the top 32 bits
    x >>= 32


def _read_fixed_point(fh, ncols: int, rows: int) -> np.ndarray | None:
    """The (`rows`, `ncols`) table left in the binary file `fh` if it is just
    that many lines of comma-separated cells `-?d+.dddddd` with at most 8
    characters before the dot, each line ending in a newline; else None.

    The text is read in chunks that end at a newline, into one buffer. A
    cell's value is N / 1e7, N ten times its digits as an integer: N < 2**53
    and 1e7 are exact doubles and division rounds correctly, so it is the
    double that np.loadtxt reads from the cell, bit for bit.
    """
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 < 9 * rows * ncols <= size:  # the shortest cell is `d.dddddd,`
        return None
    out = np.empty(rows * ncols)
    buf = bytearray(_PAD + min(size, _CHUNK_BYTES))
    most = len(buf) // (9 * ncols) + 1  # rows a chunk can hold
    # one row of zero cells, and the limits, for every cell a chunk can hold
    zero_row = _words([f"00000000.000000{sep}" for sep in "," * (ncols - 1) + "\n"])
    zero_cells = np.tile(zero_row, most)
    limits = np.tile(_LIMITS, ncols * most)
    buf[_PAD - 1] = ord("\n")
    text = np.frombuffer(buf, np.uint8)
    windows = np.ndarray(len(buf) + 1 - _PAD, "V16", buf, _PAD - 16, (1,))
    done = carry = 0
    while got := fh.readinto(memoryview(buf)[_PAD + carry :]):
        end = _PAD + carry + got
        stop = buf.rfind(b"\n", _PAD, end) + 1
        # separators, counted from the newline before the chunk; windows[i]
        # ends with separator i. Digits, '-' and '.' lie above ','.
        seps = np.flatnonzero(text[_PAD - 1 : stop] <= ord(","))
        prev, sep = seps[:-1], seps[1:]
        cells = len(sep)
        if not stop or cells % ncols or cells > ncols * most or done + cells > out.size:
            return None
        kind = sep - prev
        if kind.max() > 16:  # more than 8 characters before the dot
            return None
        kind += kind
        kind += text[_PAD:stop][prev] == ord("-")
        words = windows[sep].view("<u8")
        words ^= zero_cells[: 2 * cells]
        pairs = words.reshape(-1, 2)
        pairs[:, 0] &= _KEEP[kind]
        bad = words + limits[: 2 * cells]
        bad |= words
        bad &= _TOP_BITS
        if bad.max():
            return None
        _eight_digits(words)
        value = pairs[:, 0] * 10**7
        value += pairs[:, 1]
        np.divide(value.view(np.int64), _SCALES[kind], out=out[done : done + cells])
        done += cells
        carry = end - stop
        buf[_PAD : _PAD + carry] = buf[stop:end]
    return out.reshape(rows, ncols) if done == out.size and not carry else None


@contextmanager
def utf8_errors(name: str) -> Iterator[None]:
    """A UnicodeDecodeError inside, as a DataFormatError naming the file `name`."""
    try:
        yield
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise DataFormatError(f"{name}: byte 0x{byte:02x} is not UTF-8 ({exc.reason})") from exc


def _loadtxt(
    fh, name: str, columns: list[str], dtype=float, comments: str | None = "#", ndmin: int = 2
) -> np.ndarray:
    """np.loadtxt of the comma-separated rows left in `fh`, headed `columns`.

    A row that does not parse is a DataFormatError naming the file and the
    row's 1-based data row number. A file without rows is left to the
    caller's row count, without numpy's warning.
    """
    start = fh.tell()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(fh, delimiter=",", dtype=dtype, comments=comments, ndmin=ndmin)
        except ValueError as exc:
            fh.seek(start)
            problem = _first_bad_row(fh, columns, dtype, comments)
            raise DataFormatError(f"{name}: {problem}") from exc


def _first_bad_row(fh, columns: list[str], dtype, comments: str | None) -> str:
    """What is wrong with the first row left in `fh` that np.loadtxt, called
    with `dtype` and `comments`, cannot parse; data rows are counted as it
    counts them, skipping blank and comment lines."""
    dtype = np.dtype(dtype)
    numeric = [not dtype.names or dtype[i].kind == "f" for i in range(len(columns))]
    row = 0
    for line in fh:
        if comments is not None:
            line = line.split(comments, 1)[0]
        if not line.strip():
            continue
        row += 1
        cells = line.strip().split(",")
        if len(cells) != len(columns):
            return f"data row {row} has {len(cells)} cells, expected {len(columns)}"
        for column, cell, is_number in zip(columns, cells, numeric):
            if not is_number:
                continue
            try:
                float(cell)
            except ValueError:
                return f"{column} {cell.strip()!r} in data row {row} is not a number"
    return "rows do not parse as comma-separated values"


def _read_table(path: Path, expected_columns: list[str], rows: int) -> np.ndarray:
    """The float table at `path`, expected to hold `rows` rows: by
    :func:`_read_fixed_point` if it can, else, and for every error, by np.loadtxt."""
    if not path.is_file():
        raise DataFormatError(f"missing channel file: {path}")
    with open(path, "rb") as fh:
        plain = fh.readline() == f"{','.join(expected_columns)}\n".encode()
        data = _read_fixed_point(fh, len(expected_columns), rows) if plain else None
    if data is None:
        with utf8_errors(path.name), open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header.split(",") != expected_columns:
                raise DataFormatError(
                    f"{path.name}: header {header!r} does not match {expected_columns}"
                )
            data = _loadtxt(fh, path.name, expected_columns)
    if data.size == 0:
        raise DataFormatError(f"{path.name}: no data rows")
    if data.shape[1] != len(expected_columns):
        raise DataFormatError(
            f"{path.name}: expected {len(expected_columns)} columns, got {data.shape[1]}"
        )
    _require_finite(path.name, expected_columns, data)
    return data


def _require_finite(name: str, columns: list[str], data: np.ndarray) -> None:
    """DataFormatError naming the first non-finite cell of `data`, headed `columns`."""
    bad = ~np.isfinite(data)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DataFormatError(f"{name}: non-finite {columns[col]!r} in data row {row + 1}")


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
TORQUE_COLS = ["t_s", "tau_left_nm", "tau_right_nm"]


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

    write_table(out / "omega.csv", _OMEGA_COLS, t, log.omega_left.samples, log.omega_right.samples)
    for foot, name in ((Foot.LEFT, "insole_left"), (Foot.RIGHT, "insole_right")):
        write_table(out / f"{name}.csv", _INSOLE_COLS, t, log.insole[foot])
    write_table(out / "emg.csv", _EMG_COLS, log.emg.raw.times(), log.emg.raw.samples)
    write_table(
        out / "kinematics.csv",
        _KINEMATICS_COLS,
        t,
        log.foot_xy[Foot.LEFT],
        log.foot_xy[Foot.RIGHT],
        log.hip_deg[Foot.LEFT].samples,
        log.hip_deg[Foot.RIGHT].samples,
        log.knee_deg[Foot.LEFT].samples,
        log.knee_deg[Foot.RIGHT].samples,
    )

    if log.truth is not None:
        write_labels_csv(out / "truth_labels.csv", t, log.truth.phases)
        write_events_csv(out / "truth_events.csv", log.truth.events)
    return out


def write_labels_csv(path: Path, t: np.ndarray, phases: dict[Foot, np.ndarray]) -> None:
    """Per-tick two-leg state and per-leg phase; `phases` are 0 stance, 1 swing."""
    tails = _LABEL_WORDS[gait_state_codes(phases)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_LABEL_COLS) + "\n")
        fh.writelines(format_rows(t, tails=tails))


def write_events_csv(path: Path, events: list[GaitEvent]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_EVENT_COLS) + "\n")
        for ev in events:
            fh.write(f"{ev.t:.6f},{ev.foot.value},{ev.kind.value}\n")


def read_events_csv(path: Path) -> list[GaitEvent]:
    if not path.is_file():
        raise DataFormatError(f"missing events file: {path}")
    events: list[GaitEvent] = []
    with utf8_errors(path.name), open(path, "r", encoding="utf-8") as fh:
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


def _check_grid(name: str, t: np.ndarray, rate_hz: float) -> None:
    """Every `t_s` within _GRID_TOLERANCE_S of k / rate_hz, k its data row - 1."""
    off = np.arange(len(t)) / rate_hz
    off -= t
    bad = ~(np.abs(off, out=off) <= _GRID_TOLERANCE_S)  # NaN is off the grid too
    if bad.any():
        row = int(np.argmax(bad))
        raise DataFormatError(
            f"{name}: t_s {t[row]:.6f} in data row {row + 1} is off the "
            f"{rate_hz:g} Hz grid (expected {row / rate_hz:.6f})"
        )


def _read_truth(trial_dir: Path, n: int, rate_hz: float) -> TrialTruth:
    path = trial_dir / "truth_labels.csv"
    if not path.is_file():
        raise DataFormatError(f"missing channel file: {path}")
    with utf8_errors(path.name), open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.split(",") != _LABEL_COLS:
            raise DataFormatError(f"{path.name}: unexpected header {header!r}")
        rows = _loadtxt(fh, path.name, _LABEL_COLS, dtype=_TRUTH_ROW, comments=None, ndmin=1)
    if len(rows) != n:
        raise DataFormatError(f"{path.name}: expected {n} rows, got {len(rows)}")
    _check_grid(path.name, rows["t_s"], rate_hz)
    phases = {}
    for foot, column in ((Foot.LEFT, "left"), (Foot.RIGHT, "right")):
        names = rows[column]
        codes = np.full(n, -1, dtype=np.int8)
        for code, name in enumerate(_PHASE_NAMES):
            codes[names == name] = code
        if (codes < 0).any():
            row = int(np.argmax(codes < 0))
            raise DataFormatError(
                f"{path.name}: unknown phase_{column} {str(names[row])!r} in data row {row + 1}"
            )
        phases[foot] = codes
    wrong = rows["state"] != _STATE_NAMES[gait_state_codes(phases)]
    if wrong.any():
        row = int(np.argmax(wrong))
        state, left, right = (str(rows[column][row]) for column in ("state", "left", "right"))
        raise DataFormatError(
            f"{path.name}: gait_state {state!r} in data row {row + 1} does not "
            f"match phase_left {left!r} and phase_right {right!r}"
        )
    events = read_events_csv(trial_dir / "truth_events.csv")
    return TrialTruth(phases=phases, events=events)


def load_trial(trial_dir: Path | str) -> TrialLog:
    """Read a trial directory written by :func:`save_trial`.

    Raises DataFormatError, naming the file, for anything malformed: a
    missing file or key, a manifest value that does not parse or is out of
    range, a bad header or row count, a cell that is not a finite number,
    a `t_s` off the k / rate grid, an unknown phase name, a gait state that
    does not match the phases, or a negative insole force.
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
        if not 0 < mvc < math.inf:
            raise ValueError(f"mvc_mv must be positive and finite, got {mvc}")
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

    def read_series(name: str, columns: list[str], rows: int, rate_hz: float) -> np.ndarray:
        table = _read_table(trial_dir / name, columns, rows)
        if table.shape[0] != rows:
            raise DataFormatError(f"{name}: expected {rows} rows, got {table.shape[0]}")
        _check_grid(name, table[:, 0], rate_hz)
        return table

    control = rates.control_hz
    omega = read_series("omega.csv", _OMEGA_COLS, n, control)
    insole = {}
    for foot, name in ((Foot.LEFT, "insole_left"), (Foot.RIGHT, "insole_right")):
        forces = read_series(f"{name}.csv", _INSOLE_COLS, n, control)[:, 1:]
        if (forces < 0.0).any():
            row, col = np.argwhere(forces < 0.0)[0]
            raise DataFormatError(
                f"{name}.csv: negative force {_INSOLE_COLS[col + 1]} in data row {row + 1}"
            )
        insole[foot] = forces
    n_emg = int(round(n * rates.emg_hz / control))
    emg = read_series("emg.csv", _EMG_COLS, n_emg, rates.emg_hz)
    kin = read_series("kinematics.csv", _KINEMATICS_COLS, n, control)

    truth = _read_truth(trial_dir, n, control) if has_truth else None

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


def format_metrics_csv(rows: list[tuple[str, TrialMetrics]]) -> str:
    """The `analyze` table: a `trial` column, then one column per metric."""
    lines = ["trial," + ",".join(METRIC_COLUMNS)]
    for name, m in rows:
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in m.as_row()))
    return "\n".join(lines) + "\n"


def read_metrics_csv(path: Path | str) -> tuple[list[str], np.ndarray]:
    """Metric names and a (trials, metrics) array from an `analyze` table."""
    p = Path(path)
    if not p.is_file():
        raise DataFormatError(f"metrics file not found: {p}")
    with utf8_errors(str(p)):
        text = p.read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataFormatError(f"{p}: empty metrics file")
    header = lines[0].split(",")
    if header[0] != "trial" or len(header) < 2:
        raise DataFormatError(f"{p}: unexpected metrics header {lines[0]!r}")
    values = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise DataFormatError(f"{p}: row width mismatch in {ln!r}")
        try:
            values.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise DataFormatError(f"{p}: {exc}") from exc
    if not values:
        raise DataFormatError(f"{p}: no metric rows")
    data = np.asarray(values)
    _require_finite(str(p), header[1:], data)
    return header[1:], data
