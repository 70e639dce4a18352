"""On-disk formats: trial directories and run tables.

Every table is comma separated with a mandatory header row and decimal
points; time-indexed tables start with a column `t_s` in seconds printed with
six decimals, sample k at k / rate. Manifests are UTF-8 `key = value` lines,
values spelled by :func:`format_value` and read, like CLI settings, by
:func:`parse_value`; both live in `settings`, with the `analyze` and
`compare` tables. Formatting is fixed so identical inputs always produce
byte-identical files.
"""
from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Iterator
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataFormatError, InvalidSpecError, check_range
from .gait import (
    FEET, KINDS, STATE_BY_CODE, Events, Foot, Phase, gait_state_codes,
)
from .settings import (
    ChannelRates, GaitParams, _non_finite, _settings_entries, _settings_from, format_value,
    parse_manifest, parse_value, read_manifest, utf8_errors, write_manifest,
)
from .signals import EmgChannel, TimeSeries
from .simgait import _GRID_TOLERANCE_S, DEFAULT_MVC_MV, TrialLog, TrialTruth

# The trial format, the manifest spelling from `settings` included
__all__ = [
    "BLOCK_TICKS", "FORMAT_TAG", "TORQUE_COLS", "format_rows", "format_value", "load_trial",
    "parse_manifest", "parse_value", "read_events_csv", "read_manifest", "save_trial",
    "write_events_csv", "write_labels_csv", "write_manifest", "write_table",
]
FORMAT_TAG = "gaitassist-trial/1"
# Rows that format_rows spells at a time: enough to amortise numpy's work per
# call, few enough that no table's text is ever held whole in memory.
BLOCK_TICKS = 4096

# The words each name column may hold, in code order (see gait): the reader
# reads a name cell as its word's code, which indexes the writer's word tables
_NAMES = {
    column: tuple(word.value for word in words)
    for column, words in [
        ("gait_state", STATE_BY_CODE), ("phase_left", Phase), ("phase_right", Phase),
        ("foot", FEET), ("kind", KINDS),
    ]
}

# A `%.6f` cell is spelled in three little-endian 4-byte words: its sign and
# integer part, right-aligned, then `.ddd` and `ddd,`; a block that holds a
# cell of 1000 or more spells the thousands in a fourth, leading word. Spaces
# pad words and are dropped from joined blocks.
_LIMIT = 10**12  # rounded |cell| * 1e6 the words spell: integer parts to 999999
_DIGITS = [f"{k:03d}" for k in range(1000)]


def _words(texts: list[str], width: int = 0) -> np.ndarray:
    """`texts` right-aligned in `width` bytes, by default the fewest 8-byte words that fit."""
    width = width or -(-max(map(len, texts)) // 8) * 8
    return np.array([text.rjust(width) for text in texts], f"S{width}").view(f"<u{min(width, 8)}")


# An integer part h * 1000 + k is _HIGH_WORDS[h + s], then _LOW_WORDS[k + s + 2000 * (h > 0)],
# s = 1000 if the cell is negative: the sign goes before h, or before k if h = 0
_HIGH_WORDS = _words([f"{sign}{h}" if h else "" for sign in ("", "-") for h in range(1000)], 4)
_LOW_WORDS = _words([f"{sign}{k}" for sign in ("", "-") for k in range(1000)] + 2 * _DIGITS, 4)
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
# `gait_state,phase_left,phase_right` ending a labels row, indexed by state
# code (the left leg's phase code is its high bit)
_LABEL_WORDS = _words([
    f"{state},{_NAMES['phase_left'][code >> 1]},{_NAMES['phase_right'][code & 1]}\n"
    for code, state in enumerate(_NAMES["gait_state"])
]).reshape(len(STATE_BY_CODE), -1)
# Buffer bytes before each chunk, the last a newline, so that the windows
# ending at a separator fit: a cell's 16 bytes, and a labels tail's
_PAD = 8 * _LABEL_WORDS.shape[1]
# A labels row's tail, the text after its `t_s` cell's comma, is read back by
# its length and first byte, which pick the one word of _LABEL_WORDS it can be;
# the text ending with the tail must equal that word but for its padding spaces.
_LABEL_CODES = np.full((_PAD + 1, 256), -1, np.int8)
for _code, _text in enumerate(word.tobytes().lstrip(b" ") for word in _LABEL_WORDS):
    _LABEL_CODES[len(_text), _text[0]] = _code
_LABEL_MASKS = np.where(_LABEL_WORDS.view(np.uint8) == 32, 0, 0xFF).astype(np.uint8).view("<u8")
# `foot,kind` ending an events row, indexed by 2 * foot code + kind code
_EVENT_WORDS = _words(
    [f"{foot.value},{kind.value}\n" for foot in FEET for kind in KINDS]
).reshape(len(FEET) * len(KINDS), -1)
_MVC_FIELD = next(f for f in fields(EmgChannel) if f.name == "mvc_mv")
# Threads that write or read a trial's tables, or run a trial's envelope beside
# its detector: this one and a worker, given a second usable CPU
_THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _run_jobs(jobs: list[Callable[[], object]]) -> list:
    """The results of `jobs`, in list order. They run on this thread and up
    to _THREADS - 1 workers, each taking the next job not yet started; a job
    after one that failed is skipped, and once all have ended the first
    failure in list order is raised, as a serial run would raise it."""
    results, errors = [None] * len(jobs), [None] * len(jobs)
    order = iter(range(len(jobs)))  # next() is atomic under the GIL

    def work() -> None:
        for i in order:
            try:
                results[i] = None if any(errors[:i]) else jobs[i]()
            except Exception as exc:
                errors[i] = exc

    workers = [threading.Thread(target=work) for _ in range(min(_THREADS, len(jobs)) - 1)]
    for worker in workers:
        worker.start()
    work()
    for worker in workers:
        worker.join()
    if error := next(filter(None, errors), None):
        # the traceback holds this frame and `work`'s: leave them no path back
        # to the exceptions, so that no cycle waits for the cyclic collector
        errors.clear()
        try:
            raise error
        finally:
            del error
    return results


def _fixed_point_words(block: np.ndarray) -> np.ndarray | None:
    """Each cell of the 2-D `block` as `%.6f` spells it, then a comma, in
    4-byte words: three per cell, four if a cell rounds to 1000 or more in
    magnitude. None if a cell is not finite or rounds to 1e6 or more.
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
    wide = int((m.max() if len(ties) else top) >= 10**9)
    whole = m // 10**6
    frac = m - whole * 10**6
    frac_high = frac // 1000
    sign = np.signbit(block) * 1000  # `%` prints -0.0 and -4e-7 as -0.000000
    low = whole + sign
    out = np.empty(block.shape + (3 + wide,), "<u4")
    if wide:
        high = whole // 1000
        out[..., 0] = _HIGH_WORDS[high + sign]
        low += 2000 * (high > 0) - 1000 * high
    out[..., wide] = _LOW_WORDS[low]
    out[..., wide + 1] = _FRAC_HIGH[frac_high]
    out[..., wide + 2] = _FRAC_LOW[frac - 1000 * frac_high]
    return out


def _exact_words(block: np.ndarray) -> np.ndarray:
    """:func:`_fixed_point_words` of any `block`, every cell through `%`."""
    return _words(["%.6f," % cell for cell in block.ravel().tolist()]).reshape(block.shape + (-1,))


def format_rows(*parts: np.ndarray, tails: np.ndarray | None = None) -> Iterator[bytes]:
    """Data rows of a table: `parts`, 1-D columns or 2-D groups of columns,
    side by side, every cell `%.6f` and comma separated; ASCII bytes per block
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
        text = words.reshape(len(block), -1).view(np.uint8)
        if tails is None:
            text[:, -1] = ord("\n")  # the last cell's comma
        else:
            text = np.concatenate([text, tails[start:stop].view(np.uint8)], axis=1)
        yield text.tobytes().translate(None, b" ")


def write_table(
    path: Path, columns: list[str], *parts: np.ndarray, tails: np.ndarray | None = None
) -> None:
    """Write the rows of `parts` and `tails` (see :func:`format_rows`) under
    a header of `columns`."""
    with open(path, "wb") as fh:
        fh.write(f"{','.join(columns)}\n".encode())
        fh.writelines(format_rows(*parts, tails=tails))


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


def _read_fixed_point(fh, out: np.ndarray, tails: bool = False) -> np.ndarray | None:
    """`out` (rows, ncols), filled with the table left in the binary file `fh`
    if it is just that many lines of comma-separated cells `-?d+.dddddd` with
    at most 8 characters before the dot, each ending in a newline; else None.
    With `tails`, a line instead ends, as a labels row does, in a comma and
    the text of a word of _LABEL_WORDS, whose index is `out`'s last column.

    The text is read in chunks that end at a newline, into one buffer. A
    cell's value is N / 1e7, N ten times its digits as an integer: N < 2**53
    and 1e7 are exact doubles and division rounds correctly, so it is the
    double that np.loadtxt reads from the cell, bit for bit.
    """
    rows, ncols = out.shape[0], out.shape[1] - tails
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 < 9 * rows * ncols <= size:  # the shortest cell is `d.dddddd,`
        return None
    buf = bytearray(_PAD + min(size, _CHUNK_BYTES))
    most = len(buf) // (9 * ncols) + 1  # rows a chunk can hold
    line_seps = ncols + 3 * tails  # a tail holds three: two commas and the newline
    # one row of zero cells, and the limits, for every cell a chunk can hold
    last = "," if tails else "\n"
    zero_row = _words([f"00000000.000000{sep}" for sep in "," * (ncols - 1) + last])
    zero_cells = np.tile(zero_row, most)
    limits = np.tile(_LIMITS, ncols * most)
    buf[_PAD - 1] = ord("\n")
    text = np.frombuffer(buf, np.uint8)
    windows = np.ndarray(len(buf) + 1 - _PAD, "V16", buf, _PAD - 16, (1,))
    tail_windows = np.ndarray(len(buf) + 1 - _PAD, f"V{_PAD}", buf, 0, (1,))
    row = carry = 0
    while got := fh.readinto(memoryview(buf)[_PAD + carry :]):
        end = _PAD + carry + got
        stop = buf.rfind(b"\n", _PAD, end) + 1
        # separators, counted from the newline before the chunk; windows[i]
        # ends with separator i. Digits, '-' and '.' lie above ','.
        seps = np.flatnonzero(text[_PAD - 1 : stop] <= ord(","))
        if not stop or (len(seps) - 1) % line_seps:
            return None
        prev, sep = (s.reshape(-1, line_seps)[:, :ncols].ravel() for s in (seps[:-1], seps[1:]))
        cells = len(sep)
        if cells > ncols * most or row + cells // ncols > rows:
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
        if tails:
            ends, starts = seps[line_seps::line_seps], sep[ncols - 1 :: ncols]
            code = _LABEL_CODES[np.minimum(ends - starts, _PAD), text[_PAD + starts]]
            found = tail_windows[ends].view("<u8").reshape(-1, _LABEL_WORDS.shape[1])
            found ^= _LABEL_WORDS[code]
            found &= _LABEL_MASKS[code]
            if code.min() < 0 or found.any():
                return None
            out[row : row + len(code), ncols] = code
        _eight_digits(words)
        value = pairs[:, 0] * 10**7
        value += pairs[:, 1]
        end_row = row + cells // ncols
        scales = _SCALES[kind].reshape(-1, ncols)
        np.divide(value.view(np.int64).reshape(-1, ncols), scales, out=out[row:end_row, :ncols])
        row = end_row
        carry = end - stop
        buf[_PAD : _PAD + carry] = buf[stop:end]
    return out if row == rows and not carry else None


def _loadtxt(fh, name: str, columns: list[str]) -> np.ndarray:
    """np.loadtxt of the comma-separated rows left in `fh`, headed `columns`,
    as a 2-D float array, a name cell (see _NAMES) as its code. `#` starts a
    comment.

    A row that does not parse is a DataFormatError naming the file and the
    row's 1-based data row number. A file without data rows is left to the
    caller, as (0, len(columns)), without np.loadtxt, which would warn.
    """
    start = fh.tell()
    if next(_data_rows(fh), None) is None:
        return np.empty((0, len(columns)))
    fh.seek(start)
    to_code = {i: _NAMES[column].index for i, column in enumerate(columns) if column in _NAMES}
    try:  # any encoding but numpy 1.x's default "bytes" gives a converter text cells
        return np.loadtxt(fh, delimiter=",", ndmin=2, converters=to_code, encoding="utf-8")
    except ValueError as exc:
        fh.seek(start)
        raise DataFormatError(f"{name}: {_first_bad_row(fh, columns)}") from exc


def _data_rows(fh) -> Iterator[list[str]]:
    """The cells of each line left in `fh` that np.loadtxt reads as a data row:
    a line that is not empty once cut at `#`, so a line of spaces is a row."""
    for line in fh:
        if line := line.split("#", 1)[0].rstrip("\n"):
            yield line.split(",")


def _first_bad_row(fh, columns: list[str]) -> str:
    """What is wrong with the first bad row left in `fh`, in file order: a
    wrong cell count, a float cell that is not a finite number, or a name
    cell, quoted whole, that is none of its column's _NAMES. Data rows are
    counted as np.loadtxt counts them (see _data_rows)."""
    for row, cells in enumerate(_data_rows(fh), start=1):
        if len(cells) != len(columns):
            return f"data row {row} has {len(cells)} cells, expected {len(columns)}"
        for column, cell in zip(columns, cells):
            if column in _NAMES:
                if cell not in _NAMES[column]:
                    return f"unknown {column} {cell!r} in data row {row}"
                continue
            number = cell.strip()
            try:  # float() also takes `_` and non-ASCII digits, np.loadtxt neither
                if "_" in number or not number.isascii():
                    raise ValueError(number)
                if not math.isfinite(float(number)):
                    return _non_finite(column, row)
            except ValueError:
                return f"{column} {number!r} in data row {row} is not a number"
    return "rows do not parse as comma-separated values"


def _read_table(path: Path, columns: list[str], out: np.ndarray | None) -> np.ndarray:
    """The table at `path`, headed `columns`, as a 2-D float array, a name
    cell as its code. A float table, and a labels table as its `t_s` and
    state code columns, is read into `out`, of the shape the caller expects,
    by :func:`_read_fixed_point` if it can be, else, without `out`, and for
    every error, by :func:`_loadtxt`. Every row is read, every cell must be
    finite, and only an events table may have no rows."""
    if not path.is_file():
        raise DataFormatError(f"missing file: {path}")
    with open(path, "rb") as fh:
        plain = out is not None and fh.readline() == f"{','.join(columns)}\n".encode()
        data = _read_fixed_point(fh, out, columns == _LABEL_COLS) if plain else None
    if data is not None:  # finite and of the right width by construction
        return data
    with utf8_errors(path.name), open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.split(",") != columns:
            raise DataFormatError(f"{path.name}: header {header!r} does not match {columns}")
        data = _loadtxt(fh, path.name, columns)
    if data.size == 0 and columns != _EVENT_COLS:
        raise DataFormatError(f"{path.name}: no data rows")
    if data.shape[1] != len(columns):
        raise DataFormatError(
            f"{path.name}: expected {len(columns)} columns, got {data.shape[1]}"
        )
    _require_finite(path.name, columns, data)
    return data


def _require_finite(name: str, columns: list[str], data: np.ndarray) -> None:
    """DataFormatError naming the first non-finite cell of `data`, headed `columns`."""
    bad = ~np.isfinite(data)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DataFormatError(f"{name}: {_non_finite(columns[col], row + 1)}")


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


def _channels(has_truth: bool) -> str:
    """The manifest's `channels`: the tables of a trial with or without truth."""
    names = ["omega", "insole_left", "insole_right", "emg", "kinematics"]
    return ",".join(names + ["truth_labels", "truth_events"] * has_truth)


def save_trial(log: TrialLog, out_dir: Path | str) -> Path:
    """Write `log` into `out_dir`, creating it if needed; return the path.
    A TrialLog is checked when built, so load_trial reads back what this
    writes, unless the log's arrays or dicts were changed in place since.
    The tables are written by :func:`_run_jobs`, one job a file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t = log.times()
    has_truth = log.truth is not None

    entries = [
        ("format", FORMAT_TAG),
        *_settings_entries(log.rates),
        ("n_ticks", log.n_ticks),
        ("duration_s", log.duration_s),
        ("mvc_mv", float(log.emg.mvc_mv)),
        ("channels", _channels(has_truth)),
        ("has_truth", has_truth),
    ]
    if log.params is not None:
        entries += _settings_entries(log.params)
    write_manifest(out / "manifest.txt", entries)

    # the arrays are built here, so a worker allocates only its scratch
    raw = log.emg.raw
    angles = [angle[foot] for angle in (log.hip_deg, log.knee_deg) for foot in FEET]
    feet_xy = [log.foot_xy[foot] for foot in FEET]
    jobs = [
        partial(write_table, out / "emg.csv", _EMG_COLS, raw.times(), raw.samples),
        partial(write_table, out / "omega.csv", _OMEGA_COLS, t, *(log.omega[f] for f in FEET)),
        partial(write_table, out / "insole_left.csv", _INSOLE_COLS, t, log.insole[Foot.LEFT]),
        partial(write_table, out / "insole_right.csv", _INSOLE_COLS, t, log.insole[Foot.RIGHT]),
        partial(write_table, out / "kinematics.csv", _KINEMATICS_COLS, t, *feet_xy, *angles),
    ]
    if has_truth:
        jobs.append(partial(write_labels_csv, out / "truth_labels.csv", t, log.truth.phases))
        jobs.append(partial(write_events_csv, out / "truth_events.csv", log.truth.events))
    _run_jobs(jobs)
    return out


def write_labels_csv(path: Path, t: np.ndarray, phases: dict[Foot, np.ndarray]) -> None:
    """Per-tick two-leg state and per-leg phase; `phases` are 0 stance, 1 swing."""
    write_table(path, _LABEL_COLS, t, tails=_LABEL_WORDS[gait_state_codes(phases)])


def write_events_csv(path: Path, events: Events) -> None:
    write_table(path, _EVENT_COLS, events.t, tails=_EVENT_WORDS[2 * events.foot + events.kind])


def read_events_csv(path: Path) -> Events:
    rows = _read_table(path, _EVENT_COLS, None)
    return Events(rows[:, 0], rows[:, 1].astype(np.int8), rows[:, 2].astype(np.int8))


def _read_series(path: Path, columns: list[str], rows: int, rate_hz: float, out) -> np.ndarray:
    """The table at `path` (see :func:`_read_table`), which must hold `rows`
    rows, the `t_s` of data row k + 1 within _GRID_TOLERANCE_S of k / rate_hz."""
    table = _read_table(path, columns, out)
    if len(table) != rows:
        raise DataFormatError(f"{path.name}: expected {rows} rows, got {len(table)}")
    t = table[:, 0]
    off = np.arange(rows, dtype=float)
    off /= rate_hz
    off -= t
    bad = ~(np.abs(off, out=off) <= _GRID_TOLERANCE_S)  # NaN is off the grid too
    if bad.any():
        row = int(np.argmax(bad))
        raise DataFormatError(
            f"{path.name}: t_s {t[row]:.6f} in data row {row + 1} is off the "
            f"{rate_hz:g} Hz grid (expected {row / rate_hz:.6f})"
        )
    return table


def _read_forces(path: Path, columns: list[str], rows: int, rate_hz: float, out):
    """The force columns, none negative, of the insole table at `path` (see _read_series)."""
    forces = _read_series(path, columns, rows, rate_hz, out)[:, 1:]
    if (forces < 0.0).any():
        row, col = np.argwhere(forces < 0.0)[0] + 1
        raise DataFormatError(f"{path.name}: negative force {columns[col]} in data row {row}")
    return forces


def _read_truth(path: Path, columns: list[str], n: int, rate_hz: float, out) -> TrialTruth:
    """The truth of `n` ticks in the labels table at `path` (see _read_series) and its events."""
    rows = _read_series(path, columns, n, rate_hz, out)
    codes = rows[:, 1].astype(np.int8)
    if rows.shape[1] > 2:  # np.loadtxt read the phases too: the state must be theirs
        wrong = rows[:, 1] != 2 * rows[:, 2] + rows[:, 3]
        if wrong.any():
            row = int(np.argmax(wrong))
            state, left, right = (_NAMES[c][int(k)] for c, k in zip(columns[1:], rows[row, 1:]))
            raise DataFormatError(
                f"{path.name}: gait_state {state!r} in data row {row + 1} does not "
                f"match phase_left {left!r} and phase_right {right!r}"
            )
    phases = {Foot.LEFT: codes >> 1, Foot.RIGHT: codes & 1}
    return TrialTruth(phases=phases, events=read_events_csv(path.with_name("truth_events.csv")))


def load_trial(trial_dir: Path | str) -> TrialLog:
    """Read a trial directory written by :func:`save_trial`.

    Raises DataFormatError, naming the file, for anything malformed: a
    missing file or key, a manifest value that does not parse or is out of
    range, a `duration_s` or `channels` that does not match the rest of the
    manifest, a bad header or row count, a cell that is not a finite number,
    a `t_s` off the k / rate grid, an unknown gait state, phase, foot or
    event name, a gait state that does not match the phases, truth events
    that do not alternate per foot or lie outside [0, duration_s], or a
    negative insole force.
    """
    trial_dir = Path(trial_dir)
    manifest = read_manifest(trial_dir / "manifest.txt")
    if manifest.get("format") != FORMAT_TAG:
        raise DataFormatError(
            f"unsupported trial format {manifest.get('format')!r} in {trial_dir}"
        )
    try:
        rates = _settings_from(manifest, ChannelRates)
        control = rates.control_rate_hz
        n = parse_value("n_ticks", manifest["n_ticks"], 1)
        if n < 1:
            raise ValueError(f"n_ticks must be positive, got {n}")
        duration = parse_value("duration_s", manifest["duration_s"], 1.0)
        if not abs(duration - n / control) <= _GRID_TOLERANCE_S:
            raise ValueError(
                f"duration_s {manifest['duration_s']} does not match "
                f"n_ticks / control_rate_hz = {format_value(n / control)}"
            )
        emg_rows = rates.emg_samples(n)
        mvc = parse_value("mvc_mv", manifest["mvc_mv"], DEFAULT_MVC_MV)
        check_range(_MVC_FIELD, mvc)
        has_truth = parse_value("has_truth", manifest["has_truth"], False)
        if manifest["channels"] != _channels(has_truth):
            raise ValueError(
                f"channels {manifest['channels']!r} do not match has_truth = "
                f"{format_value(has_truth)}, which lists {_channels(has_truth)!r}"
            )
        params = None
        if all(f.name in manifest for f in fields(GaitParams)):
            params = _settings_from(manifest, GaitParams)
    except KeyError as exc:
        raise DataFormatError(f"manifest is missing key {exc}") from exc
    except (ValueError, OverflowError) as exc:  # unparsable, out-of-range, mismatched, huge
        raise DataFormatError(f"manifest.txt: {exc}") from exc

    # In a serial read's order. This thread allocates the array the fixed-point
    # reader fills, if the file can hold its cells, each of 9 bytes or more.
    def job(read, name: str, columns: list[str], rows: int = n, rate_hz: float = control):
        path, tails = trial_dir / name, read is _read_truth
        cells = len(columns) - 3 * tails  # a labels row's tail is read as one state code
        fits = path.is_file() and 9 * rows * cells <= path.stat().st_size
        out = np.empty((rows, cells + tails)) if fits else None
        return partial(read, path, columns, rows, rate_hz, out)

    jobs = [
        job(_read_series, "omega.csv", _OMEGA_COLS),
        job(_read_forces, "insole_left.csv", _INSOLE_COLS),
        job(_read_forces, "insole_right.csv", _INSOLE_COLS),
        job(_read_series, "emg.csv", _EMG_COLS, emg_rows, rates.emg_rate_hz),
        job(_read_series, "kinematics.csv", _KINEMATICS_COLS),
    ]
    if has_truth:
        jobs.append(job(_read_truth, "truth_labels.csv", _LABEL_COLS))
    omega, left, right, emg, kin, *truth = _run_jobs(jobs)

    try:  # the tables passed the reader, so only the truth's events can fail here
        return TrialLog(
            rates=rates,
            omega={foot: omega[:, 1 + i] for i, foot in enumerate(FEET)},
            insole={Foot.LEFT: left, Foot.RIGHT: right},
            emg=EmgChannel(TimeSeries(emg[:, 1], rates.emg_rate_hz), mvc_mv=mvc),
            foot_xy={Foot.LEFT: kin[:, 1:3], Foot.RIGHT: kin[:, 3:5]},
            hip_deg={foot: kin[:, 5 + i] for i, foot in enumerate(FEET)},
            knee_deg={foot: kin[:, 7 + i] for i, foot in enumerate(FEET)},
            truth=truth[0] if truth else None,
            params=params,
        )
    except InvalidSpecError as exc:
        raise DataFormatError(str(exc)) from None
