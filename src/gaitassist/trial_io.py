"""On-disk formats: trial directories, run tables and metrics tables.

Every table is comma separated with a mandatory header row and decimal
points; time-indexed tables start with a column `t_s` in seconds printed with
six decimals, sample k at k / rate. Manifests are UTF-8 `key = value` lines,
values spelled by :func:`format_value` and read, like CLI settings, by :func:`parse_value`.
Formatting is fixed so identical inputs always produce byte-identical files.
"""
from __future__ import annotations

import os
import warnings
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .controller import UNLIMITED
from .errors import DataFormatError, InvalidSpecError, check_range
from .gait import (
    STATE_BY_CODE, EventKind, Foot, GaitEvent, Phase, check_event_stream, gait_state_codes,
)
from .signals import EmgChannel, TimeSeries
from .simgait import DEFAULT_MVC_MV, ChannelRates, GaitParams, TrialLog, TrialTruth, check_legs

FORMAT_TAG = "gaitassist-trial/1"
# Rows that format_rows spells at a time: enough to amortise numpy's work per
# call, few enough that no table's text is ever held whole in memory.
BLOCK_TICKS = 4096

_PHASE_NAMES = tuple(phase.value for phase in Phase)  # indexed by phase code

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
    f"{state.value},{_PHASE_NAMES[code >> 1]},{_PHASE_NAMES[code & 1]}\n"
    for code, state in enumerate(STATE_BY_CODE)
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
_FEET, _KINDS = tuple(Foot), tuple(EventKind)
_EVENT_WORDS = _words(
    [f"{foot.value},{kind.value}\n" for foot in _FEET for kind in _KINDS]
).reshape(len(_FEET) * len(_KINDS), -1)
# `gait_state` of a labels row, indexed by state code
_STATE_NAMES = np.array([state.value for state in STATE_BY_CODE])
# A labels and an events row as _loadtxt reads them, one field per column. A
# cell longer than its field is cut to the field's width, still longer than
# any name it may hold, so it cannot pass as one.
_LABEL_ROW = np.dtype(
    [("t_s", float), ("gait_state", "U24"), ("phase_left", "U7"), ("phase_right", "U7")]
)
_EVENT_ROW = np.dtype([("t_s", float), ("foot", "U6"), ("kind", "U12")])
_GRID_TOLERANCE_S = 1e-6  # `t_s` against k / rate; printing rounds by at most 5e-7
_MVC_FIELD = next(f for f in fields(EmgChannel) if f.name == "mvc_mv")


def format_value(value: float | int | str | bool) -> str:
    """A `key = value` value: a float with six decimals, UNLIMITED as
    `unlimited`, a bool as `true` or `false`, anything else as str spells it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "unlimited" if value == UNLIMITED else f"{value:.6f}"
    return str(value)


def parse_value(key: str, raw: str, like: float | int | str | bool) -> float | int | str | bool:
    """The setting `key` spelled `raw`, as the type of `like`; a float may be
    `unlimited` in any case, a bool is `true` or `false`. InvalidSpecError, in
    one line, if it does not parse."""
    if isinstance(like, str):
        return raw
    try:
        if isinstance(like, bool):
            return {"true": True, "false": False}[raw]
        if isinstance(like, float):
            return UNLIMITED if raw.lower() == "unlimited" else float(raw)
        return int(raw)
    except (KeyError, ValueError):
        kind = type(like).__name__
        raise InvalidSpecError(f"setting {key!r}: {raw!r} is not a valid {kind}") from None


def _settings_entries(obj) -> list[tuple[str, float | int]]:
    """Each field of the settings dataclass `obj` as the type of its default,
    so an int given for a float setting is still spelled as a float."""
    return [(f.name, type(f.default)(getattr(obj, f.name))) for f in fields(obj)]


def _settings_from(manifest: dict[str, str], cls):
    """An instance of the settings dataclass `cls` from its keys in `manifest`."""
    return cls(**{f.name: parse_value(f.name, manifest[f.name], f.default) for f in fields(cls)})


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


def write_manifest(path: Path, entries: list[tuple[str, float | int | str | bool]]) -> None:
    text = "".join(f"{key} = {format_value(value)}\n" for key, value in entries)
    path.write_text(text, encoding="utf-8")


def read_manifest(path: Path) -> dict[str, str]:
    """The `key = value` entries of the UTF-8 file at `path`: a trial
    manifest or a `--config` file."""
    if not path.is_file():
        raise DataFormatError(f"missing file: {path}")
    with utf8_errors(path.name):
        return parse_manifest(path.read_text(encoding="utf-8"))


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
        text = words.reshape(len(block), -1).view(np.uint8)
        if tails is None:
            text[:, -1] = ord("\n")  # the last cell's comma
        else:
            text = np.concatenate([text, tails[start:stop].view(np.uint8)], axis=1)
        yield text.tobytes().translate(None, b" ").decode("ascii")


def write_table(
    path: Path, columns: list[str], *parts: np.ndarray, tails: np.ndarray | None = None
) -> None:
    """Write the rows of `parts` and `tails` (see :func:`format_rows`) under
    a header of `columns`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(format_rows(*parts, tails=tails))


def format_named_rows(header: list[str], rows: Iterable[tuple[str, Iterable[float]]]) -> str:
    """The `analyze` and `compare` tables: `header`, then each row's name and
    its values as `%.6f`, comma separated. DataFormatError if a header cell
    or row name holds a comma or a line break, which would break the table."""
    rows = list(rows)
    for name in [*header, *(name for name, _ in rows)]:
        if any(c in name for c in ",\r\n"):
            raise DataFormatError(
                f"{name!r} cannot name a table cell: it holds ',' or a line break"
            )
    lines = [",".join(header)]
    lines += [",".join([name, *(f"{value:.6f}" for value in values)]) for name, values in rows]
    return "\n".join(lines) + "\n"


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


def _read_fixed_point(fh, ncols: int, rows: int, tails: bool = False) -> np.ndarray | None:
    """The (`rows`, `ncols`) table left in the binary file `fh` if it is just
    that many lines of comma-separated cells `-?d+.dddddd` with at most 8
    characters before the dot, each line ending in a newline; else None.
    With `tails`, a line instead ends, as a labels row does, in a comma and
    the text of a word of _LABEL_WORDS, whose index is one more column.

    The text is read in chunks that end at a newline, into one buffer. A
    cell's value is N / 1e7, N ten times its digits as an integer: N < 2**53
    and 1e7 are exact doubles and division rounds correctly, so it is the
    double that np.loadtxt reads from the cell, bit for bit.
    """
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 < 9 * rows * ncols <= size:  # the shortest cell is `d.dddddd,`
        return None
    out = np.empty(rows * ncols)
    codes = np.empty(rows * tails, np.int8)
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
    done = carry = 0
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
        if cells > ncols * most or done + cells > out.size:
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
            codes[done // ncols : (done + cells) // ncols] = code
        _eight_digits(words)
        value = pairs[:, 0] * 10**7
        value += pairs[:, 1]
        np.divide(value.view(np.int64), _SCALES[kind], out=out[done : done + cells])
        done += cells
        carry = end - stop
        buf[_PAD : _PAD + carry] = buf[stop:end]
    if done != out.size or carry:
        return None
    return np.column_stack([out.reshape(rows, ncols), codes]) if tails else out.reshape(rows, ncols)


@contextmanager
def utf8_errors(name: str) -> Iterator[None]:
    """A UnicodeDecodeError inside, as a DataFormatError naming the file `name`."""
    try:
        yield
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise DataFormatError(f"{name}: byte 0x{byte:02x} is not UTF-8 ({exc.reason})") from exc


def _loadtxt(fh, name: str, columns: list[str], dtype=float) -> np.ndarray:
    """np.loadtxt of the comma-separated rows left in `fh`, headed `columns`:
    a 2-D float array, or one record per row for a structured `dtype`. `#`
    starts a comment.

    A row that does not parse is a DataFormatError naming the file and the
    row's 1-based data row number. A file without rows is left to the
    caller, without numpy's warning.
    """
    dtype = np.dtype(dtype)
    start = fh.tell()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=1 if dtype.names else 2)
        except ValueError as exc:
            fh.seek(start)
            raise DataFormatError(f"{name}: {_first_bad_row(fh, columns, dtype)}") from exc


def _first_bad_row(fh, columns: list[str], dtype: np.dtype) -> str:
    """What is wrong with the first row left in `fh` that np.loadtxt, called
    with `dtype`, cannot parse; data rows are counted as it counts them,
    skipping blank and comment lines."""
    numeric = [not dtype.names or dtype[i].kind == "f" for i in range(len(columns))]
    row = 0
    for line in fh:
        line = line.split("#", 1)[0]
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


def _read_table(path: Path, columns: list[str], rows: int, dtype=float) -> np.ndarray:
    """The table at `path`, headed `columns`: a 2-D float array, or for a
    structured `dtype`, whose fields are `columns`, one record per row. A
    float table, and a labels table as its `t_s` and state code columns, is
    read by :func:`_read_fixed_point` if it can be, with `rows` the row count
    the caller expects, else, and for every error, by :func:`_loadtxt`.
    Every row is read, and every float cell must be finite."""
    if not path.is_file():
        raise DataFormatError(f"missing file: {path}")
    labels = dtype is _LABEL_ROW
    with open(path, "rb") as fh:
        plain = (dtype is float or labels) and fh.readline() == f"{','.join(columns)}\n".encode()
        data = _read_fixed_point(fh, len(columns) - 3 * labels, rows, labels) if plain else None
    if data is not None:  # finite and of the right width by construction
        return data
    with utf8_errors(path.name), open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.split(",") != columns:
            raise DataFormatError(f"{path.name}: header {header!r} does not match {columns}")
        data = _loadtxt(fh, path.name, columns, dtype)
    if dtype is not float:  # np.loadtxt has checked the cell count of every record
        numbers = [column for column in columns if data.dtype[column].kind == "f"]
        _require_finite(path.name, numbers, np.column_stack([data[c] for c in numbers]))
        return data
    if data.size == 0:
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
_LABEL_COLS = list(_LABEL_ROW.names)
_EVENT_COLS = list(_EVENT_ROW.names)
TORQUE_COLS = ["t_s", "tau_left_nm", "tau_right_nm"]


def _channels(has_truth: bool) -> str:
    """The manifest's `channels`: the tables of a trial with or without truth."""
    names = ["omega", "insole_left", "insole_right", "emg", "kinematics"]
    return ",".join(names + ["truth_labels", "truth_events"] * has_truth)


def save_trial(log: TrialLog, out_dir: Path | str) -> Path:
    """Write `log` into `out_dir`, creating it if needed; return the path.
    Before it writes, it refuses a log load_trial would not read back: see
    `check_legs`, checked for every per-foot channel, and InvalidSpecError
    unless the raw EMG is `rates.emg_samples(n_ticks)` finite samples and
    the truth, if any, passes the check load_trial makes of it."""
    check_legs(log, {"omega": (), "insole": (8,), "foot_xy": (2,), "hip_deg": (), "knee_deg": ()})
    raw, need = log.emg.raw, log.rates.emg_samples(log.n_ticks)
    if len(raw) != need or not np.isfinite(raw.samples).all():
        raise InvalidSpecError(f"emg channel needs {need} samples, all finite; got {len(raw)}")
    if log.truth is not None:
        _check_truth(log.truth, log.n_ticks, log.rates.control_rate_hz, InvalidSpecError)
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

    write_table(out / "omega.csv", _OMEGA_COLS, t, *(log.omega[foot] for foot in _FEET))
    for foot, name in ((Foot.LEFT, "insole_left"), (Foot.RIGHT, "insole_right")):
        write_table(out / f"{name}.csv", _INSOLE_COLS, t, log.insole[foot])
    write_table(out / "emg.csv", _EMG_COLS, log.emg.raw.times(), log.emg.raw.samples)
    angles = [angle[foot] for angle in (log.hip_deg, log.knee_deg) for foot in _FEET]
    feet_xy = [log.foot_xy[foot] for foot in _FEET]
    write_table(out / "kinematics.csv", _KINEMATICS_COLS, t, *feet_xy, *angles)

    if has_truth:
        write_labels_csv(out / "truth_labels.csv", t, log.truth.phases)
        write_events_csv(out / "truth_events.csv", log.truth.events)
    return out


def write_labels_csv(path: Path, t: np.ndarray, phases: dict[Foot, np.ndarray]) -> None:
    """Per-tick two-leg state and per-leg phase; `phases` are 0 stance, 1 swing."""
    write_table(path, _LABEL_COLS, t, tails=_LABEL_WORDS[gait_state_codes(phases)])


def write_events_csv(path: Path, events: list[GaitEvent]) -> None:
    codes = [2 * _FEET.index(ev.foot) + _KINDS.index(ev.kind) for ev in events]
    write_table(path, _EVENT_COLS, np.array([ev.t for ev in events]), tails=_EVENT_WORDS[codes])


def _codes(name: str, rows: np.ndarray, column: str, words: tuple[str, ...]) -> np.ndarray:
    """The index in `words` of each cell of `column` of the records `rows`
    read from the file `name`; a DataFormatError names the first cell that
    is none of them."""
    cells = rows[column]
    codes = np.full(len(cells), -1, dtype=np.int8)
    for code, word in enumerate(words):
        codes[cells == word] = code
    if (codes < 0).any():
        row = int(np.argmax(codes < 0))
        raise DataFormatError(f"{name}: unknown {column} {str(cells[row])!r} in data row {row + 1}")
    return codes


def read_events_csv(path: Path) -> list[GaitEvent]:
    rows = _read_table(path, _EVENT_COLS, 0, _EVENT_ROW)
    feet = _codes(path.name, rows, "foot", tuple(foot.value for foot in _FEET)).tolist()
    kinds = _codes(path.name, rows, "kind", tuple(kind.value for kind in _KINDS)).tolist()
    return [
        GaitEvent(t, _FEET[foot], _KINDS[kind])
        for t, foot, kind in zip(rows["t_s"].tolist(), feet, kinds)
    ]


def _read_series(path: Path, columns: list[str], rows: int, rate_hz: float, dtype=float):
    """The table at `path` (see :func:`_read_table`), which must hold `rows`
    rows, the `t_s` of data row k + 1 within _GRID_TOLERANCE_S of k / rate_hz."""
    table = _read_table(path, columns, rows, dtype)
    if len(table) != rows:
        raise DataFormatError(f"{path.name}: expected {rows} rows, got {len(table)}")
    t = table["t_s"] if table.dtype.names else table[:, 0]
    off = np.arange(rows) / rate_hz
    off -= t
    bad = ~(np.abs(off, out=off) <= _GRID_TOLERANCE_S)  # NaN is off the grid too
    if bad.any():
        row = int(np.argmax(bad))
        raise DataFormatError(
            f"{path.name}: t_s {t[row]:.6f} in data row {row + 1} is off the "
            f"{rate_hz:g} Hz grid (expected {row / rate_hz:.6f})"
        )
    return table


def _check_truth(truth: TrialTruth, n: int, rate_hz: float, error: type[Exception]) -> None:
    """`error`, in one line, unless `truth` fits a trial of `n` ticks at
    `rate_hz`: each foot's phases hold `n` ticks, and its events alternate
    and lie in [0, duration_s], give or take _GRID_TOLERANCE_S."""
    for foot in _FEET:
        if (shape := np.shape(truth.phases[foot])) != (n,):
            raise error(f"{foot.value} truth phases need shape ({n},), got {shape}")
    try:
        check_event_stream(truth.events)
    except ValueError as exc:
        raise error(f"truth_events.csv: {exc}") from None
    t = np.array([ev.t for ev in truth.events], float)
    outside = (t < -_GRID_TOLERANCE_S) | (t > n / rate_hz + _GRID_TOLERANCE_S)
    if outside.any():
        row = int(np.argmax(outside))
        raise error(
            f"truth_events.csv: t_s {t[row]:.6f} in data row {row + 1} is outside "
            f"the trial, 0 to duration_s {n / rate_hz:.6f}"
        )


def _read_truth(trial_dir: Path, n: int, rate_hz: float) -> TrialTruth:
    name = "truth_labels.csv"
    rows = _read_series(trial_dir / name, _LABEL_COLS, n, rate_hz, _LABEL_ROW)
    if rows.dtype.names is None:  # `t_s` and the state code the fixed-point reader matched
        codes = rows[:, 1].astype(np.int8)
        phases = {Foot.LEFT: codes >> 1, Foot.RIGHT: codes & 1}
    else:
        phases = {foot: _codes(name, rows, f"phase_{foot.value}", _PHASE_NAMES) for foot in _FEET}
        wrong = rows["gait_state"] != _STATE_NAMES[gait_state_codes(phases)]
        if wrong.any():
            row = int(np.argmax(wrong))
            state, left, right = (str(rows[column][row]) for column in _LABEL_COLS[1:])
            raise DataFormatError(
                f"{name}: gait_state {state!r} in data row {row + 1} does not "
                f"match phase_left {left!r} and phase_right {right!r}"
            )
    truth = TrialTruth(phases=phases, events=read_events_csv(trial_dir / "truth_events.csv"))
    _check_truth(truth, n, rate_hz, DataFormatError)
    return truth


def load_trial(trial_dir: Path | str) -> TrialLog:
    """Read a trial directory written by :func:`save_trial`.

    Raises DataFormatError, naming the file, for anything malformed: a
    missing file or key, a manifest value that does not parse or is out of
    range, a `duration_s` or `channels` that does not match the rest of the
    manifest, a bad header or row count, a cell that is not a finite number,
    a `t_s` off the k / rate grid, an unknown phase, foot or event name, a
    gait state that does not match the phases, truth events that do not
    alternate per foot or lie outside [0, duration_s], or a negative insole
    force.
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

    omega = _read_series(trial_dir / "omega.csv", _OMEGA_COLS, n, control)
    insole = {}
    for foot, name in ((Foot.LEFT, "insole_left"), (Foot.RIGHT, "insole_right")):
        forces = _read_series(trial_dir / f"{name}.csv", _INSOLE_COLS, n, control)[:, 1:]
        if (forces < 0.0).any():
            row, col = np.argwhere(forces < 0.0)[0]
            raise DataFormatError(
                f"{name}.csv: negative force {_INSOLE_COLS[col + 1]} in data row {row + 1}"
            )
        insole[foot] = forces
    emg = _read_series(trial_dir / "emg.csv", _EMG_COLS, emg_rows, rates.emg_rate_hz)
    kin = _read_series(trial_dir / "kinematics.csv", _KINEMATICS_COLS, n, control)

    truth = _read_truth(trial_dir, n, control) if has_truth else None

    return TrialLog(
        rates=rates,
        omega={foot: omega[:, 1 + i] for i, foot in enumerate(_FEET)},
        insole=insole,
        emg=EmgChannel(TimeSeries(emg[:, 1], rates.emg_rate_hz), mvc_mv=mvc),
        foot_xy={Foot.LEFT: kin[:, 1:3], Foot.RIGHT: kin[:, 3:5]},
        hip_deg={foot: kin[:, 5 + i] for i, foot in enumerate(_FEET)},
        knee_deg={foot: kin[:, 7 + i] for i, foot in enumerate(_FEET)},
        truth=truth,
        params=params,
    )


def read_metrics_csv(path: Path | str) -> tuple[list[str], np.ndarray]:
    """Metric names and a (trials, metrics) array from an `analyze` table."""
    p = Path(path)
    if not p.is_file():
        raise DataFormatError(f"missing file: {p}")
    with utf8_errors(p.name):
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
