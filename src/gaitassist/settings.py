"""Every setting with its default and range, and the text they are spelled in.

The settings dataclasses, the `key = value` spelling of manifests and
`--config` files, and the `analyze` and `compare` tables need no numpy, so
`compare`, `--help` and a usage error start without it.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

from .errors import DataFormatError, InvalidSpecError, check_ranges, ranged

UNLIMITED = math.inf
# `generate` refuses a cadence whose swing, the shorter phase, spans fewer
# control ticks: score_detection leaves out the tick nearest each true event
# and both its neighbours, so a phase of L ticks from tick offset x keeps
# rint(x + L) - rint(x) - 3 scored ticks, at least one at every x only for L >= 4.
MIN_SWING_TICKS = 4


@dataclass(frozen=True)
class GaitParams:
    """Trial parameters; defaults follow typical loaded treadmill walking."""

    cadence_hz: float = ranged(0.7, "(0, inf)")
    stance_fraction: float = ranged(0.6, "(0.5, 0.8)")
    speed_m_s: float = ranged(0.74, "[0, inf)")
    omega_amp_rad_s: float = ranged(2.0, "(0, inf)")
    load_peak_n: float = ranged(400.0, "(0, inf)")
    emg_level: float = ranged(0.5, "(0, 1]")
    noise_sigma: float = ranged(0.0, "[0, inf)")
    seed: int = field(default=0, metadata={"range": "[0, inf)", "integer": True})
    __post_init__ = check_ranges

    @property
    def stride_length_m(self) -> float:
        return self.speed_m_s / self.cadence_hz


@dataclass(frozen=True)
class ChannelRates:
    control_rate_hz: float = ranged(100.0, "(0, inf)")
    emg_rate_hz: float = ranged(1000.0, "(0, inf)")
    __post_init__ = check_ranges

    def emg_samples(self, ticks: int) -> int:
        """The raw EMG samples that span `ticks` control ticks: the count
        `generate` makes and `load_trial` expects. InvalidSpecError if it is infinite."""
        count = ticks * self.emg_rate_hz / self.control_rate_hz
        if not count < math.inf:
            raise InvalidSpecError(f"n_ticks {ticks} and emg_rate_hz make {count:g} EMG samples")
        return int(round(count))


@dataclass(frozen=True)
class ControllerConfig:
    """Gains for the torque controller; it runs at the trial's control rate.

    k_myo_nm: torque produced at full muscle activation, N*m.
    k_stance / k_swing: per-leg share of total torque; the swing share may
        never exceed the stance share.
    ramp_rate_nm_s: largest allowed change per second of each leg's command;
        UNLIMITED (the default) disables ramp limiting.
    """

    k_myo_nm: float = ranged(10.0, "[0, inf)")
    k_stance: float = ranged(0.5, "[0, inf)")
    k_swing: float = ranged(0.0, "[0, inf)", at_most="k_stance")
    ramp_rate_nm_s: float = ranged(UNLIMITED, "(0, inf]")
    __post_init__ = check_ranges


@dataclass(frozen=True)
class FsrDetectorConfig:
    """Thresholds and debounce for the insole detector.

    contact_threshold_n: total force above which a swinging foot is in contact.
    release_threshold_n: per-cluster force below which a stance foot has left
        the ground; must sit below the contact threshold (hysteresis).
    min_phase_s: shortest accepted phase duration (debounce), in (0, inf) s.
    """

    contact_threshold_n: float = ranged(20.0, "(0, inf)")
    release_threshold_n: float = ranged(10.0, "(0, inf)", below="contact_threshold_n")
    min_phase_s: float = ranged(0.15, "(0, inf)")
    __post_init__ = check_ranges


@dataclass(frozen=True)
class VelDetectorConfig:
    """Thresholds for the hip-velocity detector.

    zero_hysteresis_rad_s: half-width of the band around zero that the
        contralateral velocity must leave to confirm a crossing.
    peak_min_rad_s: smallest peak of the leg's own velocity taken as toe off.
    peak_confirm_samples: declining samples that confirm a peak (the lag).
    min_event_gap_s: shortest time between two events of one leg.
    """

    zero_hysteresis_rad_s: float = ranged(0.05, "(0, inf)")
    peak_min_rad_s: float = ranged(0.5, "(0, inf)")
    peak_confirm_samples: int = field(default=3, metadata={"range": "[2, inf)", "integer": True})
    min_event_gap_s: float = ranged(0.3, "[0, inf)")
    __post_init__ = check_ranges


class DetectionMode(Enum):
    FOOT_SENSORS = "foot-sensors"
    ACTUATORS_VELOCITY = "actuators-velocity"


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


@contextmanager
def utf8_errors(name: str) -> Iterator[None]:
    """A UnicodeDecodeError inside, as a DataFormatError naming the file `name`."""
    try:
        yield
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise DataFormatError(f"{name}: byte 0x{byte:02x} is not UTF-8 ({exc.reason})") from exc


def _non_finite(column: str, row: int) -> str:
    """How a non-finite table cell is reported, `row` counted from 1."""
    return f"non-finite {column!r} in data row {row}"


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


def read_metrics_csv(path: Path | str) -> tuple[list[str], list[list[float]]]:
    """Metric names and one list of finite floats per trial from an `analyze` table."""
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
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise DataFormatError(f"{p}: row width mismatch in {ln!r}")
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise DataFormatError(f"{p}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{p}: no metric rows")
    for row, values in enumerate(rows, start=1):
        for column, value in zip(header[1:], values):
            if not math.isfinite(value):
                raise DataFormatError(f"{p}: {_non_finite(column, row)}")
    return header[1:], rows
