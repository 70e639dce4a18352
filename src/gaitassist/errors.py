"""Exception types shared across the package, and the range check of settings."""
import numbers
from dataclasses import field, fields


class GaitAssistError(Exception):
    """Base class for package-specific failures."""


class InvalidSpecError(GaitAssistError, ValueError):
    """A configuration, filter spec, or parameter set violates its contract."""


class DataFormatError(GaitAssistError, ValueError):
    """An on-disk trial log, manifest, or table is malformed or incomplete."""


def ranged(default, interval: str):
    """A dataclass field with `default` whose values must lie in `interval`,
    spelled like "[0, inf)" or "(0, 1]" and enforced by :func:`check_ranges`."""
    return field(default=default, metadata={"range": interval})


_WORDS = {"[0, inf)": "finite and non-negative", "(0, inf)": "finite and positive"}


def check_ranges(obj) -> None:
    """Raise InvalidSpecError naming the first field of the dataclass `obj`
    whose value lies outside its declared range. NaN lies in no range, and
    inf only in one closed on it; an "integer" field takes only whole-number
    types, not bools or floats."""
    for f in fields(obj):
        interval, value = f.metadata.get("range"), getattr(obj, f.name)
        if interval is None:
            continue
        lo, hi = (float(bound) for bound in interval[1:-1].split(","))
        integer = f.metadata.get("integer", False)
        if not (
            (not integer or isinstance(value, numbers.Integral) and not isinstance(value, bool))
            and (lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if interval[-1] == "]" else value < hi)
        ):
            words = f"a whole number in {interval}" if integer else _WORDS.get(interval)
            raise InvalidSpecError(f"{f.name} must be {words or 'in ' + interval}")
