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


def check_range(f, value) -> None:
    """Raise InvalidSpecError naming the dataclass field `f` if `value` lies
    outside the range `f` declares. NaN lies in no range, and inf only in one
    closed on it; an "integer" field takes only whole-number types, not bools
    or floats."""
    interval = f.metadata.get("range")
    if interval is None:
        return
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    integer = f.metadata.get("integer", False)
    if not (
        (not integer or isinstance(value, numbers.Integral) and not isinstance(value, bool))
        and (lo <= value if interval[0] == "[" else lo < value)
        and (value <= hi if interval[-1] == "]" else value < hi)
    ):
        words = f"a whole number in {interval}" if integer else _WORDS.get(interval)
        raise InvalidSpecError(f"{f.name} must be {words or 'in ' + interval}")


def check_ranges(obj) -> None:
    """:func:`check_range` of every field of the dataclass `obj`, in order."""
    for f in fields(obj):
        check_range(f, getattr(obj, f.name))
