"""Exception types shared across the package, and the range check of settings."""
import numbers
import operator
from dataclasses import field, fields


class GaitAssistError(Exception):
    """Base class for package-specific failures."""


class InvalidSpecError(GaitAssistError, ValueError):
    """A configuration, filter spec, or parameter set violates its contract."""


class DataFormatError(GaitAssistError, ValueError):
    """An on-disk trial log, manifest, or table is malformed or incomplete."""


def ranged(default, interval: str, **rule: str):
    """A dataclass field with `default` whose values must lie in `interval`,
    spelled like "[0, inf)" or "(0, 1]", and, given `below="other"` or
    `at_most="other"`, stand in that relation to the field `other`; both are
    enforced by :func:`check_ranges`."""
    return field(default=default, metadata={"range": interval, **rule})


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


# a rule between two fields: how the values must compare, and how a breach reads
_RULES = {"below": (operator.lt, "must be below"), "at_most": (operator.le, "must not exceed")}


def check_ranges(obj) -> None:
    """:func:`check_range` of every field of the dataclass `obj`, in order,
    then every rule between two of its fields (see :func:`ranged`), in order."""
    for f in fields(obj):
        check_range(f, getattr(obj, f.name))
    for f in fields(obj):
        for rule, (holds, words) in _RULES.items():
            other = f.metadata.get(rule)
            if other is not None and not holds(getattr(obj, f.name), getattr(obj, other)):
                raise InvalidSpecError(f"{f.name} {words} {other}")
