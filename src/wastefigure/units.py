"""Decibel/linear conversions for power quantities.

Everything inside this package computes on linear power ratios; decibels
appear only at the configuration and reporting boundaries. The power
convention is used throughout: ``x_db = 10 * log10(x)``.
"""

from __future__ import annotations

import math
import sys

__all__ = ["db_to_linear", "linear_to_db"]

# the largest finite float: ``x <= FLOAT_MAX`` is false for inf, NaN and an
# int too large for a float, so one chained comparison checks "finite"
FLOAT_MAX = sys.float_info.max
FLOAT_MIN = sys.float_info.min  # the smallest normal float


def in_range(
    name: str, value: float, low: float, high: float = FLOAT_MAX, *, open_low: bool = False
) -> bool:
    """``low <= value <= high`` (``low < value`` if open_low); a non-number, on
    which the comparison raises a bare TypeError, is a ValueError naming ``name``."""
    try:
        return (low < value <= high) if open_low else (low <= value <= high)
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def finite_ratio(name: str, num: float, den: float) -> float:
    """``num / den``, with a denominator that underflowed to 0 counted as infinite;
    a quotient that is not a finite float is a ValueError naming ``name``."""
    ratio = num / den if den else math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"{name} = {num!r} / {den!r} is outside the float range")
    return ratio


def finite_power(name: str, base: float, exp: float) -> float:
    """``base**exp`` for a positive base; a power that overflows or underflows to 0
    is a ValueError naming ``name``."""
    try:
        power = base**exp
    except OverflowError:
        power = math.inf
    if 0.0 < power <= FLOAT_MAX:
        return power
    raise ValueError(f"{name} = {base!r}**{exp!r} is outside the float range")


def finite(name: str, value: float) -> float:
    """``value`` if it is finite; otherwise a ValueError naming ``name``."""
    if math.isfinite(value):
        return value
    raise ValueError(f"{name} = {value!r} is outside the float range")


def db_to_linear(value_db: float) -> float:
    """Convert a power quantity in dB to a linear ratio."""
    if not math.isfinite(value_db):
        raise ValueError(f"dB value must be finite, got {value_db!r}")
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValueError(f"dB value {value_db!r} is outside the float range as a linear ratio") from None


def linear_to_db(ratio: float) -> float:
    """Convert a positive linear power ratio to dB."""
    if not (ratio > 0.0 and math.isfinite(ratio)):
        raise ValueError(f"linear ratio must be positive and finite, got {ratio!r}")
    return 10.0 * math.log10(ratio)
