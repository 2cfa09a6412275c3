"""Exact rational arithmetic for threshold comparisons, and counts.

Density-style parameters (nu, tau, gamma, epsilon) enter inequalities such
as ``tau * n < |S|`` where off-by-one at the boundary changes the verdict.
All public entry points therefore coerce them to Fraction once, and every
comparison downstream is exact.  Integer counts (lengths, orders, d, the
restart budget, the ladder parameter) are checked by as_count.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BadParameter

Real = int | float | str | Fraction


def as_fraction(x: Real) -> Fraction:
    """Coerce x to an exact Fraction.

    Floats are read through their shortest decimal repr, so 0.1 means
    exactly 1/10 rather than the nearest binary double.  Strings accept
    both "0.1" and "1/6".
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise BadParameter("boolean is not a numeric parameter")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise BadParameter(f"non-finite parameter {x!r}")
        return Fraction(repr(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParameter(f"cannot parse {x!r} as a rational") from exc
    raise BadParameter(f"cannot interpret {type(x).__name__} as a rational")


def as_density(x: Real, name: str, *, closed: bool = False) -> Fraction:
    """x as an exact Fraction in (0, 1), or in (0, 1] when closed (nu may
    be 1, a degree margin gamma may not).  Out of range raises
    BadParameter naming the parameter."""
    f = as_fraction(x)
    if not (0 < f <= 1 if closed else 0 < f < 1):
        raise BadParameter(f"{name} must lie in (0, 1{']' if closed else ')'}, got {x}")
    return f


def as_count(x, name: str, least: int | None = 1) -> int:
    """x as an int >= least (any int when least is None).  A bool, a
    value that is not a whole number (2.5, "3", nan) or one below least
    raises BadParameter naming it; a whole value of another type, such
    as 3.0, reads as its int."""
    try:
        whole = not isinstance(x, bool) and x == int(x)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise BadParameter(f"{name} must be an integer, got {x!r}")
    if least is not None and x < least:
        raise BadParameter(f"{name} must be >= {least}")
    return int(x)
