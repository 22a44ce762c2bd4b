"""Exact inputs and extended values.

Building blocks for the exact solution-set formulas of quantile total
variation denoising.  Everything here is exact: data values, quantile
levels, and the tuning parameter are rationals, never floats.  The
integer-boundary case (an adjusted level landing exactly on an integer)
changes which order statistic the formulas select, so silent float
rounding would corrupt results.

The formulas select extended order statistics

    y_{I,(k)} = k-th smallest of y restricted to I   if 1 <= k <= |I|,
                +inf                                 if k >= |I| + 1,
                -inf                                 if k <= 0,

which `qtvd.envelope` evaluates, together with the boundary constant
and the adjusted levels.  This module supplies the coercion that admits
only exact inputs and `ExtendedValue` for the +-inf results.  All values
are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["ExtendedValue", "NEG_INF", "POS_INF"]


def _as_rational(x, what: str) -> Fraction:
    """Coerce to Fraction, rejecting floats (binary floats are not exact inputs)."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"{what} must be an exact rational (int, Fraction or str), got float")
    return Fraction(x)


@dataclass(frozen=True, order=True, slots=True)
class ExtendedValue:
    """A rational extended with -inf / +inf endpoints, totally ordered.

    NegInf < every finite value < PosInf; finite values compare numerically,
    since the order is that of the tuple (tag, value).  Negation swaps the
    infinities.  No float sentinels are involved.
    """

    tag: int  # -1 -> NegInf, 0 -> finite, +1 -> PosInf
    value: Fraction | None = None

    def __post_init__(self) -> None:
        if self.tag == 0:
            if self.value is None:
                raise ValueError("finite ExtendedValue needs a value")
        elif self.tag in (-1, 1):
            object.__setattr__(self, "value", None)
        else:
            raise ValueError("tag must be -1, 0 or +1")

    def finite_value(self) -> Fraction:
        if self.tag != 0:
            raise ValueError(f"{self} is not finite")
        return self.value

    def __neg__(self) -> "ExtendedValue":
        if self.tag == 0:
            return ExtendedValue(0, -self.value)
        return ExtendedValue(-self.tag)

    def __repr__(self) -> str:
        if self.tag == 1:
            return "+inf"
        if self.tag == -1:
            return "-inf"
        return f"{self.value}"


NEG_INF = ExtendedValue(-1)
POS_INF = ExtendedValue(1)

