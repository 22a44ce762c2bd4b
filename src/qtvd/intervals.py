"""Discrete intervals, extended values, and the boundary constant.

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

at the adjusted levels u = tau*|I| - 2*lam*C_{I,J} and
l = tau*|I| + 2*lam*C_{I,J} of a nested pair I <= J.  Both are
evaluated in one place, the rank tables of `qtvd.envelope`, which take
floor and ceil on integers scaled to the lattice of tau and lam; this
module supplies the other pieces: `ExtendedValue` for the +-inf results
and the boundary constant C_{I,J}.  All functions are pure and all
values immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "DiscreteInterval",
    "ExtendedValue",
    "NEG_INF",
    "POS_INF",
    "boundary_constant",
]


def _as_rational(x, what: str) -> Fraction:
    """Coerce to Fraction, rejecting floats (binary floats are not exact inputs)."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"{what} must be an exact rational (int, Fraction or str), got float")
    return Fraction(x)


@dataclass(frozen=True, order=True)
class DiscreteInterval:
    """Closed integer range [a:b], 1-based and inclusive on both ends."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise TypeError("interval endpoints must be ints")
        if not 1 <= self.a <= self.b:
            raise ValueError(f"need 1 <= a <= b, got [{self.a}:{self.b}]")

    @property
    def length(self) -> int:
        return self.b - self.a + 1

    def contains(self, i: int) -> bool:
        return self.a <= i <= self.b

    def within(self, other: "DiscreteInterval") -> bool:
        return other.a <= self.a and self.b <= other.b

    def __repr__(self) -> str:
        return f"[{self.a}:{self.b}]"


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

    @classmethod
    def finite(cls, value) -> "ExtendedValue":
        return cls(0, _as_rational(value, "value"))

    @property
    def is_finite(self) -> bool:
        return self.tag == 0

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


def _c2(shares_left: bool, shares_right: bool, at_first: bool, at_last: bool) -> int:
    """Twice the boundary constant of I nested in J, as an int in {-2,-1,0,1,2}.

    The inputs say whether I shares J's left / right endpoint and whether J
    touches the global boundary 1 / n.  Each end of J contributes +1 if I
    avoids it, -1 if I shares it and it is interior to [1:n], and 0 if I
    shares it and it is a global boundary point.
    """
    left = (int(at_first) - 1) if shares_left else 1
    right = (int(at_last) - 1) if shares_right else 1
    return left + right


def boundary_constant(I: DiscreteInterval, J: DiscreteInterval, n: int) -> Fraction:
    """Boundary constant C_{I,J} in {-1, -1/2, 0, 1/2, 1} for nested I <= J <= [1:n]."""
    if not (1 <= J.a and J.b <= n):
        raise ValueError(f"J={J} outside [1:{n}]")
    if not I.within(J):
        raise ValueError(f"I={I} is not a subinterval of J={J}")
    return Fraction(_c2(I.a == J.a, I.b == J.b, J.a == 1, J.b == n), 2)

