"""Discrete intervals, extended order statistics, and adjusted quantile levels.

Building blocks for the exact solution-set formulas of quantile total
variation denoising.  Everything here is exact: data values, quantile
levels, and the tuning parameter are rationals, and floor/ceil are taken
on rationals, never on floats.  The integer-boundary case (an adjusted
level landing exactly on an integer) changes which order statistic the
formulas select, so silent float rounding would corrupt results.

Order statistics follow the extended convention

    y_{I,(k)} = k-th smallest of y restricted to I   if 1 <= k <= |I|,
                +inf                                 if k >= |I| + 1,
                -inf                                 if k <= 0,

which makes every order-statistic query total over the integers.

All functions are pure; `OrderStatisticCache` memoises sorted slices and
is safe for concurrent reads under CPython (inserts are GIL-atomic dict
writes keyed by interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from fractions import Fraction
from numbers import Rational
from typing import Sequence, Union

RationalLike = Union[int, Fraction]

__all__ = [
    "DiscreteInterval",
    "ExtendedValue",
    "NEG_INF",
    "POS_INF",
    "AdjustedLevel",
    "OrderStatisticCache",
    "order_stat",
    "boundary_constant",
    "adjusted_levels",
    "floor_index",
    "ceil_index",
    "BOUNDARY_CONSTANT_VALUES",
]


def _as_rational(x, what: str) -> Fraction:
    """Coerce to Fraction, rejecting floats (binary floats are not exact inputs)."""
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

    def indices(self) -> range:
        return range(self.a, self.b + 1)

    def __repr__(self) -> str:
        return f"[{self.a}:{self.b}]"


@total_ordering
class ExtendedValue:
    """A rational extended with -inf / +inf endpoints, totally ordered.

    NegInf < every finite value < PosInf; finite values compare numerically.
    Negation swaps the infinities.  No float sentinels are involved.
    """

    __slots__ = ("tag", "value")

    # tag: -1 -> NegInf, 0 -> finite, +1 -> PosInf
    def __init__(self, tag: int, value: Fraction | None = None):
        if tag == 0:
            if value is None:
                raise ValueError("finite ExtendedValue needs a value")
            object.__setattr__(self, "value", value)
        else:
            if tag not in (-1, 1):
                raise ValueError("tag must be -1, 0 or +1")
            object.__setattr__(self, "value", None)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, *_):  # immutability
        raise AttributeError("ExtendedValue is immutable")

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

    def _key(self):
        # Lexicographic (tag, value) realises the total order.
        return (self.tag, self.value if self.tag == 0 else 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtendedValue):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other) -> bool:
        if not isinstance(other, ExtendedValue):
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self):
        return hash(self._key())

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

#: The only values the boundary constant can take.
BOUNDARY_CONSTANT_VALUES = (
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
)


@dataclass(frozen=True)
class AdjustedLevel:
    """Adjusted local quantile levels u = tau*|I| - 2*lam*C, l = tau*|I| + 2*lam*C.

    Invariant: u + l == 2*tau*|I| exactly.
    """

    u: Fraction
    l: Fraction


class OrderStatisticCache:
    """Order statistics of a fixed data vector over discrete intervals.

    Sorted slices are memoised per interval, so repeated queries on the
    same interval sort it once.
    """

    def __init__(self, y: Sequence):
        self._y = tuple(_as_rational(v, "data value") for v in y)
        if not self._y:
            raise ValueError("data vector must be non-empty")
        self._slices: dict[tuple[int, int], list] = {}

    @property
    def n(self) -> int:
        return len(self._y)

    @property
    def data(self) -> tuple:
        return self._y

    def sorted_slice(self, a: int, b: int) -> list:
        """Sorted copy of y[a..b] (1-based, inclusive), memoised. Do not mutate."""
        got = self._slices.get((a, b))
        if got is None:
            if not (1 <= a <= b <= self.n):
                raise ValueError(f"interval [{a}:{b}] outside [1:{self.n}]")
            got = self._slices[(a, b)] = sorted(self._y[a - 1 : b])
        return got

    def order_stat(self, interval: DiscreteInterval, k: int) -> ExtendedValue:
        """k-th smallest of y restricted to `interval`, extended convention for k."""
        if not (1 <= interval.a and interval.b <= self.n):
            raise ValueError(f"{interval} outside [1:{self.n}]")
        m = interval.length
        if k <= 0:
            return NEG_INF
        if k >= m + 1:
            return POS_INF
        return ExtendedValue(0, self.sorted_slice(interval.a, interval.b)[k - 1])


def order_stat(y: Sequence, interval: DiscreteInterval, k: int) -> ExtendedValue:
    """One-shot extended order statistic; use OrderStatisticCache for repeated queries."""
    return OrderStatisticCache(y).order_stat(interval, k)


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


def adjusted_levels(
    I: DiscreteInterval,
    J: DiscreteInterval,
    tau: RationalLike,
    lam: RationalLike,
    n: int,
) -> AdjustedLevel:
    """Exact adjusted levels (u, l) for the nested pair I <= J at level tau, penalty lam."""
    tau = _as_rational(tau, "tau")
    lam = _as_rational(lam, "lam")
    if not 0 <= tau <= 1:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    c = boundary_constant(I, J, n)
    base = tau * I.length
    return AdjustedLevel(u=base - 2 * lam * c, l=base + 2 * lam * c)


def floor_index(x: RationalLike) -> int:
    """Exact floor of a rational; floats are rejected."""
    if not isinstance(x, Rational):
        raise TypeError(f"floor_index needs a rational, got {type(x).__name__}")
    return math.floor(x)


def ceil_index(x: RationalLike) -> int:
    """Exact ceiling of a rational; floats are rejected."""
    if not isinstance(x, Rational):
        raise TypeError(f"ceil_index needs a rational, got {type(x).__name__}")
    return math.ceil(x)
