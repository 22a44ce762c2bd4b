"""Exact pointwise envelopes of the quantile TV denoising solution set.

For data y, level tau in (0,1) and penalty lam >= 0, the set of optimal
fitted values at a location i is a closed interval [L_i, U_i] whose
endpoints admit exact order-statistic formulas over nested interval
pairs:

    U_i = min over J containing i  of  max over I <= J containing i
            of  y_{I,(floor(u_{I,J}) + 1)},
    L_i = max over J containing i  of  min over I <= J containing i
            of  y_{I,(ceil(l_{I,J}))},

with adjusted levels u_{I,J} = tau*|I| - 2*lam*C_{I,J} and
l_{I,J} = tau*|I| + 2*lam*C_{I,J}, where C_{I,J} in
{-1, -1/2, 0, 1/2, 1} is the boundary constant of the nested pair.

This module evaluates both formulas by full enumeration; no pruning or
early exit is applied.  The boundary constant only depends on which
endpoints I shares with J and on whether J touches 1 or n
(`_c2`), so each side needs five selected-rank tables,
one per constant, holding for every interval [a:b] the rank of its
selected order statistic.  They are built once per call, sorting the
windows of each length once for both sides; the selection indices are
floor/ceil of the adjusted levels taken on the integer lattice
`solver._lattice`, so no Fraction is floored.  Each of the four sharing
classes of I then reads one table: that of an interior J, with the row
of J touching 1 and the column of J touching n patched in from the
tables `_c2` names there.  At location i, the outer intervals J form an
i x (n-i+1) block of each class table; the inner maximum over a class
is a running maximum along the ends I does not share (2, 1, 1 and 0
passes), and U_i is the minimum of the four terms' elementwise maximum.
L_i is the same kernel applied to the negated lower-side tables.  Work
is O(n^2) per location on numpy arrays, O(n^3) for the whole envelope.

Arithmetic is exact end to end.  Values are mapped to ranks in the
sorted distinct-value list, the enumeration runs on int64 ranks, and
ranks map back to exact data values at the end.  Infinities from the
extended order-statistic convention are the off-range ranks -1 and
len(uniq), so they propagate through min/max without float sentinels.

Calls share no mutable state.  The soft cap keeps accidental huge
inputs out (the chain solver covers large n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .intervals import ExtendedValue, NEG_INF, POS_INF, _as_rational
from .solver import _lattice

__all__ = [
    "Envelope",
    "envelope",
    "upper_envelope_at",
    "lower_envelope_at",
    "reflection_check",
    "SOFT_CAP",
]

#: Largest n accepted without `allow_large_n=True`.
SOFT_CAP = 64

# Identity of max: marks an empty inner class; never wins against the I = J term.
_EMPTY = np.iinfo(np.int64).min


@dataclass(frozen=True)
class Envelope:
    """Per-location lower/upper bounds of the solution set.

    L_i <= U_i always; for tau in (0,1) every entry is finite and equals
    some data value.  tau = 0 with lam > 0 gives L = -inf, U = min(y);
    tau = 1 with lam > 0 mirrors that.
    """

    lower: tuple[ExtendedValue, ...]
    upper: tuple[ExtendedValue, ...]


def _c2(shares_left: bool, shares_right: bool, at_first: bool, at_last: bool) -> int:
    """Twice the boundary constant C_{I,J} of I nested in J, as an int in {-2,-1,0,1,2}.

    The inputs say whether I shares J's left / right endpoint and whether J
    touches the global boundary 1 / n.  Each end of J contributes +1 if I
    avoids it, -1 if I shares it and it is interior to [1:n], and 0 if I
    shares it and it is a global boundary point.
    """
    left = (int(at_first) - 1) if shares_left else 1
    right = (int(at_last) - 1) if shares_right else 1
    return left + right


class _RankTables:
    """Exact rank encoding of the data and the per-class selected-rank tables."""

    def __init__(self, y: Sequence, tau, lam, allow_large_n: bool):
        y = tuple(_as_rational(v, "data value") for v in y)
        self.tau = _as_rational(tau, "tau")
        self.lam = _as_rational(lam, "lam")
        if not 0 <= self.tau <= 1:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        self.n = len(y)
        if self.n == 0:
            raise ValueError("data vector must be non-empty")
        if self.n > SOFT_CAP and not allow_large_n:
            raise ValueError(
                f"n={self.n} exceeds the envelope enumeration cap {SOFT_CAP}; "
                "pass allow_large_n=True to override"
            )
        self.uniq = sorted(set(y))
        rank_of = {v: r for r, v in enumerate(self.uniq)}
        self.ranks = np.array([rank_of[v] for v in y], dtype=np.int64)

    def tables(self, *sides: str) -> tuple:
        """Per side, tables[c2 + 2][a-1, b-1]: rank of the selected order statistic of y_a..y_b.

        c2 is twice the boundary constant.  The upper side selects index
        floor(tau*m - lam*c2) + 1 and the lower side ceil(tau*m + lam*c2),
        m = b - a + 1, both clipped to [0, m+1], where each sorted window
        is padded with rank -1 (-inf) and len(uniq) (+inf).  The sides
        share one sort per window length.
        """
        n = self.n
        unit, tau, lam = _lattice(self.tau, self.lam)
        out = tuple(np.zeros((5, n * n), dtype=np.int64) for _ in sides)
        for m in range(1, n + 1):
            windows = np.empty((n - m + 1, m + 2), dtype=np.int64)
            windows[:, 0], windows[:, -1] = -1, len(self.uniq)
            windows[:, 1:-1] = np.sort(sliding_window_view(self.ranks, m), axis=1)
            for side, tables in zip(sides, out):
                for c2 in range(-2, 3):
                    if side == "upper":
                        k = (tau * m - lam * c2) // unit + 1
                    else:
                        k = -((-tau * m - lam * c2) // unit)
                    # [a-1, a+m-2] for a = 1..n-m+1 is every (n+1)-th flat entry from m-1
                    tables[c2 + 2, m - 1 :: n + 1][: n - m + 1] = windows[:, min(max(k, 0), m + 1)]
        return tuple(tables.reshape(5, n, n) for tables in out)

    def check_location(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"location {i} outside [1:{self.n}]")

    def to_extended(self, rank: int) -> ExtendedValue:
        if rank < 0:
            return NEG_INF
        if rank == len(self.uniq):
            return POS_INF
        return ExtendedValue(0, self.uniq[rank])


def _strictly_before(x: np.ndarray, axis: int) -> np.ndarray:
    """out[.., k, ..] = max of x over indices < k along `axis`; _EMPTY where there are none."""
    out = np.empty_like(x)
    head, body = out.swapaxes(0, axis), x.swapaxes(0, axis)
    head[0] = _EMPTY
    np.maximum.accumulate(body[:-1], axis=0, out=head[1:])
    return out


def _class_tables(tables: np.ndarray) -> list:
    """(shares_left, shares_right, table) per sharing class of I in J = [a:b].

    table[a-1, b-1] is tables[c2 + 2][a-1, b-1] with c2 from `_c2` for J
    touching 1 (row 0) or n (last column).  A class that avoids J's left
    (right) end ignores that flag, and a class that shares it inherits it
    from J, so the table is exact for every I of the class inside any J.
    """
    classes = []
    for shares_left, shares_right in product((False, True), repeat=2):
        c2 = partial(_c2, shares_left, shares_right)  # (at_first, at_last) -> c2
        table = tables[c2(False, False) + 2].copy()
        table[0] = tables[c2(True, False) + 2, 0]
        table[:, -1] = tables[c2(False, True) + 2, :, -1]
        table[0, -1] = tables[c2(True, True) + 2, 0, -1]
        classes.append((shares_left, shares_right, table))
    return classes


def _min_max(classes: list, i: int) -> int:
    """min over J containing i of max over I <= J containing i of the class table at I.

    The block view puts J = [i-p : i+q] at [p, q], so an inner I that does
    not share J's left (right) endpoint sits strictly before J along axis 0
    (1): a running maximum per unshared end, 2, 1, 1 and 0 passes for the
    four classes.
    """
    inner = None
    for shares_left, shares_right, table in classes:
        term = table[i - 1 :: -1, i - 1 :]
        if not shares_left:
            term = _strictly_before(term, 0)
        if not shares_right:
            term = _strictly_before(term, 1)
        inner = term if inner is None else np.maximum(inner, term)
    return int(inner.min())


def envelope(y: Sequence, tau, lam, *, allow_large_n: bool = False) -> Envelope:
    """Both envelope vectors, sharing one set of rank tables across locations."""
    ranked = _RankTables(y, tau, lam, allow_large_n)
    upper, lower = ranked.tables("upper", "lower")
    upper, neg_lower = _class_tables(upper), _class_tables(np.negative(lower, out=lower))
    locations = range(1, ranked.n + 1)
    return Envelope(
        lower=tuple(ranked.to_extended(-_min_max(neg_lower, i)) for i in locations),
        upper=tuple(ranked.to_extended(_min_max(upper, i)) for i in locations),
    )


def upper_envelope_at(y: Sequence, tau, lam, i: int, *, allow_large_n: bool = False) -> ExtendedValue:
    """Exact upper envelope value U_i; finite and a data value for tau in (0,1)."""
    ranked = _RankTables(y, tau, lam, allow_large_n)
    ranked.check_location(i)
    (upper,) = ranked.tables("upper")
    return ranked.to_extended(_min_max(_class_tables(upper), i))


def lower_envelope_at(y: Sequence, tau, lam, i: int, *, allow_large_n: bool = False) -> ExtendedValue:
    """Exact lower envelope value L_i; mirrors `upper_envelope_at`."""
    ranked = _RankTables(y, tau, lam, allow_large_n)
    ranked.check_location(i)
    (lower,) = ranked.tables("lower")
    return ranked.to_extended(-_min_max(_class_tables(np.negative(lower, out=lower)), i))


def reflection_check(y: Sequence, tau, lam, *, allow_large_n: bool = False) -> bool:
    """True iff negating the data and flipping tau to 1 - tau swaps the envelopes.

    The identity U_i(-y, 1-tau, lam) == -L_i(y, tau, lam) (and its mirror)
    follows from (-y)_{I,(|I|-k+1)} == -y_{I,(k)} applied inside the
    envelope formulas.  This evaluates both sides exactly.
    """
    tau = _as_rational(tau, "tau")
    env = envelope(y, tau, lam, allow_large_n=allow_large_n)
    neg_y = [-_as_rational(v, "data value") for v in y]
    env_neg = envelope(neg_y, 1 - tau, lam, allow_large_n=allow_large_n)
    return all(
        env_neg.upper[i] == -env.lower[i] and env_neg.lower[i] == -env.upper[i]
        for i in range(len(y))
    )
