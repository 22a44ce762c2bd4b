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
l_{I,J} = tau*|I| + 2*lam*C_{I,J}, where C_{I,J} is the boundary
constant of the nested pair (see `qtvd.intervals`).

This module evaluates both formulas by full enumeration; no pruning or
early exit is applied.  The boundary constant only depends on which
endpoints I shares with J and on whether J touches 1 or n
(`qtvd.intervals._c2`), so each side needs five selected-rank tables,
one per constant, holding for every interval [a:b] the rank of its
selected order statistic.  They are built once per call.  At location
i, the outer intervals J form an i x (n-i+1) block; the inner maximum
over each of the four sharing classes of I is a running maximum over
that block, and U_i is the minimum of their elementwise maximum.  L_i
is the same kernel applied to the negated lower-side tables.  Work is
O(n^2) per location on numpy arrays, O(n^3) for the whole envelope.

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
from itertools import product
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .intervals import (
    ExtendedValue,
    NEG_INF,
    POS_INF,
    _as_rational,
    _c2,
    ceil_index,
    floor_index,
)

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

    def __len__(self) -> int:
        return len(self.lower)


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

    def tables(self, side: str) -> np.ndarray:
        """tables[c2 + 2][a-1, b-1]: rank of the selected order statistic of y_a..y_b.

        c2 is twice the boundary constant.  The upper side selects index
        floor(tau*m - lam*c2) + 1 and the lower side ceil(tau*m + lam*c2),
        m = b - a + 1.  Rank -1 stands for -inf and len(uniq) for +inf.
        """
        n, tau, lam = self.n, self.tau, self.lam
        tables = np.zeros((5, n, n), dtype=np.int64)
        for m in range(1, n + 1):
            windows = np.sort(sliding_window_view(self.ranks, m), axis=1)
            a = np.arange(n - m + 1)
            for c2 in range(-2, 3):
                if side == "upper":
                    k = floor_index(tau * m - lam * c2) + 1
                else:
                    k = ceil_index(tau * m + lam * c2)
                if k <= 0:
                    rank = -1
                elif k > m:
                    rank = len(self.uniq)
                else:
                    rank = windows[:, k - 1]
                tables[c2 + 2, a, a + m - 1] = rank
        return tables

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
    out = np.roll(np.maximum.accumulate(x, axis=axis), 1, axis=axis)
    out.swapaxes(0, axis)[0] = _EMPTY
    return out


def _min_max(tables: np.ndarray, i: int) -> int:
    """min over J containing i of max over I <= J containing i of tables[class(I, J)][I].

    The block view puts J = [i-p : i+q] at [:, p, q], so an inner I that
    does not share J's left (right) endpoint sits strictly before J along
    axis 1 (2).  Each of the four sharing classes becomes one running-maximum
    term; the table it reads is chosen per J by `_c2`, and only the last
    row (J touches 1) and the last column (J touches n) can differ.
    """
    n = tables.shape[1]
    blocks = tables[:, i - 1 :: -1, i - 1 :]
    inner = np.full(blocks.shape[1:], _EMPTY)
    for shares_left, shares_right in product((False, True), repeat=2):
        terms = blocks
        if not shares_left:
            terms = _strictly_before(terms, 1)
        if not shares_right:
            terms = _strictly_before(terms, 2)
        for at_first, at_last in product((False, True), repeat=2):
            rows = slice(i - 1, None) if at_first else slice(0, i - 1)
            cols = slice(n - i, None) if at_last else slice(0, n - i)
            term = terms[_c2(shares_left, shares_right, at_first, at_last) + 2, rows, cols]
            np.maximum(inner[rows, cols], term, out=inner[rows, cols])
    return int(inner.min())


def envelope(y: Sequence, tau, lam, *, allow_large_n: bool = False) -> Envelope:
    """Both envelope vectors, sharing one set of rank tables across locations."""
    ranked = _RankTables(y, tau, lam, allow_large_n)
    upper_tables = ranked.tables("upper")
    neg_lower_tables = -ranked.tables("lower")
    locations = range(1, ranked.n + 1)
    return Envelope(
        lower=tuple(ranked.to_extended(-_min_max(neg_lower_tables, i)) for i in locations),
        upper=tuple(ranked.to_extended(_min_max(upper_tables, i)) for i in locations),
    )


def upper_envelope_at(y: Sequence, tau, lam, i: int, *, allow_large_n: bool = False) -> ExtendedValue:
    """Exact upper envelope value U_i; finite and a data value for tau in (0,1)."""
    ranked = _RankTables(y, tau, lam, allow_large_n)
    ranked.check_location(i)
    return ranked.to_extended(_min_max(ranked.tables("upper"), i))


def lower_envelope_at(y: Sequence, tau, lam, i: int, *, allow_large_n: bool = False) -> ExtendedValue:
    """Exact lower envelope value L_i; mirrors `upper_envelope_at`."""
    ranked = _RankTables(y, tau, lam, allow_large_n)
    ranked.check_location(i)
    return ranked.to_extended(-_min_max(-ranked.tables("lower"), i))


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
