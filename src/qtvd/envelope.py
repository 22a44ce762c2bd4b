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

At tau = 0, L = -inf everywhere, and U = min(y) for lam > 0 but U = y
at lam = 0; tau = 1 is the mirror image (criterion 6).  These closed
forms are read off the data's ranks, with no table built.  For tau in
(0,1) this module evaluates both formulas by full enumeration; no
pruning or early exit is applied.  The boundary constant only depends
on which endpoints I shares with J and on whether J touches 1 or n
(`_c2`), so each side needs five selected-rank tables, one per
constant, holding for every interval [a:b] the rank of its selected
order statistic.  The selection indices (floor/ceil of the adjusted
levels on the integer lattice `solver._lattice`) are computed for all
window lengths m at once: in int64 when tau*n + 2*lam + unit, in the
lattice's ints, fits int64, since that bounds every term, else as
Python ints, the dtype rule of `solver._dual_system`.  Per m, one sort
of the windows serves both sides, and one gather of the selected
columns is written along the tables' m-th diagonal.  A point query fills
only the windows containing its location.  Each sharing class of I reads
the table of an interior J, with the row of J touching 1 and the column
of J touching n patched in from the tables `_c2` names there.  Both
sides' classes, the lower side negated, form one [side, class, n-a, b-1]
array with reversed rows, so at location i the J = [i-p : i+q] are a
positive-stride i x (n-i+1) block.  The inner maximum over a class is a
running maximum along the ends I avoids, and U_i and -L_i are the
block's minima.  On the same I, a class that avoids an end of J has the
larger c2 and never selects above its twin that shares it, so each fold
may read J's own index.  The classes that avoid J's right end take
theirs along b, and the row maximum over b' in [i, b] is the one over
[i+1, b] with column i folded in.  So the envelope sweeps i = n, ..., 1
over the class table in place: step i folds column b = i of the class
avoiding both ends into the one sharing only J's right end, and of the
class sharing only J's left end into I = J, over the block at i
(a <= i <= b).  The block then needs one running maximum along p, one
more maximum and its minimum: four numpy calls per location for both
sides.  A point query folds its one block with a running maximum along q
instead.  Each step and each block still touch O(n^2) entries, because
the minimum over J reads every J containing i: work is O(n^2) per
location and O(n^3) for the envelope, and memory is O(n^2) per side.

Arithmetic is exact end to end.  Values are mapped to ranks in the
sorted distinct-value list, the enumeration runs on the ranks, and
ranks map back to exact data values at the end.  Ranks, their
sentinels and the lower side's negated ranks lie in [-len(uniq),
len(uniq)], so they are int16 when the data have at most 32767
distinct values and int32 otherwise: the narrower tables halve the
bytes the sweep moves.  Building the class tables peaks at 18*n^2 bytes
for one side and 36*n^2 for both in int16 (the lower side is negated in
place), twice that in int32.  The ranks are those of the
data's scaled ints (`solver._scaled`), which hash and sort faster than
Fractions and in the same order, since the scale is positive; each rank
maps back to the data's own Fraction, as in `fit`.
`_RankTables.ends` is the one evaluator behind the public functions:
`envelope` asks it for both sides at every location, a point query for
one side at one location.
Infinities from the extended order-statistic convention are the
off-range ranks -1 and len(uniq), so they propagate through min/max
without float sentinels.

Calls share no mutable state.  The soft cap `SOFT_CAP` guards the
enumeration only: it keeps accidental huge inputs out of the O(n^3)
work, while tau in {0, 1} answers at any n.  The chain solver covers
large n: `qtvd envelope` takes L and U from its extremal fits at every
n unless asked to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .intervals import ExtendedValue, NEG_INF, POS_INF, _as_location, _as_rational, _as_rationals
from .solver import _lattice, _scaled

__all__ = [
    "Envelope",
    "envelope",
    "upper_envelope_at",
    "lower_envelope_at",
    "reflection_check",
    "SOFT_CAP",
]

#: Largest n enumerated without `allow_large_n=True`; tau in {0, 1} needs no enumeration.
SOFT_CAP = 64


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


# Sharing classes (shares_left, shares_right) of I in J; on one I, FF <= FT <= TT and FF <= TF <= TT, lower negated.
_CLASSES = ((False, True), (False, False), (True, False), (True, True))

# Per (J touches 1, J touches n): the c2 + 2 row of the rank tables that each class reads.
_PICK = {flags: [_c2(*cls, *flags) + 2 for cls in _CLASSES] for flags in product((False, True), repeat=2)}


class _RankTables:
    """Exact rank encoding of the data and the per-class selected-rank tables."""

    def __init__(self, y: Sequence, tau, lam, allow_large_n: bool):
        y = _as_rationals(y, "data value")
        self.tau = _as_rational(tau, "tau")
        self.lam = _as_rational(lam, "lam")
        if not 0 <= self.tau <= 1:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        self.n = len(y)
        if self.n == 0:
            raise ValueError("data vector must be non-empty")
        self.allow_large_n = allow_large_n
        ints = _scaled(y)[1]  # the scale is positive, so the ints sort as y does
        value = dict(zip(ints, y))
        distinct = sorted(value)
        rank = dict(zip(distinct, range(len(distinct))))
        self.uniq = list(map(value.__getitem__, distinct))
        # Ranks, sentinels and negated ranks lie in [-len(uniq), len(uniq)]
        dtype = np.int16 if len(self.uniq) <= np.iinfo(np.int16).max else np.int32
        self.ranks = np.array(list(map(rank.__getitem__, ints)), dtype=dtype)

    def tables(self, *sides: str, at: int | None = None) -> np.ndarray:
        """tables[s, c2 + 2, a-1, b-1]: rank of the order statistic side s selects from y_a..y_b.

        c2 is twice the boundary constant and m = b - a + 1.  The upper side
        selects index floor(tau*m - lam*c2) + 1 and the lower side ceil(tau*m
        + lam*c2), clipped to [0, m+1]: 0 is rank -1 (-inf) and m+1 is rank
        len(uniq) (+inf).  With `at=i`, only windows containing i are filled.
        """
        n = self.n
        if n > SOFT_CAP and not self.allow_large_n:
            raise ValueError(f"n={n} exceeds the envelope enumeration cap {SOFT_CAP}; override with allow_large_n=True")
        unit, tau, lam = _lattice(self.tau, self.lam)
        # Every term below lies within tau*n + 2*lam + unit of 0; past int64 they stay Python ints
        dtype = np.int64 if tau * n + 2 * lam + unit <= np.iinfo(np.int64).max else object
        length, c2 = np.arange(1, n + 1, dtype=dtype)[:, None], np.arange(-2, 3, dtype=dtype)
        index = {"upper": (tau * length - lam * c2) // unit + 1, "lower": -((-tau * length - lam * c2) // unit)}
        k = np.clip(np.hstack([index[side] for side in sides]), 0, length + 1).astype(np.intp)
        padded = np.concatenate((self.ranks, self.ranks[1:]))
        windows = as_strided(padded, (n, n), 2 * padded.strides, writeable=False)  # [a-1, :m] is y_a..y_{a+m-1}
        # Row a-1: sorted y_a..y_{a+m-1} between -1 and len(uniq); m ascends, so column m+1 is untouched
        ordered = np.full((n, n + 2), len(self.uniq), dtype=self.ranks.dtype)
        ordered[:, 0] = -1
        out = np.zeros((len(sides) * 5, n * n), dtype=self.ranks.dtype)
        for m in range(1, n + 1):
            first, last = (1, n - m + 1) if at is None else (max(1, at - m + 1), min(at, n - m + 1))
            block = ordered[first - 1 : last, 1 : m + 1]
            block[...] = windows[first - 1 : last, :m]
            block.sort(axis=1)
            diagonal = out[:, (first - 1) * (n + 1) + m - 1 :: n + 1]  # [a-1, a+m-2] for a = first, first+1, ...
            diagonal[:, : last - first + 1] = ordered[first - 1 : last, k[m - 1]].T
        return out.reshape(len(sides), 5, n, n)

    def classes(self, *sides: str, at: int | None = None) -> np.ndarray:
        """table[s, k, n-a, b-1]: the rank side s selects on I = [a:b] of class _CLASSES[k].

        A class that avoids J's left (right) end ignores that flag of `_c2`,
        and for a class that shares it, J touches 1 (n) iff I does; so row
        a = 1 and column b = n, patched in from the tables `_c2` names there,
        make the table exact for every I of the class inside any J.  Lower
        sides are negated, turning their max-min into a min-max.  With
        `at=i`, only the windows a <= i <= b are kept: table[s, k, i-a, b-i].
        """
        tables = self.tables(*sides, at=at)
        if at is not None:
            tables = tables[:, :, :at, at - 1 :]
        table = tables[:, _PICK[False, False], ::-1]
        table[:, :, -1] = tables[:, :, 0][:, _PICK[True, False]]
        table[..., -1] = tables[..., -1][:, _PICK[False, True], ::-1]
        table[:, :, -1, -1] = tables[:, :, 0, -1][:, _PICK[True, True]]
        for s, side in enumerate(sides):
            if side == "lower":
                np.negative(table[s], out=table[s])
        return table

    def ends(self, *sides: str, at: int | None = None) -> list:
        """ends[k][s], side s at location k+1 (or `at`): `_min_max`'s rank, un-negated on the lower side,
        as -inf (rank -1), +inf (rank len(uniq)) or the data value uniq[rank].

        At tau in {0, 1} the rank is `_closed_form`'s, and no table is
        built.  Otherwise `_min_max` reads FT with FF's running maximum
        along q folded in at q itself, and TT with TF's: on the same I the
        avoiding class lies below its sharing twin.  The envelope sweeps
        i = n, ..., 1, step i folding column b = i of FF into FT (of TF
        into TT) over the block at i, which is then ready.
        """
        if at is not None:
            at = _as_location(at, self.n)
        values = [NEG_INF, *(ExtendedValue(0, v) for v in self.uniq), POS_INF]  # at rank + 1
        if self.tau in (0, 1):
            ranks = np.stack([self._closed_form(side) for side in sides], axis=1)
            return [[values[r + 1] for r in rs] for rs in (ranks[at - 1 : at] if at else ranks).tolist()]
        table, signs = self.classes(*sides, at=at), [-1 if side == "lower" else 1 for side in sides]
        ft_tt, ff_tf = table[:, ::3], table[:, 1:3]
        if at:
            np.maximum.accumulate(ff_tf, axis=3, out=ff_tf)
            np.maximum(ft_tt, ff_tf, out=ft_tt)
            ranks = [_min_max(ft_tt)]
        else:
            n, ranks = self.n, []
            for i in range(n, 0, -1):
                block = ft_tt[..., n - i :, i - 1 :]
                np.maximum(block, ff_tf[..., n - i :, i - 1 : i], out=block)
                ranks.append(_min_max(block))
            ranks.reverse()
        return [[values[s * r + 1] for s, r in zip(signs, rs)] for rs in ranks]

    def _closed_form(self, side: str) -> np.ndarray:
        """Side's rank at every location for tau in {0, 1}, read off the data's ranks (criterion 6).

        At tau = 0, L = -inf, and U = min(y) for lam > 0 but U = y at
        lam = 0; tau = 1 is the mirror image.
        """
        top = len(self.uniq)
        if (side == "upper") != (self.tau == 0):  # -inf below at tau = 0, +inf above at tau = 1
            return np.full(self.n, -1 if side == "lower" else top)
        if self.lam == 0:
            return self.ranks
        return np.full(self.n, 0 if self.tau == 0 else top - 1)


def _min_max(run: np.ndarray) -> list:
    """Per side, min over J containing i of max over I <= J containing i of the class table at I.

    `run` is the block at i of FT and TT as `ends` folds them, J = [i-p :
    i+q] at [p, q]; it is only read.  Naming a class by whether I shares
    J's left and right end (T/F), the I that avoid J's left end are FT at
    [p', q] and FF at [p', q'] with p' < p, q' < q, and the others besides
    J are TF at [p, q'].  FT holds FF's running maximum along q and TT
    holds TF's, so FT takes its own running maximum along p, and TT takes
    FT's at p itself: on the same I, FT <= TT and FF <= TF, so the terms
    at p' = p add nothing.  A class with no I in J adds nothing.
    """
    ft = np.maximum.accumulate(run[:, 0], axis=1)
    np.maximum(ft, run[:, 1], out=ft)
    return ft.min(axis=(1, 2)).tolist()


def envelope(y: Sequence, tau, lam, *, allow_large_n: bool = False) -> Envelope:
    """Both envelope vectors, sharing one set of rank tables across locations."""
    return Envelope(*zip(*_RankTables(y, tau, lam, allow_large_n).ends("lower", "upper")))


def upper_envelope_at(y: Sequence, tau, lam, i: int, *, allow_large_n: bool = False) -> ExtendedValue:
    """Exact upper envelope value U_i; finite and a data value for tau in (0,1)."""
    return _RankTables(y, tau, lam, allow_large_n).ends("upper", at=i)[0][0]


def lower_envelope_at(y: Sequence, tau, lam, i: int, *, allow_large_n: bool = False) -> ExtendedValue:
    """Exact lower envelope value L_i; mirrors `upper_envelope_at`."""
    return _RankTables(y, tau, lam, allow_large_n).ends("lower", at=i)[0][0]


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
