"""Submodularity machinery and structural audits of the solution set.

A penalty P(theta) = sum over edges (i,j) of w_ij * phi_ij(theta_i - theta_j)
with convex phi_ij and w_ij >= 0 is submodular:

    P(x) + P(y) >= P(x v y) + P(x ^ y)

for coordinatewise max v and min ^.  The chain total-variation penalty is
the instance with absolute-value kernels on consecutive pairs.
Submodularity of the penalty is what forces penalised quantile fits at
two levels tau1 < tau2 (same lam) never to cross, and what closes the
minimiser set under coordinatewise max/min.

This module provides the penalty kernels and edge lists, a seeded
submodularity fuzzer, the non-crossing audit across quantile levels, and
the exact linear dependence of the quantile loss on its level:

    Q_tau2(theta) - Q_tau1(theta) = (tau2 - tau1) * sum_i (y_i - theta_i).

The audit runs on chain penalties, where the exact solver applies; for
non-chain graphs only the submodularity test is exposed.  All functions
are pure; fuzz trials use one generator, seeded by an integer, and are
reported deterministically.  Both audits run on integers.  The fuzzer
runs its trials in blocks of arrays, whose size does not grow with the
trial count.  It reads each block's integers from the generator's raw
bits by the acceptance rule `randint` applies, so the stream, and every
report, is that of one `randint` call per draw.  Each distinct (weight,
kernel) keeps one memo, so its kernel is called once per distinct
argument, and a block sums every trial's gap over one common denominator
as Python ints.  The non-crossing gap is a difference of the two fits'
scaled data values.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .intervals import _as_int, _as_rational
from .solver import Instance, _fit_scaled, _instance

__all__ = [
    "Absolute",
    "Square",
    "Huber",
    "Edge",
    "PairwisePenalty",
    "FuzzReport",
    "NonCrossingReport",
    "submodularity_fuzz",
    "noncrossing_audit",
    "loss_linearity_check",
    "quantile_loss_sum",
]


@dataclass(frozen=True)
class Absolute:
    """phi(x) = |x|; recovers total variation on chain edges with unit weights."""

    def __call__(self, x):
        return abs(x)


@dataclass(frozen=True)
class Square:
    """phi(x) = x^2; the discrete smoothing-spline kernel."""

    def __call__(self, x):
        return x * x


@dataclass(frozen=True)
class Huber:
    """phi(x) = x^2/2 for |x| <= delta, else delta*(|x| - delta/2); exact for rational delta."""

    delta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _as_rational(self.delta, "delta"))
        if self.delta <= 0:
            raise ValueError("Huber delta must be > 0")

    def __call__(self, x):
        a = abs(x)
        if a <= self.delta:
            return x * x / 2
        return self.delta * (a - self.delta / 2)


@dataclass(frozen=True)
class Edge:
    """One penalty term w * phi(theta_i - theta_j); indices are 1-based."""

    i: int
    j: int
    weight: Fraction
    kernel: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "i", _as_int(self.i, "edge endpoint i"))
        object.__setattr__(self, "j", _as_int(self.j, "edge endpoint j"))
        object.__setattr__(self, "weight", _as_rational(self.weight, "weight"))
        if self.i == self.j:
            raise ValueError("edge endpoints must differ")


@dataclass(frozen=True)
class PairwisePenalty:
    """Sum of convex kernels of coordinate differences over an edge list.

    Nonnegative weights keep the penalty submodular; `unchecked=True`
    admits negative weights so tests can plant non-submodular examples.
    """

    edges: tuple
    unchecked: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.unchecked:
            for e in self.edges:
                if e.weight < 0:
                    raise ValueError(f"negative weight on edge ({e.i},{e.j}); use unchecked=True to plant it")

    @classmethod
    def chain(cls, n: int, weight=1, kernel=Absolute()) -> "PairwisePenalty":
        """Consecutive-pairs penalty on [1:n]; Absolute kernel gives weight * TV."""
        return cls(tuple(Edge(i, i + 1, weight, kernel) for i in range(1, n)))


@dataclass(frozen=True)
class FuzzReport:
    trials: int
    violations: int
    first_violation: tuple | None  # (x, y) witnessing the first failure, if any


#: Trials per block are about this many drawn integers over 2n + 2, so a block's arrays do not grow with `trials`.
_BLOCK_DRAWS = 1 << 12

#: A fuzz kernel argument m*p/q, |m| <= 6 and p, q <= 5, in lowest terms num/den is the key (num + 30) * 8 + den.
_KEYS = 61 * 8


def _draws(seed: int, n: int, trials: int, size: int):
    """Yield (p, q, k) per block of at most `size` trials, the integers `random.Random(seed).randint` would draw.

    Per trial that stream is randint(1, 5) twice, for p and q, then
    randint(-3, 3) 2n times, for row k[t]: kx, then ky.  randint(a, b) takes
    getrandbits(3) until it is below b - a + 1, and getrandbits(3) is the
    top 3 bits of the next 32-bit Mersenne Twister word.  getrandbits(32 * w)
    returns the next w words, the first least significant, so one call
    draws a run of values; a 7 is rejected by every draw and dropped at
    once, a 5 or 6 only by the draws of p and q.  Values a block leaves
    unused start the next one.
    """
    rng = random.Random(seed)
    width = 2 * n
    values = np.empty(0, dtype=np.int8)  # drawn, not yet used, without 7s
    for done in range(0, trials, size):
        count = min(size, trials - done)
        p_at, q_at, s = [], [], 0
        while len(q_at) < count:
            # A trial takes 16/5 + 16n/7 words on average; what is left over counts, so `values` stays block-sized.
            words = max((count - len(q_at)) * (4 + 3 * n) - (len(values) - s), 2 * n + 4)
            drawn = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4") >> 29
            values = np.concatenate((values, drawn[drawn != 7].astype(np.int8)))
            end, small = len(values), np.flatnonzero(values < 5).tolist()  # where p and q may be drawn
            # A trial is p and q at the first two of those at or after s, then the 2n values after q.
            while len(q_at) < count and (j := bisect_left(small, s) + 1) < len(small) and small[j] + width < end:
                p_at.append(small[j - 1])
                q_at.append(small[j])
                s = small[j] + 1 + width
        q_at = np.array(q_at)
        p, q = values[p_at].astype(np.int64) + 1, values[q_at].astype(np.int64) + 1
        k = values[q_at[:, None] + np.arange(1, width + 1)].astype(np.int64) - 3
        values = values[s:]
        yield p, q, k


def submodularity_fuzz(penalty: PairwisePenalty, trials: int, seed: int) -> FuzzReport:
    """Sample pairs (x, y) and count failures of P(x)+P(y) >= P(x v y)+P(x ^ y).

    Each trial draws p, q in {1,...,5} and integers kx, ky in {-3,...,3}^n,
    n the largest index the penalty touches, and sets x = kx*p/q, y = ky*p/q,
    so every evaluation and comparison is exact.  Expected zero violations
    for nonnegative-weight convex-kernel penalties.  The gap is summed edge
    by edge: an edge (i, j) with (x_i - y_i) * (x_j - y_j) >= 0 has x v y and
    x ^ y equal to x and y on its ends and adds 0; any other edge adds w*phi
    at its x and y differences x_i - x_j and y_i - y_j minus w*phi at its
    join and meet differences x_i - y_j and y_i - x_j.

    Trials run in blocks of arrays whose size does not grow with `trials`.
    `_draws` reads the integers `randint` would from the same seed, so the
    stream, and every report, is that of a loop of randint calls.  Per
    distinct (weight, kernel), numpy finds the crossing edges and their
    four differences m*p/q, each keyed by its value in lowest terms
    (`_KEYS`).  Each distinct key is looked up in that pair's memo of w*phi
    as ints (numerator, denominator), so the kernel is called once per
    distinct value.  A block brings its values to one common denominator
    as Python ints and sums each trial's gap with one scatter-add.
    """
    trials, seed = _as_int(trials, "trials"), _as_int(seed, "seed")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not penalty.edges:
        raise ValueError("penalty has no edges")
    n = max(max(e.i, e.j) for e in penalty.edges)
    for e in penalty.edges:  # n is the largest index, so only an index below 1 is out of range
        if min(e.i, e.j) < 1:
            raise IndexError(f"edge ({e.i},{e.j}) out of range for length {n}")
    pairs = {}  # per distinct (weight, kernel), keyed by id() because a kernel need not hash
    for e in penalty.edges:
        pairs.setdefault((e.weight, id(e.kernel)), (e.weight, e.kernel, []))[2].append((e.i - 1, e.j - 1))
    groups = [(w, phi, {}, *np.array(ends).T) for w, phi, ends in pairs.values()]  # {} memoises w*phi
    violations = 0
    first = None
    for p, q, k in _draws(seed, n, trials, max(1, _BLOCK_DRAWS // (2 * n + 2))):
        kx, ky = k[:, :n], k[:, n:]
        crossings = []
        for w, phi, memo, i, j in groups:
            a, b, c, d = kx[:, i], kx[:, j], ky[:, i], ky[:, j]
            t, e = np.nonzero((a - c) * (b - d) < 0)
            num = np.stack((a - b, c - d, a - d, c - b))[:, t, e] * p[t]  # x, y, join and meet, over q[t]
            g = np.gcd(num, q[t])
            keys = (num // g + 30) * 8 + q[t] // g
            distinct = np.flatnonzero(np.bincount(keys.ravel())).tolist()
            for key in set(distinct) - memo.keys():
                memo[key] = (w * phi(Fraction(key // 8 - 30, key % 8))).as_integer_ratio()
            crossings.append((t, memo, distinct, keys))
        scale = lcm(*(memo[key][1] for _, memo, distinct, _ in crossings for key in distinct))
        gap = np.zeros(len(p), dtype=object)
        terms = []
        for t, memo, distinct, keys in crossings:
            table = np.zeros(_KEYS, dtype=object)
            table[distinct] = [top * (scale // u) for top, u in map(memo.__getitem__, distinct)]
            value = table[keys]
            terms.append(value[0] + value[1] - value[2] - value[3])
        np.add.at(gap, np.concatenate([t for t, _, _, _ in crossings]), np.concatenate(terms))
        bad = np.flatnonzero(gap < 0)
        violations += len(bad)
        if first is None and len(bad):
            ratio = Fraction(int(p[bad[0]]), int(q[bad[0]]))
            first = (tuple(ratio * v for v in kx[bad[0]].tolist()), tuple(ratio * v for v in ky[bad[0]].tolist()))
    return FuzzReport(trials=trials, violations=violations, first_violation=first)


@dataclass(frozen=True)
class NonCrossingReport:
    ok: bool
    worst_gap: Fraction  # min_i of (lower fit at tau2 minus upper fit at tau1)


def noncrossing_audit(y: Sequence, lam, tau1, tau2) -> NonCrossingReport:
    """Audit that the tau1 upper extremal fit stays below the tau2 lower one.

    Requires tau1 < tau2 and a shared lam; the claim is specific to a
    common tuning parameter.  Extremal fits realise the solution-set
    envelopes exactly, so this checks non-crossing of the full solution
    sets, not just of one pair of minimisers.  y is checked and scaled
    once and both levels are fitted on its scaled ints, so the gap is a
    difference of those ints; one Fraction is built.
    """
    tau1 = _as_rational(tau1, "tau1")
    tau2 = _as_rational(tau2, "tau2")
    if not tau1 < tau2:
        raise ValueError(f"need tau1 < tau2, got {tau1} >= {tau2}")
    inst = Instance(tuple(y), tau1, lam)
    inst2 = _instance(inst.y, tau2, inst.lam, inst._scaled_y)
    upper1, lower2 = _fit_scaled(inst, "upper"), _fit_scaled(inst2, "lower")
    worst = Fraction(min(b - a for a, b in zip(upper1, lower2)), inst._scaled_y[0])
    return NonCrossingReport(ok=worst >= 0, worst_gap=worst)


def _check_loss(x, tau):
    """rho_tau(x) = max(tau*x, (tau-1)*x)."""
    return tau * x if x >= 0 else (tau - 1) * x


def quantile_loss_sum(y: Sequence, theta: Sequence, tau) -> Fraction:
    """Q_tau(theta) = sum_i rho_tau(y_i - theta_i), exact."""
    tau = _as_rational(tau, "tau")
    if len(y) != len(theta):
        raise ValueError("length mismatch")
    diffs = (_as_rational(yi, "data value") - _as_rational(ti, "theta value") for yi, ti in zip(y, theta))
    return sum((_check_loss(d, tau) for d in diffs), Fraction(0))


def loss_linearity_check(y: Sequence, theta: Sequence, tau1, tau2) -> bool:
    """True iff Q_tau2 - Q_tau1 equals (tau2-tau1) * sum(y - theta) exactly."""
    tau1 = _as_rational(tau1, "tau1")
    tau2 = _as_rational(tau2, "tau2")
    lhs = quantile_loss_sum(y, theta, tau2) - quantile_loss_sum(y, theta, tau1)
    rhs = (tau2 - tau1) * sum(
        _as_rational(a, "data value") - _as_rational(b, "theta value") for a, b in zip(y, theta)
    )
    return lhs == rhs
