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
are pure; fuzz trials use one seeded generator and are reported
deterministically.  Both audits run on integers: the fuzzer's gap is one
integer ratio, with one kernel memo per distinct (weight, kernel), and the
non-crossing gap is a difference of the two fits' scaled data values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Sequence

from .intervals import _as_rational
from .solver import Instance, _fit_scaled

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


def submodularity_fuzz(penalty: PairwisePenalty, trials: int, seed: int) -> FuzzReport:
    """Sample pairs (x, y) and count failures of P(x)+P(y) >= P(x v y)+P(x ^ y).

    Each trial draws p, q in {1,...,5} and integers kx, ky in {-3,...,3}^n,
    n the largest index the penalty touches, and sets x = kx*p/q, y = ky*p/q,
    so every evaluation and comparison is exact.  Expected zero violations
    for nonnegative-weight convex-kernel penalties.  The gap is summed edge
    by edge: an edge (i, j) with (x_i - y_i) * (x_j - y_j) >= 0 has x v y and
    x ^ y equal to x and y on its ends and adds 0; any other edge has join
    and meet differences x_i - y_j and y_i - x_j.  Each difference is m*p/q,
    so the edges sharing a weight w and a kernel object share one memo of
    w*phi by (p*m, q), held as ints (numerator, denominator); a trial sums
    its terms as one integer ratio over the lcm of their denominators.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not penalty.edges:
        raise ValueError("penalty has no edges")
    n = max(max(e.i, e.j) for e in penalty.edges)
    for e in penalty.edges:  # n is the largest index, so only an index below 1 is out of range
        if min(e.i, e.j) < 1:
            raise IndexError(f"edge ({e.i},{e.j}) out of range for length {n}")
    memo = {}  # one per distinct (weight, kernel), keyed by id() because a kernel need not hash
    for e in penalty.edges:
        if (e.weight, id(e.kernel)) not in memo:
            memo[e.weight, id(e.kernel)] = cache(
                lambda num, den, w=e.weight, phi=e.kernel: (w * phi(Fraction(num, den))).as_integer_ratio())
    terms = [(e.i - 1, e.j - 1, memo[e.weight, id(e.kernel)]) for e in penalty.edges]
    rng = random.Random(seed)
    violations = 0
    first = None
    for _ in range(trials):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        kx = [rng.randint(-3, 3) for _ in range(n)]
        ky = [rng.randint(-3, 3) for _ in range(n)]
        num, den = 0, 1  # the gap is num/den; den is the lcm of the denominators added so far
        for i, j, phi in terms:
            a, b, c, d = kx[i], kx[j], ky[i], ky[j]
            if (a - c) * (b - d) < 0:
                for sign, m in ((1, a - b), (1, c - d), (-1, a - d), (-1, c - b)):
                    t, u = phi(p * m, q)
                    if den % u:
                        common = lcm(den, u)
                        num, den = num * (common // den), common
                    num += sign * t * (den // u)
        if num < 0:
            violations += 1
            if first is None:
                scale = Fraction(p, q)
                first = (tuple(scale * k for k in kx), tuple(scale * k for k in ky))
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
    if not tau2 < 1:
        raise ValueError(f"tau must be in (0, 1), got {tau2}")
    upper1, lower2 = _fit_scaled(inst, "upper"), _fit_scaled(inst, "lower", tau2)
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
