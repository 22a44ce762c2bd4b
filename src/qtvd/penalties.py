"""Submodularity machinery and structural audits of the solution set.

A penalty P(theta) = sum over edges (i,j) of w_ij * phi_ij(theta_i - theta_j)
with convex phi_ij and w_ij >= 0 is submodular:

    P(x) + P(y) >= P(x v y) + P(x ^ y)

for coordinatewise max v and min ^.  The chain total-variation penalty is
the instance with absolute-value kernels on consecutive pairs.
Submodularity of the penalty is what forces penalised quantile fits at
two levels tau1 < tau2 (same lam) never to cross, and what closes the
minimiser set under coordinatewise max/min.

This module provides exact penalty evaluation, a seeded submodularity
fuzzer, the non-crossing audit across quantile levels, and the exact
linear dependence of the quantile loss on its level:

    Q_tau2(theta) - Q_tau1(theta) = (tau2 - tau1) * sum_i (y_i - theta_i).

The audit runs on chain penalties, where the exact solver applies; for
non-chain graphs only the submodularity test is exposed.  All functions
are pure; fuzz trials use one seeded generator and are reported
deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intervals import _as_rational
from .solver import Instance, _check_loss, fit, lattice_join, lattice_meet

__all__ = [
    "Absolute",
    "Square",
    "Huber",
    "Edge",
    "PairwisePenalty",
    "FuzzReport",
    "NonCrossingReport",
    "penalty_value",
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

    def value(self, theta: Sequence):
        n = len(theta)
        total = Fraction(0)
        for e in self.edges:
            if not (1 <= e.i <= n and 1 <= e.j <= n):
                raise IndexError(f"edge ({e.i},{e.j}) out of range for length {n}")
            total += e.weight * e.kernel(theta[e.i - 1] - theta[e.j - 1])
        return total


def penalty_value(penalty: PairwisePenalty, theta: Sequence):
    """Exact P(theta); Absolute and Square are exact, Huber exact for rational delta."""
    return penalty.value(tuple(_as_rational(v, "theta value") for v in theta))


@dataclass(frozen=True)
class FuzzReport:
    trials: int
    violations: int
    first_violation: tuple | None  # (x, y) witnessing the first failure, if any


def submodularity_fuzz(penalty: PairwisePenalty, trials: int, seed: int, n: int | None = None) -> FuzzReport:
    """Sample pairs (x, y) and count failures of P(x)+P(y) >= P(x v y)+P(x ^ y).

    Coordinates are drawn from {-3,...,3} scaled by a random rational
    factor, so every evaluation and comparison is exact.  Expected zero
    violations for nonnegative-weight convex-kernel penalties.  The
    sampling dimension defaults to the largest index the penalty touches.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n is None:
        if not penalty.edges:
            raise ValueError("penalty has no edges; pass n explicitly")
        n = max(max(e.i, e.j) for e in penalty.edges)
    rng = random.Random(seed)
    violations = 0
    first = None
    for _ in range(trials):
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        x = tuple(scale * rng.randint(-3, 3) for _ in range(n))
        y = tuple(scale * rng.randint(-3, 3) for _ in range(n))
        join, meet = lattice_join(x, y), lattice_meet(x, y)
        if penalty.value(x) + penalty.value(y) < penalty.value(join) + penalty.value(meet):
            violations += 1
            if first is None:
                first = (x, y)
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
    sets, not just of one pair of minimisers.
    """
    tau1 = _as_rational(tau1, "tau1")
    tau2 = _as_rational(tau2, "tau2")
    if not tau1 < tau2:
        raise ValueError(f"need tau1 < tau2, got {tau1} >= {tau2}")
    upper1 = fit(Instance(tuple(y), tau1, lam), "upper").theta
    lower2 = fit(Instance(tuple(y), tau2, lam), "lower").theta
    worst = min(b - a for a, b in zip(upper1, lower2))
    return NonCrossingReport(ok=worst >= 0, worst_gap=worst)


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
