"""Exact chain solver for quantile total variation denoising.

Minimises

    F(theta) = sum_i rho_tau(y_i - theta_i) + lam * sum_i |theta_{i+1} - theta_i|

with rho_tau(x) = max(tau*x, (tau-1)*x), over theta in R^n, for tau in
(0,1) and lam >= 0.  The minimiser set is generally a non-singleton
lattice (closed under coordinatewise max/min); `fit` can return the
coordinatewise-maximal ("upper") or -minimal ("lower") optimal solution,
which realise the solution-set envelopes of `qtvd.envelope` exactly.

Method: a forward pass propagates the derivative of the running Bellman
function.  That derivative is a nondecreasing step function, kept as its
value at -inf, positive jumps at breakpoints and minus its value at
+inf, with a lazy heap reaching each end.  Each quantile loss term
shifts it by -tau and adds a unit jump at the data value, and the
coupling to the next position clips it to [-lam, lam] (the derivative
of the infimal convolution with lam*|.|), which only trims the two ends.
One walk, `_trim`, raises the value seen from one end to a bound: the
lower clip runs it from the left, the upper clip runs it from the right
on the mirror image (x -> -x, values negated), and the final argmin
runs it from the left with bound 0.  The clips record per-position
clamp thresholds [lo_k, hi_k]; the backward pass sets theta_n to an
extremal minimiser of the final Bellman function and theta_k =
median(theta_{k+1}, lo_k, hi_k).  Where the derivative sits exactly at
a bound over a flat stretch, the minimiser is not unique; thresholds are
taken at the far or near end of the stretch so ties resolve toward the
requested extreme.  At lam = 0 the positions decouple and theta = y is
the unique minimiser.

Optimality is certified independently of the solver: theta minimises F
iff there are vectors g (quantile-loss subgradients) and z (edge duals
with z_0 = z_n = 0, |z_k| <= lam, pinned to +-lam at strict jumps of
theta) satisfying g_j = z_{j-1} - z_j, equivalently the interval
identity sum_{j=a..b} g_j = z_{a-1} - z_b for every [a:b].  `certify`
decides feasibility of that system by exact interval propagation and
returns a witness.

The reference path is exact rational arithmetic; `fit_float` runs the
same algorithm in floating point for large simulations.  All functions
are pure and instances immutable, so batch fits over independent
instances can run concurrently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, lcm
from typing import Literal, Optional, Sequence

from .intervals import _as_rational

__all__ = [
    "Instance",
    "Fit",
    "DualCertificate",
    "GridOracleResult",
    "objective_value",
    "fit",
    "fit_float",
    "certify",
    "certify_float",
    "lattice_join",
    "lattice_meet",
    "grid_oracle",
    "GRID_ORACLE_CAP",
]

Extremality = Literal["lower", "upper", "any"]

#: Hard cap for the exhaustive oracle; cost is |{y_j}|**n.
GRID_ORACLE_CAP = 8


@dataclass(frozen=True)
class Instance:
    """One denoising problem: data y, quantile level tau in (0,1), penalty lam >= 0."""

    y: tuple
    tau: Fraction
    lam: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", tuple(_as_rational(v, "data value") for v in self.y))
        object.__setattr__(self, "tau", _as_rational(self.tau, "tau"))
        object.__setattr__(self, "lam", _as_rational(self.lam, "lam"))
        if len(self.y) == 0:
            raise ValueError("data vector must be non-empty")
        if not 0 < self.tau < 1:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class Fit:
    """An optimal solution with its exact objective and the extremality it realises."""

    theta: tuple
    objective: Fraction
    extremality: Extremality


@dataclass(frozen=True)
class DualCertificate:
    """Witness (g, z) of optimality: g_j = z_{j-1} - z_j with all box constraints."""

    g: tuple
    z: tuple


def _check_loss(x, tau):
    """rho_tau(x) = max(tau*x, (tau-1)*x); works for exact and float inputs."""
    return tau * x if x >= 0 else (tau - 1) * x


def objective_value(theta: Sequence, inst: Instance) -> Fraction:
    """Exact objective at theta for the given instance."""
    theta = tuple(_as_rational(v, "theta value") for v in theta)
    if len(theta) != inst.n:
        raise ValueError(f"theta has length {len(theta)}, expected {inst.n}")
    tau, lam = inst.tau, inst.lam
    total = sum(_check_loss(yi - ti, tau) for yi, ti in zip(inst.y, theta))
    total += lam * sum(abs(theta[k + 1] - theta[k]) for k in range(inst.n - 1))
    return total


def _peek(heap: list, negated: bool, jumps: dict):
    """Live breakpoint at the heap's end (a negated heap holds -x); stale keys are dropped."""
    while heap:
        x = -heap[0] if negated else heap[0]
        if x in jumps:
            return x
        heapq.heappop(heap)
    return None


def _trim(heap: list, negated: bool, jumps: dict, v, bound, far: bool):
    """Raise the derivative seen from one end to at least `bound`.

    `v` is its value at that end.  Breakpoints are consumed from that end
    until the value reaches `bound`; a crossing jump keeps its excess.
    Returns (new end value, clamp), the clamp being the breakpoint where
    the bound is reached, or None if the end value already exceeds it.
    Where the value equals `bound` on a flat stretch, `far` takes the
    stretch's far end instead of its near end (None when the stretch
    reaches this end).
    """
    if v > bound:
        return v, None
    if v == bound:
        if not far:
            return v, None
        x = _peek(heap, negated, jumps)
        if x is None:
            raise AssertionError("degenerate derivative: no breakpoints")
        return v, x
    while True:
        x = _peek(heap, negated, jumps)
        if x is None:
            raise AssertionError("derivative exhausted during trim")
        s = v + jumps[x]
        if s > bound:
            jumps[x] = s - bound
            return bound, x
        del jumps[x]
        heapq.heappop(heap)
        if s == bound:
            return s, (_peek(heap, negated, jumps) if far else x)
        v = s


def _fit_core(y: Sequence, tau, lam, prefer_high: bool) -> list:
    """Forward/backward pass; arithmetic follows the input types.

    State: `base` (value at -inf), `neg_top` (minus the value at +inf),
    `jumps` by breakpoint, `lo_heap` (keys x) and `hi_heap` (keys -x).
    """
    if lam == 0:
        return list(y)
    neg_lam = -lam
    jumps = {y[0]: 1}
    lo_heap, hi_heap = [y[0]], [-y[0]]
    base, neg_top = -tau, tau - 1
    clamps = []
    for k in range(1, len(y)):
        base, lo = _trim(lo_heap, False, jumps, base, neg_lam, prefer_high)
        neg_top, hi = _trim(hi_heap, True, jumps, neg_top, neg_lam, not prefer_high)
        clamps.append((lo, hi))
        base = base - tau
        neg_top = neg_top + tau - 1
        x = y[k]
        cur = jumps.get(x)
        if cur is None:
            jumps[x] = 1
            heapq.heappush(lo_heap, x)
            heapq.heappush(hi_heap, -x)
        else:
            jumps[x] = cur + 1
    _, t = _trim(lo_heap, False, jumps, base, 0, prefer_high)
    theta = [t]
    for lo, hi in reversed(clamps):
        if lo is not None and t < lo:
            t = lo
        elif hi is not None and t > hi:
            t = hi
        theta.append(t)
    theta.reverse()
    return theta


def fit(inst: Instance, extremality: Extremality = "any") -> Fit:
    """Exact global minimiser; "upper"/"lower" return the extremal solutions."""
    if extremality not in ("lower", "upper", "any"):
        raise ValueError(f"unknown extremality {extremality!r}")
    theta = _fit_core(inst.y, inst.tau, inst.lam, prefer_high=extremality != "lower")
    theta = tuple(theta)
    return Fit(theta=theta, objective=objective_value(theta, inst), extremality=extremality)


def _finite_floats(values: Sequence, what: str) -> list:
    """Float copies of `values`; NaN and +-inf are rejected, they would certify garbage."""
    out = [float(v) for v in values]
    if not all(map(isfinite, out)):
        raise ValueError(f"{what} must be finite")
    return out


def _check_float_levels(tau: float, lam: float) -> None:
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    if not 0.0 <= lam < inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")


def fit_float(y: Sequence, tau: float, lam: float, extremality: Extremality = "any") -> list:
    """Floating-point fast path of `fit` for large n; returns theta only."""
    _check_float_levels(tau, lam)
    return _fit_core(_finite_floats(y, "data"), float(tau), float(lam), extremality != "lower")


def _dual_boxes(y: Sequence, theta: Sequence, tau, lam, value_tol, dual_tol):
    """Constraint intervals for (g_j)_j and (z_k)_k.

    g_j is the subgradient of rho_tau(y_j - .) at theta_j: {-tau} below the
    data value, [-tau, 1-tau] on it, {1-tau} above.  z_k is free in
    [-lam, lam] on flat steps of theta and pinned to +lam (downward jump) or
    -lam (upward jump); z_0 = z_n = 0.  Values closer than value_tol count
    as equal, and every box is widened by dual_tol.
    """
    n = len(theta)
    g_boxes = []
    for j in range(n):
        if theta[j] < y[j] - value_tol:
            g_boxes.append((-tau - dual_tol, -tau + dual_tol))
        elif theta[j] > y[j] + value_tol:
            g_boxes.append((1 - tau - dual_tol, 1 - tau + dual_tol))
        else:
            g_boxes.append((-tau - dual_tol, 1 - tau + dual_tol))
    z_boxes = []
    for k in range(n - 1):
        if theta[k] > theta[k + 1] + value_tol:
            z_boxes.append((lam - dual_tol, lam + dual_tol))
        elif theta[k] < theta[k + 1] - value_tol:
            z_boxes.append((-lam - dual_tol, -lam + dual_tol))
        else:
            z_boxes.append((-lam - dual_tol, lam + dual_tol))
    z_boxes.append((-dual_tol, dual_tol))  # z_n = 0
    return g_boxes, z_boxes


def _propagate(g_boxes, z_boxes, zero):
    """Forward reachable intervals for z_0..z_n; None where infeasible."""
    reach = [(zero, zero)]
    for (g_lo, g_hi), (z_lo, z_hi) in zip(g_boxes, z_boxes):
        r_lo, r_hi = reach[-1]
        lo = r_lo - g_hi
        hi = r_hi - g_lo
        if z_lo > lo:
            lo = z_lo
        if z_hi < hi:
            hi = z_hi
        if lo > hi:
            return None
        reach.append((lo, hi))
    return reach


def certify(theta: Sequence, inst: Instance) -> Optional[DualCertificate]:
    """Exact optimality decision: a witness (g, z) if theta minimises F, else None."""
    theta = tuple(_as_rational(v, "theta value") for v in theta)
    if len(theta) != inst.n:
        raise ValueError(f"theta has length {len(theta)}, expected {inst.n}")
    zero = Fraction(0)
    g_boxes, z_boxes = _dual_boxes(inst.y, theta, inst.tau, inst.lam, zero, zero)
    reach = _propagate(g_boxes, z_boxes, zero)
    if reach is None:
        return None
    # Backward witness selection: z_n = 0, then the smallest admissible z_j.
    z = [zero] * (inst.n + 1)
    for j in range(inst.n - 1, -1, -1):
        g_lo, g_hi = g_boxes[j]
        lo = max(reach[j][0], z[j + 1] + g_lo)
        hi = min(reach[j][1], z[j + 1] + g_hi)
        if lo > hi:
            raise AssertionError("backward selection left an empty interval")
        z[j] = lo
    g = tuple(z[j] - z[j + 1] for j in range(inst.n))
    return DualCertificate(g=g, z=tuple(z))


def certify_float(y: Sequence, theta: Sequence, tau: float, lam: float, tol: float = 1e-8) -> bool:
    """Toleranced feasibility of the dual system; used by the simulation fast path.

    `tol` is relative: values (theta against y, neighbours of theta) count
    as equal within tol * max(|y|_inf, |theta|_inf), and the dual boxes are
    widened by tol * max(1, lam).  The objective is 1-homogeneous in
    (y, theta) and the dual system does not depend on their scale, so
    scaling both by a power of two leaves the verdict unchanged (short of
    underflow or overflow).
    """
    if len(theta) != len(y):
        raise ValueError("length mismatch")
    _check_float_levels(tau, lam)
    if not 0.0 <= tol < inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    y, theta, lam, tol = _finite_floats(y, "data"), _finite_floats(theta, "theta"), float(lam), float(tol)
    scale = max(map(abs, y + theta), default=0.0)
    g_boxes, z_boxes = _dual_boxes(y, theta, float(tau), lam, tol * scale, tol * max(1.0, lam))
    return _propagate(g_boxes, z_boxes, 0.0) is not None


def lattice_join(theta1: Sequence, theta2: Sequence) -> tuple:
    """Coordinatewise maximum."""
    if len(theta1) != len(theta2):
        raise ValueError("length mismatch")
    return tuple(a if a >= b else b for a, b in zip(theta1, theta2))


def lattice_meet(theta1: Sequence, theta2: Sequence) -> tuple:
    """Coordinatewise minimum."""
    if len(theta1) != len(theta2):
        raise ValueError("length mismatch")
    return tuple(a if a <= b else b for a, b in zip(theta1, theta2))


@dataclass(frozen=True)
class GridOracleResult:
    """Exhaustive-search reference: optimum plus coordinatewise extremes of minimisers."""

    objective: Fraction
    lower: tuple
    upper: tuple


def grid_oracle(inst: Instance, cap: int = GRID_ORACLE_CAP) -> GridOracleResult:
    """Exhaustively minimise over the data grid {y_1,...,y_n}^n.

    Every coordinate of an extremal optimal solution coincides with a data
    value (the envelope formulas select order statistics of y), so the data
    grid contains minimisers attaining the global optimum and both
    envelopes; the coordinatewise min/max over grid minimisers therefore
    equal the exact envelope vectors.  Cost is |{y_j}|**n objective
    evaluations: every grid point is visited, no pruning.
    """
    n = inst.n
    if n > cap:
        raise ValueError(f"grid oracle capped at n <= {cap}, got {n}")
    values = sorted(set(inst.y))
    m = len(values)
    # Integer-scaled tables keep the exhaustive loop in fast exact arithmetic.
    loss_frac = [[_check_loss(yi - v, inst.tau) for v in values] for yi in inst.y]
    tv_frac = [[inst.lam * abs(u - v) for v in values] for u in values]
    denoms = [f.denominator for row in loss_frac for f in row]
    denoms += [f.denominator for row in tv_frac for f in row]
    scale = lcm(*denoms) if denoms else 1
    loss = [[int(f * scale) for f in row] for row in loss_frac]
    tv = [[int(f * scale) for f in row] for row in tv_frac]

    best = None
    lo_idx = [0] * n
    hi_idx = [0] * n
    combo = [0] * n

    def visit(pos: int, prev: int, acc: int) -> None:
        nonlocal best
        if pos == n:
            if best is None or acc < best:
                best = acc
                lo_idx[:] = combo
                hi_idx[:] = combo
            elif acc == best:
                for t in range(n):
                    ct = combo[t]
                    if ct < lo_idx[t]:
                        lo_idx[t] = ct
                    elif ct > hi_idx[t]:
                        hi_idx[t] = ct
            return
        loss_row = loss[pos]
        tv_row = tv[prev] if pos else None
        for v in range(m):
            combo[pos] = v
            step = acc + loss_row[v]
            if tv_row is not None:
                step += tv_row[v]
            visit(pos + 1, v, step)

    visit(0, 0, 0)
    return GridOracleResult(
        objective=Fraction(best, scale),
        lower=tuple(values[r] for r in lo_idx),
        upper=tuple(values[r] for r in hi_idx),
    )
