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
+inf.  Each quantile loss term shifts it by -tau and adds a unit jump at
the data value, and the coupling to the next position clips it to
[-lam, lam] (the derivative of the infimal convolution with lam*|.|),
which only trims the two ends.  Each clip is a walk that raises the
value seen from one end to a bound, consuming breakpoints from that end:
the lower clip walks from the left, the upper clip from the right on the
mirror image (x -> -x, values negated).  The final argmin, once per
fit, sorts the live breakpoints and scans them in ascending order,
adding each jump to the value at -inf, up to the first where the value
exceeds 0: on a stretch where it is exactly 0, the stretch's right end.
The jumps live in a dict by breakpoint, and each breakpoint in exactly
one of two heaps split at a pivot p: L, a min-heap of keys below p, and
R, a heap of -x for the rest, so max(L) <= p <= min(R) and the lower
walk pops L, the upper walk R.  A new breakpoint is pushed once, on its
side of p.  A walk that finds its heap empty refills it from the half
of the other heap farthest from that heap's top, with one `sorted`; the
other heap keeps its extreme key, and p moves to the split.  The next
refill follows about as many pops, so a refill costs amortized O(log)
per pop.  With one key left in all, both walks read it where it lies.
No heap holds a consumed key, so the walks skip no stale keys and the
heaps hold the live breakpoints only (about 2*lam/unit of them), not one
key per data point.  The dict stays because data may repeat values: a
tied value adds to its breakpoint's jump instead of pushing one more
key, so tie-heavy data keep small heaps.
Both walks are written out in the loop body, with no call per step: on
the `mc_rate` benchmark's fits they take about 0.7x the time of one walk
helper called for each clip.  The clips record per-position clamp
thresholds lo_k and hi_k in two lists; the backward pass sets theta_n
to the largest minimiser of the final Bellman function and theta_k =
median(theta_{k+1}, lo_k, hi_k).  Where the derivative sits exactly at
a bound over a flat stretch, the minimiser is not unique; every
threshold is the stretch's right end, so the pass gives the upper fit.
The lower fit is minus the upper fit of (-y, 1-tau): rho_tau(-x) =
rho_{1-tau}(x) makes the solution set of (-y, 1-tau, lam) minus that of
(y, tau, lam), negation is exact on ints and floats, and 1-tau keeps
tau's denominator, so the levels carry over.
At lam = 0 the positions decouple and theta = y is the unique minimiser;
the same pass returns it, as each position's two clips both stop at its
data value, then the one live breakpoint.

The pass only compares data values with each other and only returns
breakpoints, so it is invariant under any increasing relabelling of y;
and every derivative value is a sum of -tau, +-lam and unit jumps, so it
lies on the lattice (1/D)Z with D = lcm(den tau, den lam).  The fit may
take a smaller D.  With tau = p/q, the envelope formulas of
`qtvd.envelope` read lam only through floor/ceil of tau*m -+ lam*c2 with
c2 in {-2, ..., 2}, which change only where lam crosses a multiple of
1/(2q); so L and U, which the lower and upper fits equal (criterion 2),
are constant on each open cell between consecutive multiples.
`_fit_lattice` fits on the cell's representative (2c+1)/(4q), with
D = 4q, when lam is inside a cell and its own D is larger: the float
lam* of `qtvd.risk.simulate`, with D near 2^47, fits on D = 8 at tau 1/2.
`certify`, `certify_float`, `objective_value` and `envelope` keep the
caller's lam, so each fit is still certified against the problem as
posed.  The exact `fit` runs `_fit_core` on y scaled by the lcm of its
denominators, with tau*D, lam*D and the unit jump D as integers, and
maps the returned ints back to data values, so no Fraction is hashed or
compared.  An `Instance` keeps y's scaled ints from their first use, so
a fit, its objective and its certificate scale y once; `_instance`
builds one whose ints are already known, as the CLI reader computes them
once per distinct text.  `fit` leaves theta's ints, at y's scale, on the
returned `Fit` as `_scaled_theta`, which is not a field.  `_scaled` reads
numerators and denominators through C-level maps, divides once per
distinct denominator and multiplies with `map`; a vector of Fractions is
validated by one type-set test, and only a vector holding something else
is coerced value by value (floats still raise TypeError).  `_fit_scaled`
stops at the scaled ints, which `qtvd.penalties` audits directly.
`fit_float` runs `_fit_core` the same way on the floats themselves:
float comparisons are exact and every finite float is a dyadic rational,
so with the `_fit_lattice` levels of Fraction(tau) and Fraction(lam) it
returns the floats of the Fractions `fit` returns.

Optimality is certified independently of the solver: theta minimises F
iff there are vectors g (quantile-loss subgradients) and z (edge duals
with z_0 = z_n = 0, |z_k| <= lam, pinned to +-lam at strict jumps of
theta) satisfying g_j = z_{j-1} - z_j, equivalently the interval
identity sum_{j=a..b} g_j = z_{a-1} - z_b for every [a:b].  Each g_j
and z_k lies in a box, so the z_k reachable from z_0 = 0 form an interval
[lo_k, hi_k] with a closed form in prefix sums and prefix extrema of the
box ends (`_dual_system`); the system is feasible iff lo <= hi
everywhere, and a witness takes the smallest admissible z from z_n = 0
backwards, again a suffix maximum.  The boxes depend on theta and y only
through the signs of theta - y and of theta's steps, so the kernel
`_witness` takes y and theta as ints at one common scale, which it
only compares: as int64 arrays when all those ints fit in int64, else as
object arrays of Python ints (np.array raises OverflowError, never
rounds, on an int past int64).  The box ends -tau*D, D - tau*D and
+-lam*D are int64: every stored quantity is bounded by 2*n*D + lam*D in
absolute value, and when that bound does not fit in int64 the boxes are
object arrays of Python ints too.  It returns the witness as ints
(g*D, z*D, D), or None.  `_one_scale` brings theta's (scale, ints) and
y's cached ints to the lcm of the two scales, rescaling either only when
the other needs a larger one; `certify` reaches it through `_scaled_with`
and builds one Fraction v/D per distinct level v of g and z, while
`qtvd fit` and `qtvd certify` pass it the ints they hold (the fit's
`_scaled_theta`, the reader's ints) and print str(v/D) once per level.
`certify_float` runs the kernel on the float y and theta
themselves, again only compared, so its verdict is that of `certify` on
their Fractions, with no tolerance.
`objective_value` sums the loss and the total variation as Python ints
with C-level maps, y and theta scaled by the lcm of their denominators,
and builds one Fraction.  It and `certify` scale theta alone; y's
cached ints are rescaled only when theta's denominators need a larger
scale.

All functions are pure and instances immutable, so batch fits over
independent instances can run concurrently.  The exhaustive grid
search `grid_oracle` and the chain-cut oracle `cut_fit`, which the
tests compare `fit`, `envelope` and `_fit_core` against, live in
`tests/helpers.py`, outside the package.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, lcm
from operator import attrgetter, mul, neg, sub
from typing import Literal, Optional, Sequence

import numpy as np

from .intervals import _as_rational, _as_rationals

__all__ = [
    "Instance",
    "Fit",
    "DualCertificate",
    "objective_value",
    "fit",
    "fit_float",
    "certify",
    "certify_float",
    "lattice_join",
    "lattice_meet",
]

Extremality = Literal["lower", "upper", "any"]

_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


@dataclass(frozen=True)
class Instance:
    """One denoising problem: data y, quantile level tau in (0,1), penalty lam >= 0."""

    y: tuple
    tau: Fraction
    lam: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", _as_rationals(self.y, "data value"))
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

    # Computed on first use (or given by `_instance`) and not a field, so equality and hashing ignore it.
    @cached_property
    def _scaled_y(self) -> tuple:
        """(s, y times s as ints), s the lcm of y's denominators."""
        return _scaled(self.y)


def _instance(y: Sequence, tau, lam, scaled_y: tuple) -> Instance:
    """`Instance(y, tau, lam)` holding `scaled_y`, which must equal `_scaled` of y's Fractions, as its `_scaled_y`."""
    inst = Instance(y, tau, lam)
    inst.__dict__["_scaled_y"] = scaled_y  # where the cached_property keeps its value
    return inst


@dataclass(frozen=True)
class Fit:
    """An optimal solution with its exact objective and the extremality it realises.

    `fit` also sets `_scaled_theta`, (s, theta times s as ints) at y's
    scale s; it is not a field, so equality, hashing and repr ignore it.
    """

    theta: tuple
    objective: Fraction
    extremality: Extremality


@dataclass(frozen=True)
class DualCertificate:
    """Witness (g, z) of optimality: g_j = z_{j-1} - z_j with all box constraints."""

    g: tuple
    z: tuple


def _lattice(tau: Fraction, lam: Fraction) -> tuple:
    """(D, tau*D, lam*D) with D = lcm(den tau, den lam): the exact levels as integers."""
    unit = lcm(tau.denominator, lam.denominator)
    return unit, tau.numerator * (unit // tau.denominator), lam.numerator * (unit // lam.denominator)


def _fit_lattice(tau: Fraction, lam: Fraction) -> tuple:
    """The `_lattice` the fit runs on: lam's open cell's representative where that makes D smaller.

    With tau = p/q, both extremal fits are constant on each open cell
    (c/(2q), (c+1)/(2q)); the representative (2c+1)/(4q) has D = 4q.  lam
    on the lattice, or with D <= 4q already, is kept.
    """
    q = tau.denominator
    if lcm(q, lam.denominator) <= 4 * q:
        return _lattice(tau, lam)
    return 4 * q, 4 * tau.numerator, 2 * (2 * q * lam.numerator // lam.denominator) + 1


def _scaled(values: Sequence, scale: int = 1) -> tuple:
    """(s, values times s as ints) for Fractions, s the lcm of `scale` and their denominators.

    One division per distinct denominator; the rest are C-level maps.
    """
    dens = list(map(_denominator, values))
    distinct = set(dens)
    common = lcm(scale, *distinct)
    factor = {d: common // d for d in distinct}
    return common, list(map(mul, map(_numerator, values), map(factor.__getitem__, dens)))


def _scaled_with(inst: Instance, theta: Sequence) -> tuple:
    """(s, y times s, theta times s), as ints; s is the lcm of all denominators.

    Exact values then compare, hash and add as ints, never as Fractions.
    """
    return _one_scale(inst, _scaled(_as_rationals(theta, "theta value"), inst._scaled_y[0]))


def _one_scale(inst: Instance, theta: tuple) -> tuple:
    """(s, y times s, theta times s) from theta's (scale, ints), s the lcm of both scales.

    y's cached ints, and theta's, are rescaled only when the other needs a larger s.
    """
    scale, ts = theta
    if len(ts) != inst.n:
        raise ValueError(f"theta has length {len(ts)}, expected {inst.n}")
    y_scale, ys = inst._scaled_y
    common = lcm(scale, y_scale)
    if common != y_scale:
        ys = list(map((common // y_scale).__mul__, ys))
    if common != scale:
        ts = list(map((common // scale).__mul__, ts))
    return common, ys, ts


def objective_value(theta: Sequence, inst: Instance) -> Fraction:
    """Exact objective at theta for the given instance."""
    scale, ys, ts = _scaled_with(inst, theta)
    diffs = list(map(sub, ys, ts))
    # The positive diffs sum to `above` and the negative ones to -`below`.
    total, size = sum(diffs), sum(map(abs, diffs))
    above, below = (size + total) // 2, (size - total) // 2
    tv = sum(map(abs, map(sub, ts[1:], ts)))
    unit, tau, lam = _lattice(inst.tau, inst.lam)
    return Fraction(tau * above + (unit - tau) * below + lam * tv, unit * scale)


def _refill(heap: list, empty: list):
    """Move the half of `heap`'s keys farthest from its top into `empty`, negated; return the first key moved.

    One `sorted` does it: an ascending list is a valid heap, and `heap`
    keeps at least its top key when it holds two or more.
    """
    keys = sorted(heap)
    half = len(keys) // 2
    heap[:] = keys[:half]
    empty[:] = map(neg, reversed(keys[half:]))
    return keys[half]


def _fit_core(y: Sequence, tau, lam, unit=1) -> list:
    """Upper extremal fit by a forward/backward pass: data values are only compared and negated.

    tau, lam, unit come from `_fit_lattice`: derivative values are in units where one data point's jump is `unit`.
    State: `base` (value at -inf), `neg_top` (minus the value at +inf),
    `jumps` by breakpoint, and each breakpoint in one of two heaps split
    at a pivot p with max(L) <= p <= min(R): `low` holds the keys x of L,
    `high` the keys -x of R.  A walk whose own heap is empty refills it
    with `_refill` from the other, or reads the one key left there.  The
    loop runs over y[1:] with the clip bound -lam; the argmin then scans
    the live keys in ascending order, L's sorted before R's.  At lam = 0
    the clips pin every clamp to its data value, so the pass returns y.
    """
    neg_lam, step = -lam, tau - unit
    p = y[0]
    jumps = {p: unit}
    low, high = [], [-p]
    base, neg_top = -tau, step
    los, his = [], []
    pop, push, get = heapq.heappop, heapq.heappush, jumps.get
    try:
        for x_new in y[1:]:
            # Lower clip: raise the value at -inf to -lam from the left.  A crossing
            # jump keeps its excess; a flat stretch at the bound is walked past, so
            # ties resolve to its right end.
            lo = None
            if base <= neg_lam:
                while True:
                    if low:
                        x = low[0]
                    elif len(high) > 1:
                        p = -_refill(high, low)
                        x = low[0]
                    else:
                        x = -high[0]  # the one key left
                    if base == neg_lam:
                        lo = x
                        break
                    s = base + jumps[x]
                    if s > neg_lam:
                        jumps[x] = s - neg_lam
                        base, lo = neg_lam, x
                        break
                    del jumps[x]
                    pop(low if low else high)
                    base = s
            # Upper clip: the same walk from the right on the mirror image, stopping at the stretch's right end.
            hi = None
            if neg_top < neg_lam:
                while True:
                    if high:
                        x = -high[0]
                    elif len(low) > 1:
                        p = _refill(low, high)
                        x = -high[0]
                    else:
                        x = low[0]
                    s = neg_top + jumps[x]
                    if s > neg_lam:
                        jumps[x] = s - neg_lam
                        neg_top, hi = neg_lam, x
                        break
                    del jumps[x]
                    pop(high if high else low)
                    neg_top = s
                    if s == neg_lam:
                        hi = x
                        break
            los.append(lo)
            his.append(hi)
            base -= tau
            neg_top += step
            jump = get(x_new)
            if jump is None:
                jumps[x_new] = unit
                if x_new < p:
                    push(low, x_new)
                else:
                    push(high, -x_new)
            else:
                jumps[x_new] = jump + unit
        # The argmin: the first live key, ascending, past which the value exceeds 0; a stretch at 0
        # ends at the next key, whose jump is positive.  base < 0: it only falls by tau or clips to -lam.
        for x in sorted(low) + sorted(map(neg, high)):
            base += jumps[x]
            if base > 0:
                break
        else:
            raise IndexError
    except IndexError:  # the value at each end lies beyond both bounds for 0 < tau < unit, lam >= 0
        raise AssertionError("derivative exhausted") from None
    t = x
    theta = [t]
    for lo, hi in zip(reversed(los), reversed(his)):
        if lo is not None and t < lo:
            t = lo
        elif hi is not None and t > hi:
            t = hi
        theta.append(t)
    theta.reverse()
    return theta


def _fit_extremal(y: Sequence, tau, lam, unit, extremality: Extremality) -> list:
    """`_fit_core` for "upper" and "any"; for "lower", minus the upper fit of (-y, unit - tau): the reflection."""
    if extremality == "lower":
        return list(map(neg, _fit_core(list(map(neg, y)), unit - tau, lam, unit)))
    if extremality not in ("upper", "any"):
        raise ValueError(f"unknown extremality {extremality!r}")
    return _fit_core(y, tau, lam, unit)


def _fit_scaled(inst: Instance, extremality: Extremality) -> list:
    """The fit as y's scaled ints from `inst._scaled_y`."""
    unit, tau, lam = _fit_lattice(inst.tau, inst.lam)
    return _fit_extremal(inst._scaled_y[1], tau, lam, unit, extremality)


def fit(inst: Instance, extremality: Extremality = "any") -> Fit:
    """Exact global minimiser; "upper"/"lower" return the extremal solutions."""
    scale, ys = inst._scaled_y
    value = dict(zip(ys, inst.y))
    ts = _fit_scaled(inst, extremality)
    theta = tuple(map(value.__getitem__, ts))
    result = Fit(theta=theta, objective=objective_value(theta, inst), extremality=extremality)
    object.__setattr__(result, "_scaled_theta", (scale, ts))
    return result


def _finite_floats(values: Sequence, what: str) -> np.ndarray:
    """`values` as a float64 array; NaN and +-inf are rejected, they would certify garbage."""
    out = np.asarray(values, dtype=float)
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite")
    return out


def _float_inputs(y: Sequence, tau: float, lam: float) -> tuple:
    """(y as float64, Fraction(tau), Fraction(lam)): the checked data and levels.

    Every finite float is a dyadic rational, so Fraction is exact.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    if not 0.0 <= lam < inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if len(y) == 0:
        raise ValueError("data vector must be non-empty")
    return _finite_floats(y, "data"), Fraction(float(tau)), Fraction(float(lam))


def fit_float(y: Sequence, tau: float, lam: float, extremality: Extremality = "any") -> list:
    """`fit` for float data and levels, returning theta only: the same floats `fit` gives on their Fractions.

    Equal by `==`: where y holds both 0.0 and -0.0, the sign of a zero fitted value is not specified.
    """
    y, tau, lam = _float_inputs(y, tau, lam)
    unit, tau, lam = _fit_lattice(tau, lam)
    return _fit_extremal(y.tolist(), tau, lam, unit, extremality)


def _pick(cond, a, b, dtype):
    """np.where between two scalars, kept in `dtype` (Python ints beyond int64 stay exact)."""
    return np.where(cond, np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype))


def _dual_system(y, theta, tau, lam, one):
    """Boxes and forward reach of the dual system, or None if it is infeasible.

    y and theta are only compared (scaled ints from `certify`, floats
    from `certify_float`); the boxes are integers in units where a data
    point's g box has length `one`.  g_j is the subgradient of
    rho_tau(y_j - .) at theta_j: {-tau} below the data value, [-tau,
    one-tau] on it, {one-tau} above.  z_k is free in [-lam, lam] on flat
    steps of theta and pinned to +lam (downward jump) or -lam (upward
    jump); z_0 = z_n = 0.

    With A and B the prefix sums of the upper and lower g bounds (A_0 =
    B_0 = 0), z_k = -(g_0 + ... + g_{k-1}) ranges over [lo_k, hi_k] as
    g_0..g_{k-1} and z_1..z_k vary in their boxes, where lo = cummax(0,
    z_lo + A) - A and hi = cummin(0, z_hi + B) - B; the system is
    feasible iff lo <= hi everywhere.  Returns (g_hi, lo, hi, B).
    """
    y, theta = np.asarray(y), np.asarray(theta)
    # |lo|, |hi|, |lo + B| <= 2*n*one + lam; a feasible z and g stay within lam and one.
    dtype = np.int64 if 2 * len(y) * one + lam <= np.iinfo(np.int64).max else object
    zero = np.zeros(1, dtype=dtype)
    g_lo = _pick(theta > y, one - tau, -tau, dtype)
    g_hi = _pick(theta < y, -tau, one - tau, dtype)
    z_lo = np.append(_pick(theta[:-1] > theta[1:], lam, -lam, dtype), zero)
    z_hi = np.append(_pick(theta[:-1] < theta[1:], -lam, lam, dtype), zero)
    a = np.concatenate((zero, np.cumsum(g_hi)))
    b = np.concatenate((zero, np.cumsum(g_lo)))
    lo = np.maximum.accumulate(np.concatenate((zero, z_lo + a[1:]))) - a
    hi = np.minimum.accumulate(np.concatenate((zero, z_hi + b[1:]))) - b
    if (lo > hi).any():
        return None
    return g_hi, lo, hi, b


def _witness(inst: Instance, ys: list, ts: list) -> Optional[tuple]:
    """`certify`'s witness (g, z) as ints in units of 1/D, with D: (g*D, z*D, D); None if theta is not optimal.

    ys and theta's ts are ints at one common scale, as `_one_scale` gives them.
    """
    one, tau, lam = _lattice(inst.tau, inst.lam)
    # Not np.asarray: it would turn ints past int64 into uint64 or float64, which rounds them.
    try:
        ys, ts = np.array(ys, dtype=np.int64), np.array(ts, dtype=np.int64)
    except OverflowError:
        ys, ts = np.array(ys, dtype=object), np.array(ts, dtype=object)
    system = _dual_system(ys, ts, tau, lam, one)
    if system is None:
        return None
    g_hi, lo, hi, b = system
    # Smallest admissible z, from z_n = 0 backwards: z_j = max(lo_j, z_{j+1} + g_lo_j),
    # which unrolls to z_j = max_{m >= j} (lo_m + B_m) - B_j (lo_n = 0 when feasible).
    z = np.maximum.accumulate((lo + b)[::-1])[::-1] - b
    g = z[:-1] - z[1:]
    if (z > hi).any() or (g > g_hi).any():
        raise AssertionError("backward selection left an empty interval")
    return g.tolist(), z.tolist(), one


def certify(theta: Sequence, inst: Instance) -> Optional[DualCertificate]:
    """Exact optimality decision: a witness (g, z) if theta minimises F, else None."""
    witness = _witness(inst, *_scaled_with(inst, theta)[1:])
    if witness is None:
        return None
    g, z, one = witness
    level = {v: Fraction(v, one) for v in {*g, *z}}
    return DualCertificate(g=tuple(map(level.__getitem__, g)), z=tuple(map(level.__getitem__, z)))


def certify_float(y: Sequence, theta: Sequence, tau: float, lam: float) -> bool:
    """Exact optimality decision for float data and theta: whether `certify` accepts their Fractions."""
    if len(theta) != len(y):
        raise ValueError("length mismatch")
    y, tau, lam = _float_inputs(y, tau, lam)
    one, tau, lam = _lattice(tau, lam)
    return _dual_system(y, _finite_floats(theta, "theta"), tau, lam, one) is not None


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
