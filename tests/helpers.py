"""Shared test utilities: instance generators and independent reference
implementations that deliberately avoid the library's optimised paths."""

import math
import random
from fractions import Fraction

from qtvd.intervals import (
    DiscreteInterval,
    OrderStatisticCache,
    adjusted_levels,
    ceil_index,
    floor_index,
)
from qtvd.solver import Instance

TAU_GRID = [Fraction(k, 10) for k in range(1, 10)]


def random_instance(rng: random.Random, n_max: int, *, n_min: int = 1,
                    value_span: int = 4, denominators=(1, 1, 2, 3, 4),
                    taus=None, lams=None) -> Instance:
    n = rng.randint(n_min, n_max)
    y = tuple(Fraction(rng.randint(-value_span, value_span), rng.choice(denominators))
              for _ in range(n))
    tau = rng.choice(taus) if taus else Fraction(rng.randint(1, 9), 10)
    if lams:
        lam = rng.choice(lams)
    else:
        lam = Fraction(rng.randint(0, 12), rng.choice((1, 2, 4)))
    return Instance(y, tau, lam)


def small_integer_instance(rng: random.Random, n_max: int = 7, taus=None, lams=None) -> Instance:
    """Small-n instance on a small integer alphabet with a forced duplicate."""
    n = rng.randint(1, n_max)
    y = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    if n >= 2:  # force at least one tie
        j, k = rng.sample(range(n), 2)
        y[j] = y[k]
    tau = rng.choice(taus or [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    lam = rng.choice(lams or [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(5)])
    return Instance(tuple(y), tau, lam)


def naive_objective(y, theta, tau, lam):
    """F(theta) as a plain Fraction sum of rho_tau(y_i - theta_i) and lam * |theta_{i+1} - theta_i|."""
    total = Fraction(0)
    for yi, ti in zip(y, theta):
        r = Fraction(yi) - Fraction(ti)
        total += tau * r if r >= 0 else (tau - 1) * r
    for a, b in zip(theta, theta[1:]):
        total += lam * abs(Fraction(b) - Fraction(a))
    return total


def naive_envelope(y, tau, lam):
    """Literal min-max / max-min enumeration over all nested interval pairs.

    Uses only the public order-statistic and adjusted-level operations; no
    sharing, no reorganised extrema.  Returns (L, U) as ExtendedValue lists.
    """
    n = len(y)
    cache = OrderStatisticCache(y)
    lower, upper = [], []
    for i in range(1, n + 1):
        best_u = None
        best_l = None
        for a in range(1, i + 1):
            for b in range(i, n + 1):
                J = DiscreteInterval(a, b)
                inner_max = None
                inner_min = None
                for c in range(a, i + 1):
                    for d in range(i, b + 1):
                        I = DiscreteInterval(c, d)
                        lev = adjusted_levels(I, J, tau, lam, n)
                        v_up = cache.order_stat(I, floor_index(lev.u) + 1)
                        v_lo = cache.order_stat(I, ceil_index(lev.l))
                        if inner_max is None or v_up > inner_max:
                            inner_max = v_up
                        if inner_min is None or v_lo < inner_min:
                            inner_min = v_lo
                if best_u is None or inner_max < best_u:
                    best_u = inner_max
                if best_l is None or inner_min > best_l:
                    best_l = inner_min
        lower.append(best_l)
        upper.append(best_u)
    return lower, upper


def naive_center_bounds(theta_star, tau, lam, constants, i):
    """Second, independently written enumerator for the pointwise error bounds.

    Loops every candidate interval, applies the admissibility filters
    verbatim, and recomputes bias and the three SD terms from scratch.
    Returns (lower, upper), None entries when no interval is admissible.
    """
    n = len(theta_star)
    theta = [float(v) for v in theta_star]
    logn = math.log(n)
    thresh = constants.C1 * logn
    min_len = 4.0 * lam / (constants.c1 * constants.delta)

    def sd(dist, length, level):
        return constants.c_tilde * (
            math.sqrt(logn / dist) + level * logn / lam + lam / length
        )

    left = i < thresh
    right = i > n - thresh
    if left and right:
        return None, None
    if left:
        family = [(1, j2) for j2 in range(i, n + 1)]
    elif right:
        family = [(j1, n) for j1 in range(1, i + 1)]
    else:
        family = [(j1, j2) for j1 in range(2, i + 1) for j2 in range(i, n)]
    best_u = None
    best_l = None
    for j1, j2 in family:
        length = j2 - j1 + 1
        if not length > min_len:
            continue
        if left:
            dist = j2 - i + 1
        elif right:
            dist = i - j1 + 1
        else:
            dist = min(i - j1 + 1, j2 - i + 1)
        if dist < thresh:
            continue
        seg = theta[j1 - 1 : j2]
        bias_plus = max(seg) - theta[i - 1]
        bias_minus = min(seg) - theta[i - 1]
        u = bias_plus + sd(dist, length, tau)
        l = bias_minus - sd(dist, length, 1.0 - tau)
        if best_u is None or u < best_u:
            best_u = u
        if best_l is None or l > best_l:
            best_l = l
    return best_l, best_u
