"""Shared test utilities: instance generators and reference implementations.

The references are written from the paper's definitions and import
nothing from `qtvd` but `Instance`, so a fault in a library kernel cannot
reach the oracle that checks it.  Two check the extremal fits: the grid
search, exhaustive up to n = 8, and `cut_fit`, one chain cut per data
value in O(n * distinct values), which runs at the benchmark's sizes.
`read_values` is the CLI's data-file reader in its earlier, per-line form.
"""

import math
import random
from fractions import Fraction

import numpy as np

from qtvd.solver import Instance


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


#: Largest n the exhaustive grid oracle accepts; its cost is |{y_j}|**n.
GRID_ORACLE_CAP = 8


def grid_oracle(inst: Instance, cap: int = GRID_ORACLE_CAP):
    """(objective, lower, upper) by visiting every point of the data grid {y_1,...,y_n}^n.

    Extremal minimisers take data values, so the coordinatewise min/max over
    grid minimisers are the exact envelopes.  Loss and penalty are scaled to ints.
    Both are nonnegative, so a prefix whose sum already exceeds the best total
    holds no minimiser, and its points are skipped.
    """
    n, tau = inst.n, inst.tau
    if n > cap:
        raise ValueError(f"grid oracle capped at n <= {cap}, got {n}")
    values = sorted(set(inst.y))
    m = len(values)
    loss = [[tau * (yi - v) if yi >= v else (tau - 1) * (yi - v) for v in values] for yi in inst.y]
    tv = [[inst.lam * abs(u - v) for v in values] for u in values]
    scale = math.lcm(*(f.denominator for table in (loss, tv) for row in table for f in row))
    loss = [[int(f * scale) for f in row] for row in loss]
    tv = [[int(f * scale) for f in row] for row in tv]
    best = None
    lo_idx, hi_idx, combo = [0] * n, [0] * n, [0] * n

    def visit(pos, prev, acc):
        nonlocal best
        if best is not None and acc > best:
            return
        if pos == n:
            if best is None or acc < best:
                best = acc
                lo_idx[:] = hi_idx[:] = combo
            elif acc == best:
                for t, ct in enumerate(combo):
                    if ct < lo_idx[t]:
                        lo_idx[t] = ct
                    elif ct > hi_idx[t]:
                        hi_idx[t] = ct
            return
        loss_row, tv_row = loss[pos], tv[prev]
        for v in range(m):
            combo[pos] = v
            visit(pos + 1, v, acc + loss_row[v] + (tv_row[v] if pos else 0))

    visit(0, 0, 0)
    return Fraction(best, scale), tuple(values[r] for r in lo_idx), tuple(values[r] for r in hi_idx)


def cut_fit(inst: Instance) -> tuple:
    """(lower, upper): both extremal fits, from one minimum cut of a chain energy per data value.

    Total variation is submodular, so the level set {theta >= v} of the
    upper (lower) extremal fit is the largest (smallest) minimiser S of

        E_v(S) = sum_{i in S} w_i + lam*D * #{k : exactly one of k, k+1 in S},

    with w_i = -tau*D if y_i >= v, else D - tau*D, and D = lcm(den tau, den
    lam): the loss's slopes just below v, as integers (Hochbaum, J. ACM
    2001; Chambolle and Darbon, IJCV 2009).  A two-state dynamic program
    runs along the chain for all distinct v at once: cost[0] is the least
    energy of a prefix whose last position is in S, cost[1] of one whose
    last position is out.  The minimisers are closed under union and
    intersection, so the walk back from the end that takes "in" ("out")
    wherever both states tie gives the largest (smallest) minimiser.
    theta_i is the largest v whose set holds i.  Every cost lies within
    n*D + 2*lam*D, so the costs are int64 where that fits, else Python
    ints.  The choices take 4 bytes per position and value.
    """
    scale = math.lcm(*(v.denominator for v in inst.y))
    ints = [v.numerator * (scale // v.denominator) for v in inst.y]
    values = sorted(set(ints))
    rank = {v: j for j, v in enumerate(values)}
    unit = math.lcm(inst.tau.denominator, inst.lam.denominator)
    tau, lam = int(inst.tau * unit), int(inst.lam * unit)
    dtype = np.int64 if inst.n * unit + 2 * lam < 2**62 else object
    # cost[state, v]; step[from, to]: -tau*D of w_i into "in", lam*D per cut edge.  The costs do not
    # depend on how ties are broken, only the choices do: came_in[end, to, v], ends (lower, upper), a tie
    # going to a previous "in" for the upper end and to "out" for the lower.
    step = np.array([[-tau, lam], [lam - tau, 0]], dtype=dtype).reshape(2, 2, 1)
    tie = np.array([0, 1], dtype=dtype).reshape(2, 1, 1)
    cost = np.zeros((2, len(values)), dtype=dtype)
    came_in = []
    for r in map(rank.__getitem__, ints):
        from_in, from_out = cost[:, None] + step
        came_in.append(from_in < from_out + tie)
        cost = np.minimum(from_in, from_out)
        cost[0, r + 1:] += unit  # w_i = D - tau*D where v > y_i
    held, top = cost[0] < cost[1] + tie[:, 0], []
    for prev_in in reversed(came_in):
        top.append(held[:, ::-1].argmax(axis=1))
        held = np.where(held, prev_in[:, 0], prev_in[:, 1])
    exact = dict(zip(ints, inst.y))
    lower, upper = (len(values) - 1 - np.array(top[::-1])).T.tolist()
    return tuple(exact[values[j]] for j in lower), tuple(exact[values[j]] for j in upper)


def order_stat(y, a, b, k):
    """Extended order statistic y_{[a:b],(k)}: -inf for k <= 0, +inf for k > b - a + 1."""
    if not 1 <= a <= b <= len(y):
        raise ValueError(f"[{a}:{b}] outside [1:{len(y)}]")
    if k <= 0:
        return -math.inf
    if k > b - a + 1:
        return math.inf
    return sorted(y[a - 1 : b])[k - 1]


#: C_{I,J} case by case.  Outer key: does J touch 1, does J touch n (J interior,
#: touching 1, touching n, all of [1:n]); inner key: does I share J's left, right end.
BOUNDARY_CASES = {
    (False, False): {(False, False): 1, (True, False): 0, (False, True): 0, (True, True): -1},
    (True, False): {(False, False): 1, (True, False): Fraction(1, 2), (False, True): 0, (True, True): Fraction(-1, 2)},
    (False, True): {(False, False): 1, (True, False): 0, (False, True): Fraction(1, 2), (True, True): Fraction(-1, 2)},
    (True, True): {(False, False): 1, (True, False): Fraction(1, 2), (False, True): Fraction(1, 2), (True, True): 0},
}


def adjusted_levels(I, J, tau, lam, n):
    """(u, l) = (tau*|I| - 2*lam*C_{I,J}, tau*|I| + 2*lam*C_{I,J}) for I = (c, d) <= J = (a, b)."""
    (c, d), (a, b) = I, J
    if not (0 <= tau <= 1 and lam >= 0):
        raise ValueError(f"need tau in [0, 1] and lam >= 0, got tau={tau}, lam={lam}")
    C = BOUNDARY_CASES[a == 1, b == n][c == a, d == b]
    return tau * (d - c + 1) - 2 * lam * C, tau * (d - c + 1) + 2 * lam * C


def naive_envelope(y, tau, lam):
    """Literal min-max / max-min enumeration over all nested interval pairs.

    U_i = min_J max_I y_{I,(floor(u)+1)} and L_i = max_J min_I y_{I,(ceil(l))}
    over J containing i and I <= J containing i; no sharing, no reorganised
    extrema.  Returns (L, U) as lists of Fractions and +-math.inf.
    """
    n = len(y)
    lower, upper = [], []
    for i in range(1, n + 1):
        best_u = math.inf
        best_l = -math.inf
        for a in range(1, i + 1):
            for b in range(i, n + 1):
                inner_max = -math.inf
                inner_min = math.inf
                for c in range(a, i + 1):
                    for d in range(i, b + 1):
                        u, l = adjusted_levels((c, d), (a, b), tau, lam, n)
                        inner_max = max(inner_max, order_stat(y, c, d, math.floor(u) + 1))
                        inner_min = min(inner_min, order_stat(y, c, d, math.ceil(l)))
                best_u = min(best_u, inner_max)
                best_l = max(best_l, inner_min)
        lower.append(best_l)
        upper.append(best_u)
    return lower, upper


def noise_cdf(noise, t, tau):
    """CDF at t of a `qtvd.risk` noise family after its shift, from the closed forms."""
    family = type(noise).__name__
    if family == "Gaussian":
        return 0.5 * math.erfc(-(t - noise.shift(tau)) / (noise.scale * math.sqrt(2.0)))
    u = (t - noise.shift(tau)) / noise.scale
    if family == "Cauchy":
        return 0.5 + math.atan(u) / math.pi
    if family == "Laplace":
        return 0.5 * math.exp(u) if u < 0 else 1.0 - 0.5 * math.exp(-u)
    raise ValueError(f"no closed-form CDF for {family}")


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


def penalty_value(penalty, theta):
    """P(theta): the sum of w * phi(theta_i - theta_j) over the penalty's edges, exact; indices are 1-based."""
    n = len(theta)
    total = Fraction(0)
    for e in penalty.edges:
        if not (1 <= e.i <= n and 1 <= e.j <= n):
            raise IndexError(f"edge ({e.i},{e.j}) out of range for length {n}")
        total += e.weight * e.kernel(theta[e.i - 1] - theta[e.j - 1])
    return total


def naive_submodularity_fuzz(penalty, trials, seed):
    """(violations, first_violation) of the literal fuzz loop: whole penalties at x, y, x v y and x ^ y.

    Draws the same stream as `qtvd.penalties.submodularity_fuzz` and
    evaluates each point with `penalty_value`.
    """
    n = max(max(e.i, e.j) for e in penalty.edges)
    rng = random.Random(seed)
    violations = 0
    first = None
    for _ in range(trials):
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        x = tuple(scale * rng.randint(-3, 3) for _ in range(n))
        y = tuple(scale * rng.randint(-3, 3) for _ in range(n))
        join, meet = tuple(map(max, x, y)), tuple(map(min, x, y))
        lhs = penalty_value(penalty, x) + penalty_value(penalty, y)
        if lhs < penalty_value(penalty, join) + penalty_value(penalty, meet):
            violations += 1
            if first is None:
                first = (x, y)
    return violations, first


def read_values(path: str) -> tuple:
    """`cli._read_values` as it stood before it read each distinct line once: every line stripped, the
    blank ones filtered out, then each distinct text parsed.  The scaling is written out here, as
    (lcm of the denominators, value times it), where the reader calls `solver._scaled`."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:  # a leading byte-order mark is not data
            texts = list(map(str.strip, handle.read().splitlines()))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    rows = [text for text in texts if text]
    if not rows:
        raise ValueError(f"{path}: no data values found")
    start = 0  # index in `texts` where the data begin
    if rows[0].lower() == "y":  # single-column CSV header; "y," is a data line
        start = texts.index(rows[0]) + 1
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: header only, no data values")
    parsed = {}  # each distinct text once, in order of first appearance: fitted theta files repeat few levels
    for text in dict.fromkeys(rows):
        number = text.rstrip(",")
        try:
            parsed[text] = Fraction(number)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{path}:{texts.index(text, start) + 1}: could not parse {number!r}") from exc
    scale = math.lcm(*(v.denominator for v in parsed.values()))
    ints = {text: v.numerator * (scale // v.denominator) for text, v in parsed.items()}
    return list(map(parsed.__getitem__, rows)), (scale, list(map(ints.__getitem__, rows)))
