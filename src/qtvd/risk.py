"""Pointwise risk bounds and Monte-Carlo rate checks for quantile TV denoising.

Under the sequence model y_i = theta*_i + eps_i with independent errors
whose tau-quantile is zero, the pointwise estimation error decomposes
into a local bias and a penalty-dependent stochastic term over nested
intervals.  For an outer interval J containing i define

    Bias+(i,J)  = max_{k in J} (theta*_k - theta*_i)
    Bias-(i,J)  = min_{k in J} (theta*_k - theta*_i)
    SD^tau(i,J,lam) = C~ * ( sqrt(log n / Dist(i, dJ))
                             + tau * log n / lam + lam / |J| )

with Dist(i, dJ) the distance from i to the boundary of J = [j1:j2]
(one-sided near the global boundary, regime chosen by comparing i with
C1 * log n).  With the noise CDF growing at rate c1 around its zero
quantile on [-delta, delta] (`RiskConstants.for_noise`), and lam at
least of order log n, the error at interior locations is bounded by

    max_J [Bias-(i,J) - SD^{1-tau}]  <=  err_i  <=  min_J [Bias+(i,J) + SD^tau]

over intervals J with |J| > 4*lam/(c1*delta) and Dist(i,dJ) >= C1*log n,
with probability >= 1 - 4*n^{-(c-1)}; near the global boundary the same
holds over one-sided interval families.  Locations with an empty
admissible family are flagged rather than bounded.  `pointwise_bounds`
is the one evaluation of this minimum.  With offsets u = i - j1 and
v = j2 - i, Bias+ + theta*_i is the larger of two running maxima of
theta* outward from i, one per offset; |J| and Dist grow with each
offset, so the SD term can only shrink, and since rounding is monotone
its float expression can only shrink too.  So each J is beaten or tied
by the J with the same Bias+ whose other offset reaches as far as that
Bias+ allows.  Binary searches find those candidates, at most n + 1
(`_candidates`): each location costs O(n log n) work and O(n) memory,
and the bounds equal (==) those of evaluating every J.  The lower bound
is the mirror image on the running minima, in the same search loop.

Balancing bias against the stochastic term gives the optimal penalty:
for alpha-smooth signals (alpha <= 1, local Hoelder norm L0)

    lam* = sqrt(log n * B_n),
    B_n  = floor( L0^(-2/(2a+1)) * n^(2a/(2a+1)) * (log n)^(1/(2a+1)) ),

yielding local error of order n^(-a/(2a+1)) up to log factors; for
signals constant within radius r0 of the monitored point x0,
lam* = sqrt(n * r0 * log n) and order sqrt(log n / n); each signal
class gives its own lam* at x0 through `star_lambda(n, x0)`.  A constant
signal is the step signal with no breaks, so its r0 is min(x0, 1 - x0).  The
Monte-Carlo harness certifies every fit, evaluates the bounds when given
constants, and regresses the log median absolute error on log n to
check those exponents empirically.

The noise families `Cauchy`, `Gaussian` and `Laplace` subclass `Noise`,
which holds their one parameter `scale` and its check; each family
states its own shift, density and sampler.

Replications derive independent generator streams from (master seed,
replication index) and are aggregated in index order, so reports are
bit-for-bit reproducible regardless of any parallel scheduling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from statistics import NormalDist, median
from typing import Optional, Sequence, Union

import numpy as np

from .intervals import _as_location
from .solver import certify_float, fit_float

__all__ = [
    "Gaussian",
    "Cauchy",
    "Laplace",
    "ConstantSignal",
    "HolderCusp",
    "PiecewiseConstantSignal",
    "ModelSpec",
    "RiskConstants",
    "PointwiseBounds",
    "RiskReport",
    "RateRegression",
    "pointwise_bounds",
    "lambda_star",
    "simulate",
    "rate_regress",
    "CSV_HEADER",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = "qtvd.risk/1"
CSV_HEADER = ("seed", "n", "tau", "lambda", "location", "error")

_STD_NORMAL = NormalDist()


def _check_finite(name: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite, got {', '.join(map(str, values))}")


# ---------------------------------------------------------------------------
# noise families, each shifted so the tau-quantile of the noise is exactly 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Noise:
    """A noise family of scale `scale` (finite, >= 0); each subclass states its own
    shift (so the tau-quantile is 0), density and sampler."""

    scale: float = 1.0

    def __post_init__(self):
        if not 0 <= self.scale < math.inf:
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")


@dataclass(frozen=True)
class Cauchy(Noise):
    """Cauchy noise; location set to -scale*tan(pi*(tau-1/2)) so q_tau = 0."""

    def shift(self, tau: float) -> float:
        return -self.scale * math.tan(math.pi * (tau - 0.5))

    def density(self, t: float, tau: float) -> float:
        u = t - self.shift(tau)
        return self.scale / (math.pi * (self.scale**2 + u**2))

    def sample(self, rng: np.random.Generator, size: int, tau: float) -> np.ndarray:
        return rng.standard_cauchy(size) * self.scale + self.shift(tau)


@dataclass(frozen=True)
class Gaussian(Noise):
    """Gaussian noise with standard deviation `scale`, shifted by -scale * Phi^{-1}(tau)."""

    def shift(self, tau: float) -> float:
        return -self.scale * _STD_NORMAL.inv_cdf(tau)

    def density(self, t: float, tau: float) -> float:
        return _STD_NORMAL.pdf((t - self.shift(tau)) / self.scale) / self.scale

    def sample(self, rng: np.random.Generator, size: int, tau: float) -> np.ndarray:
        return rng.normal(0.0, self.scale, size) + self.shift(tau)


@dataclass(frozen=True)
class Laplace(Noise):
    """Laplace noise shifted by the closed-form tau-quantile."""

    def shift(self, tau: float) -> float:
        if tau < 0.5:
            return -self.scale * math.log(2.0 * tau)
        return self.scale * math.log(2.0 * (1.0 - tau))

    def density(self, t: float, tau: float) -> float:
        u = t - self.shift(tau)
        return math.exp(-abs(u) / self.scale) / (2.0 * self.scale)

    def sample(self, rng: np.random.Generator, size: int, tau: float) -> np.ndarray:
        return rng.laplace(0.0, self.scale, size) + self.shift(tau)


# ---------------------------------------------------------------------------
# signals on the design grid x_i = i/n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolderCusp:
    """f(x) = norm * |x - x0|**alpha, the worst alpha-smooth signal with norm
    `norm` at the monitored point."""

    alpha: float
    norm: float = 1.0
    x0: float = 0.5

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        _check_finite("norm", self.norm)
        _check_finite("x0", self.x0)

    def values(self, n: int) -> np.ndarray:
        x = np.arange(1, n + 1) / n
        return self.norm * np.abs(x - self.x0) ** self.alpha

    def star_lambda(self, n: int, x0: float) -> float:
        """lam* of an alpha-smooth signal with Hoelder norm `norm`, whatever x0."""
        return lambda_star(n, self.alpha, holder_norm=self.norm)


@dataclass(frozen=True)
class PiecewiseConstantSignal:
    """Step function: level k on (breaks[k-1], breaks[k]]; breaks inside (0,1).
    With no breaks it is the constant signal (`ConstantSignal`)."""

    breaks: tuple
    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "breaks", tuple(float(b) for b in self.breaks))
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        if len(self.levels) != len(self.breaks) + 1:
            raise ValueError("need exactly one more level than breaks")
        if any(not 0 < b < 1 for b in self.breaks) or list(self.breaks) != sorted(set(self.breaks)):
            raise ValueError("breaks must be strictly increasing inside (0, 1)")
        _check_finite("levels", *self.levels)

    def values(self, n: int) -> np.ndarray:
        x = np.arange(1, n + 1) / n
        idx = np.searchsorted(self.breaks, x, side="left")
        return np.asarray(self.levels, dtype=float)[idx]

    def star_lambda(self, n: int, x0: float) -> float:
        """lam* at x0: the signal is constant up to the nearest break or end of [0, 1]."""
        if x0 in self.breaks:
            raise ValueError(f"lam* is undefined at x0 = {x0}: it lies on a break")
        if x0 in (0.0, 1.0):
            raise ValueError(f"lam* is undefined at x0 = {x0}: it lies at an end of [0, 1]")
        return lambda_star(n, 2.0, r0=min(abs(x0 - e) for e in (0.0, 1.0) + self.breaks))


def ConstantSignal(level: float = 0.0) -> PiecewiseConstantSignal:
    """The constant signal `level`: the step signal with no breaks."""
    _check_finite("level", level)
    return PiecewiseConstantSignal((), (level,))


Signal = Union[HolderCusp, PiecewiseConstantSignal]


@dataclass(frozen=True)
class ModelSpec:
    """A simulation model: grid size, level, signal, noise family and master seed."""

    n: int
    tau: float
    signal: Signal
    noise: Noise
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < self.tau < 1:
            raise ValueError("tau must be in (0, 1)")


# ---------------------------------------------------------------------------
# pointwise bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiskConstants:
    """Constants of the pointwise bounds.

    c sets the probability level 1 - 4*n^{-(c-1)}; (c1, delta) are the
    noise growth constants; c_tilde scales the SD term; C1 scales the
    boundary-distance threshold C1 * log n.  The fully conservative,
    union-bound-tight C1 = (c+2) / (2 * c1^2 * delta^2) empties the
    admissible interval family at desk scale, so the default is 1.0, which
    keeps the family non-empty from n around 2**8 for moderate lam.  The
    lam floor C * log n uses C = (c+3)*tau/(8*c1).
    """

    c1: float
    delta: float = 1.0
    c: float = 2.0
    c_tilde: float = 4.0
    C1: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.c1, self.delta, self.c, self.c_tilde, self.C1))):
            raise ValueError("risk constants must be finite")
        if not (self.c1 > 0 and self.delta > 0):
            raise ValueError(f"need c1 > 0 and delta > 0, got c1={self.c1}, delta={self.delta}")
        if not (self.C1 >= 0 and self.c_tilde >= 0):
            raise ValueError(f"need C1 >= 0 and c_tilde >= 0, got C1={self.C1}, c_tilde={self.c_tilde}")

    @classmethod
    def for_noise(cls, noise: Noise, tau: float, delta: float = 1.0, **kwargs) -> "RiskConstants":
        """Constants whose c1 satisfies |F(t) - tau| >= c1*|t| on |t| <= delta.

        The shifted densities are unimodal, so their minimum over [-delta, delta]
        sits at an endpoint; that minimum is a valid growth rate for the CDF
        around its zero quantile.  Cauchy(1) at tau=1/2, delta=1 gives
        c1 = 1/(2*pi).
        """
        if delta <= 0:
            raise ValueError("delta must be > 0")
        if noise.scale == 0:
            raise ValueError("degenerate noise: zero scale, growth constant is zero")
        c1 = min(noise.density(-delta, tau), noise.density(delta, tau))
        if not c1 > 0:
            raise ValueError("degenerate noise: growth constant is zero")
        return cls(c1=c1, delta=delta, **kwargs)

    def lambda_floor(self, n: int, tau: float) -> float:
        return (self.c + 3.0) * tau / (8.0 * self.c1) * math.log(n)

    def min_interval_length(self, lam: float) -> float:
        """Admissible intervals must be strictly longer than this."""
        return 4.0 * lam / (self.c1 * self.delta)


def _boundary_regime(i: int, n: int, C1: float) -> tuple[float, bool, bool]:
    """(t, near_left, near_right) with t = C1*log n, near_left = i < t and
    near_right = i > n - t; a location with neither flag is interior."""
    t = C1 * math.log(n) if n > 1 else 0.0
    return t, i < t, i > n - t


def _dist(i, j1, j2, near_left: bool, near_right: bool):
    """Dist(i, dJ) for J = [j1:j2]; j1 or j2 may be an integer array.

    The distance from i to the boundary of J, one-sided near the global
    boundary.  Interior regime (neither flag of `_boundary_regime`): min
    of the two one-sided distances; left regime (near_left, even if
    near_right too): distance to the right boundary point only; right
    regime: to the left one.
    """
    if near_left:
        return j2 - i + 1
    if near_right:
        return i - j1 + 1
    return np.minimum(i - j1 + 1, j2 - i + 1)


def _sd(c_tilde: float, logn: float, dist, length, lam: float, level: float):
    """C~ * ( sqrt(log n / Dist) + level*log n/lam + lam/|J| ), on floats or arrays."""
    return c_tilde * (np.sqrt(logn / dist) + level * logn / lam + lam / length)


def _candidates(head, tail) -> tuple:
    """Index pairs (a, b) among which every pair is beaten, for nondecreasing head and tail.

    Pair (a, b) is beaten by a pair at least as far along both axes with
    the same max(head[a], tail[b]): by (a, last b' with tail[b'] <= head[a])
    where tail[b] <= head[a], else by (last a' with head[a'] <= tail[b], b).
    So a minimum of a value nondecreasing in that max and nonincreasing
    along each axis is attained among these at most len(head) + len(tail)
    pairs, and so is any condition that holds upward along both axes.
    """
    last_b = np.searchsorted(tail, head, side="right") - 1
    last_a = np.searchsorted(head, tail, side="right") - 1
    return (np.concatenate((np.flatnonzero(last_b >= 0), last_a[last_a >= 0])),
            np.concatenate((last_b[last_b >= 0], np.flatnonzero(last_a >= 0))))


@dataclass(frozen=True)
class PointwiseBounds:
    """Error bounds per requested location; None where no interval is admissible."""

    locations: tuple
    lower: tuple
    upper: tuple
    flagged: tuple  # locations with an empty admissible family


def pointwise_bounds(
    theta_star: Sequence,
    tau: float,
    lam: float,
    constants: RiskConstants,
    locations: Optional[Sequence[int]] = None,
    allow_small_lambda: bool = False,
) -> PointwiseBounds:
    """Enumerate admissible intervals per location and take the best bound.

    Admissible J contain i, satisfy |J| > 4*lam/(c1*delta) and
    Dist(i, dJ) >= C1*log n, and come from the regime-appropriate family:
    J = [j1:j2] with 2 <= j1 <= i <= j2 <= n-1 at interior locations,
    [1:j2] near the left boundary, [j1:n] near the right one.  The upper
    bound minimises Bias+ + SD^tau over the family; the lower bound
    maximises Bias- - SD^{1-tau}.

    The left ends j1 and right ends j2 that no admissible J uses are dropped
    first.  On the rest, Bias+ at u = i - j1, v = j2 - i is max(head[u],
    tail[v]) - theta*_i, with head[u] and tail[v] the maxima of theta* on
    [j1:i] and [i:j2].  |J|, Dist and admissibility only grow with u and
    v, and the SD expression, built from monotonically rounded operations
    on them, only falls.  So every admissible J is beaten or tied, in
    floats, by an admissible pair from `_candidates`, and the minimum over
    those at most n + 1 pairs equals the minimum over every J.  The lower
    bound is the same loop on the running minima, negated only for
    `_candidates`, not minus the upper bound of -theta*, which would flip
    the sign of a zero bound.  Each location costs O(n log n) time and
    O(n) memory.
    """
    n = len(theta_star)
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 < tau < 1:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    floor_lam = constants.lambda_floor(n, tau)
    if lam < floor_lam and not allow_small_lambda:
        raise ValueError(
            f"lam={lam:.6g} is below {floor_lam:.6g}, the threshold the pointwise bounds need"
        )
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be > 0 and finite, got {lam}")
    theta = np.asarray(theta_star, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError("theta_star must be finite")
    locations = tuple(range(1, n + 1) if locations is None else locations)
    logn = math.log(n)
    min_len = constants.min_interval_length(lam)
    ct = constants.c_tilde

    lowers, uppers, flagged = [], [], []
    for i in locations:
        _as_location(i, n)
        t, near_left, near_right = _boundary_regime(i, n, constants.C1)
        if near_left and near_right:  # both boundary regimes apply: no bound is claimed here
            j1s = j2s = np.arange(0)
        elif near_left:
            j1s, j2s = np.arange(1, 2), np.arange(i, n + 1)
        elif near_right:
            j1s, j2s = np.arange(1, i + 1), np.arange(n, n + 1)
        else:
            j1s, j2s = np.arange(2, i + 1), np.arange(i, n)

        def admissible(j1, j2):
            """(keep, |J|, Dist) for J = [j1:j2], broadcast over arrays of ends."""
            length, dist = j2 - j1 + 1, _dist(i, j1, j2, near_left, near_right)
            return ~((length <= min_len) | (dist < t)), length, dist

        # |J| and Dist grow with j2 and fall with j1: a row keeps some J iff it
        # keeps J = [j1:last j2], a column iff it keeps J = [first j1:j2], so
        # the family is empty iff no row or no column is left
        if j2s.size:
            j1s = j1s[admissible(j1s, j2s[-1])[0]]
        if not (j1s.size and j2s.size):
            flagged.append(i)
            lowers.append(None)
            uppers.append(None)
            continue
        j2s = j2s[admissible(j1s[0], j2s)[0]]
        # u = i - j1 and v = j2 - i ascend; max (min) of theta[j1-1 : i] at u, of theta[i-1 : j2] at v
        us, vs, ref = i - j1s[::-1], j2s - i, theta[i - 1]
        for acc, sign, level, out in ((np.maximum, 1, tau, uppers), (np.minimum, -1, 1.0 - tau, lowers)):
            head, tail = acc.accumulate(theta[i - 1 :: -1])[us], acc.accumulate(theta[i - 1 :])[vs]
            a, b = _candidates(sign * head, sign * tail)
            keep, length, dist = admissible(i - us[a], i + vs[b])
            bound = (acc(head[a], tail[b])[keep] - ref) + sign * _sd(ct, logn, dist[keep], length[keep], lam, level)
            out.append(float(bound.min() if sign > 0 else bound.max()))
    return PointwiseBounds(
        locations=locations, lower=tuple(lowers), upper=tuple(uppers), flagged=tuple(flagged)
    )


def lambda_star(n: int, alpha: float, holder_norm: float = 1.0, r0: float = 0.5) -> float:
    """Rate-optimal penalty: sqrt(log n * B_n) for alpha <= 1, else sqrt(n*r0*log n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    if not 0 < holder_norm < math.inf:
        raise ValueError(f"holder_norm must be finite and > 0, got {holder_norm}")
    if not 0 < r0 < math.inf:
        raise ValueError(f"r0 must be finite and > 0, got {r0}")
    logn = math.log(n)
    if alpha <= 1:
        expo = 2.0 * alpha + 1.0
        b_n = math.floor(holder_norm ** (-2.0 / expo) * n ** (2.0 * alpha / expo) * logn ** (1.0 / expo))
        return math.sqrt(logn * b_n)
    return math.sqrt(n * r0 * logn)


# ---------------------------------------------------------------------------
# Monte-Carlo harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiskReport:
    """Per-location simulation record; reproducible bit-for-bit from the seed."""

    n: int
    tau: float
    lam: float
    x0: float
    location: int
    replications: int
    seed: int
    errors: tuple
    median_abs_error: float
    bound_lower: Optional[float] = None
    bound_upper: Optional[float] = None
    coverage: Optional[float] = None
    certificate_failures: int = 0
    runtime_seconds: float = field(default=0.0, compare=False)

    def csv_rows(self):
        """Rows (seed, n, tau, lambda, location, error), one per replication."""
        for err in self.errors:
            yield (self.seed, self.n, self.tau, self.lam, self.location, err)

    def summary(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "n": self.n,
            "tau": self.tau,
            "lambda": self.lam,
            "x0": self.x0,
            "location": self.location,
            "replications": self.replications,
            "seed": self.seed,
            "median_abs_error": self.median_abs_error,
            "bound_lower": self.bound_lower,
            "bound_upper": self.bound_upper,
            "coverage": self.coverage,
            "certificate_failures": self.certificate_failures,
        }


def simulate(
    model: ModelSpec,
    lam,
    replications: int,
    x0: float = 0.5,
    constants: Optional[RiskConstants] = None,
) -> RiskReport:
    """Draw data from the model, fit with the float fast path, record errors at x0.

    `lam` is a number or "star", the signal's `star_lambda(n, x0)`.  Every
    fit, lam = 0 included, is checked exactly by `certify_float`; failures
    are counted (and should be zero).  Given `constants`, the error bounds
    at the monitored location and the errors' coverage of them are reported.
    The median absolute error is `statistics.median` of the finite float
    errors: the same float as numpy's median, which would import `numpy.ma`.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 must be a finite design point in [0, 1], got {x0}")
    n = model.n
    lam_val = model.signal.star_lambda(n, x0) if lam == "star" else float(lam)
    theta_star = model.signal.values(n)
    location = min(max(int(math.floor(n * x0)), 1), n)
    truth = theta_star[location - 1]
    t_start = time.perf_counter()
    errors = []
    cert_failures = 0
    for rep in range(replications):
        rng = np.random.default_rng([model.seed, rep])
        eps = model.noise.sample(rng, n, model.tau)
        y = theta_star + eps
        theta = fit_float(y, model.tau, lam_val, "any")
        if not certify_float(y, theta, model.tau, lam_val):
            cert_failures += 1
        errors.append(float(theta[location - 1] - truth))
    bound_lower = bound_upper = coverage = None
    if constants is not None:
        bounds = pointwise_bounds(theta_star, model.tau, lam_val, constants, locations=[location])
        bound_lower = bounds.lower[0]
        bound_upper = bounds.upper[0]
        if bound_lower is not None and bound_upper is not None:
            coverage = sum(bound_lower <= e <= bound_upper for e in errors) / replications
    return RiskReport(
        n=n,
        tau=model.tau,
        lam=lam_val,
        x0=x0,
        location=location,
        replications=replications,
        seed=model.seed,
        errors=tuple(errors),
        median_abs_error=median(map(abs, errors)),
        bound_lower=bound_lower,
        bound_upper=bound_upper,
        coverage=coverage,
        certificate_failures=cert_failures,
        runtime_seconds=time.perf_counter() - t_start,
    )


@dataclass(frozen=True)
class RateRegression:
    """OLS of log(median error) on log(n): slope, intercept, residual spread."""

    slope: float
    intercept: float
    residual_std: float


def rate_regress(ns: Sequence[int], medians: Sequence[float]) -> RateRegression:
    """Least-squares slope of log median error versus log n."""
    if len(ns) != len(medians):
        raise ValueError("length mismatch")
    if len(ns) < 4:
        raise ValueError("need at least 4 grid points")
    if len(set(ns)) < 2:
        raise ValueError("degenerate grid: all n equal")
    if not all(n >= 1 for n in ns):
        raise ValueError(f"grid sizes must be >= 1 to take logs, got grid {list(ns)}")
    if not all(0 < m < math.inf for m in medians):
        raise ValueError("medians must be positive and finite to take logs")
    x = np.log(np.asarray(ns, dtype=float))
    z = np.log(np.asarray(medians, dtype=float))
    slope, intercept = np.polyfit(x, z, 1)
    resid = z - (slope * x + intercept)
    return RateRegression(
        slope=float(slope),
        intercept=float(intercept),
        residual_std=float(np.sqrt(np.mean(resid**2))),
    )
