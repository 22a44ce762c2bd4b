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
quantile on [-delta, delta], and lam at least of order log n, the error
at interior locations is bounded by

    max_J [Bias-(i,J) - SD^{1-tau}]  <=  err_i  <=  min_J [Bias+(i,J) + SD^tau]

over intervals J with |J| > 4*lam/(c1*delta) and Dist(i,dJ) >= C1*log n,
with probability >= 1 - 4*n^{-(c-1)}; near the global boundary the same
holds over one-sided interval families.  Locations with an empty
admissible family are flagged rather than bounded.  `pointwise_bounds`
is the one evaluation of this minimum: Bias comes from running extrema
of theta* outward from i, Dist and SD from `_dist` and `_sd`.

Balancing bias against the stochastic term gives the optimal penalty:
for alpha-smooth signals (alpha <= 1, local Hoelder norm L0)

    lam* = sqrt(log n * B_n),
    B_n  = floor( L0^(-2/(2a+1)) * n^(2a/(2a+1)) * (log n)^(1/(2a+1)) ),

yielding local error of order n^(-a/(2a+1)) up to log factors; for
signals constant within radius r0 of the monitored point x0,
lam* = sqrt(n * r0 * log n) and order sqrt(log n / n).  The
Monte-Carlo harness regresses the log median absolute error on log n to
check those exponents empirically.

Replications derive independent generator streams from (master seed,
replication index) and are aggregated in index order, so reports are
bit-for-bit reproducible regardless of any parallel scheduling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional, Sequence, Union

import numpy as np

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
    "growth_constants",
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


def _check_scale(value: float, name: str) -> None:
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_finite(name: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite, got {', '.join(map(str, values))}")


# ---------------------------------------------------------------------------
# noise families, each shifted so the tau-quantile of the noise is exactly 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cauchy:
    """Cauchy noise; location set to -scale*tan(pi*(tau-1/2)) so q_tau = 0."""

    scale: float = 1.0

    def __post_init__(self):
        _check_scale(self.scale, "scale")

    def shift(self, tau: float) -> float:
        return -self.scale * math.tan(math.pi * (tau - 0.5))

    def density(self, t: float, tau: float) -> float:
        u = t - self.shift(tau)
        return self.scale / (math.pi * (self.scale**2 + u**2))

    def sample(self, rng: np.random.Generator, size: int, tau: float) -> np.ndarray:
        return rng.standard_cauchy(size) * self.scale + self.shift(tau)


@dataclass(frozen=True)
class Gaussian:
    """Gaussian noise shifted by -sigma * Phi^{-1}(tau)."""

    sigma: float = 1.0

    def __post_init__(self):
        _check_scale(self.sigma, "sigma")

    def shift(self, tau: float) -> float:
        return -self.sigma * _STD_NORMAL.inv_cdf(tau)

    def density(self, t: float, tau: float) -> float:
        return _STD_NORMAL.pdf((t - self.shift(tau)) / self.sigma) / self.sigma

    def sample(self, rng: np.random.Generator, size: int, tau: float) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size) + self.shift(tau)


@dataclass(frozen=True)
class Laplace:
    """Laplace noise shifted by the closed-form tau-quantile."""

    scale: float = 1.0

    def __post_init__(self):
        _check_scale(self.scale, "scale")

    def shift(self, tau: float) -> float:
        if tau < 0.5:
            return -self.scale * math.log(2.0 * tau)
        return self.scale * math.log(2.0 * (1.0 - tau))

    def density(self, t: float, tau: float) -> float:
        u = t - self.shift(tau)
        return math.exp(-abs(u) / self.scale) / (2.0 * self.scale)

    def sample(self, rng: np.random.Generator, size: int, tau: float) -> np.ndarray:
        return rng.laplace(0.0, self.scale, size) + self.shift(tau)


Noise = Union[Cauchy, Gaussian, Laplace]


def growth_constants(noise: Noise, tau: float, delta: float = 1.0) -> tuple[float, float]:
    """(c1, delta) with |F(t) - tau| >= c1*|t| on |t| <= delta.

    The shifted densities are unimodal, so their minimum over [-delta, delta]
    sits at an endpoint; that minimum is a valid growth rate for the CDF
    around its zero quantile.  Cauchy(1) at tau=1/2, delta=1 gives
    c1 = 1/(2*pi).
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if (noise.sigma if isinstance(noise, Gaussian) else noise.scale) == 0:
        raise ValueError("degenerate noise: zero scale, growth constant is zero")
    c1 = min(noise.density(-delta, tau), noise.density(delta, tau))
    if not c1 > 0:
        raise ValueError("degenerate noise: growth constant is zero")
    return c1, delta


# ---------------------------------------------------------------------------
# signals on the design grid x_i = i/n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSignal:
    level: float = 0.0

    def __post_init__(self):
        _check_finite("level", self.level)

    def values(self, n: int) -> np.ndarray:
        return np.full(n, float(self.level))

    def local_radius(self, x0: float) -> float:
        return min(x0, 1.0 - x0)

    def holder(self) -> tuple[float, float]:
        return math.inf, 0.0


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

    def holder(self) -> tuple[float, float]:
        return self.alpha, self.norm


@dataclass(frozen=True)
class PiecewiseConstantSignal:
    """Step function: level k on (breaks[k-1], breaks[k]]; breaks inside (0,1)."""

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

    def local_radius(self, x0: float) -> float:
        edges = (0.0, 1.0) + self.breaks
        return min(abs(x0 - e) for e in edges)

    def holder(self) -> tuple[float, float]:
        return math.inf, 0.0


Signal = Union[ConstantSignal, HolderCusp, PiecewiseConstantSignal]


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
        c1, delta = growth_constants(noise, tau, delta)
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

    The family is walked as rows of one fixed end against a numpy array of
    the other (the shorter side is looped), with Bias from running extrema
    of theta* outward from i: O(i*(n-i)) numpy work and O(n) memory per
    location.
    """
    n = len(theta_star)
    if n < 2:
        raise ValueError("need n >= 2")
    floor_lam = constants.lambda_floor(n, tau)
    if lam < floor_lam and not allow_small_lambda:
        raise ValueError(
            f"lam={lam:.6g} is below the bound threshold {floor_lam:.6g}; "
            "pass allow_small_lambda=True for exploratory use"
        )
    if not lam > 0:
        raise ValueError("lam must be > 0")
    theta = np.asarray(theta_star, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError("theta_star must be finite")
    locations = tuple(range(1, n + 1) if locations is None else locations)
    logn = math.log(n)
    min_len = constants.min_interval_length(lam)
    ct = constants.c_tilde

    lowers, uppers, flagged = [], [], []
    for i in locations:
        if not 1 <= i <= n:
            raise ValueError(f"location {i} outside [1:{n}]")
        t, near_left, near_right = _boundary_regime(i, n, constants.C1)
        if near_left and near_right:
            rows = []  # both boundary regimes apply: no bound is claimed here
        elif near_left:
            rows = [(1, np.arange(i, n + 1))]
        elif near_right:
            rows = [(np.arange(1, i + 1), n)]
        else:
            j1s, j2s = np.arange(2, i + 1), np.arange(i, n)
            if j1s.size <= j2s.size:
                rows = [(j1, j2s) for j1 in j1s.tolist()]
            else:
                rows = [(j1s, j2) for j2 in j2s.tolist()]
        # max / min of theta[j1-1 : i] at index i - j1, of theta[i-1 : j2] at j2 - i
        head, tail = theta[i - 1 :: -1], theta[i - 1 :]
        head_max, head_min = np.maximum.accumulate(head), np.minimum.accumulate(head)
        tail_max, tail_min = np.maximum.accumulate(tail), np.minimum.accumulate(tail)
        ref = theta[i - 1]
        best_u = best_l = None
        for j1, j2 in rows:  # one end fixed, the other an array
            length = j2 - j1 + 1
            dist = _dist(i, j1, j2, near_left, near_right)
            keep = ~((length <= min_len) | (dist < t))
            if not keep.any():
                continue
            length, dist = length[keep], dist[keep]
            run_max = np.maximum(head_max[i - j1], tail_max[j2 - i])[keep]
            run_min = np.minimum(head_min[i - j1], tail_min[j2 - i])[keep]
            u = float(((run_max - ref) + _sd(ct, logn, dist, length, lam, tau)).min())
            l = float(((run_min - ref) - _sd(ct, logn, dist, length, lam, 1.0 - tau)).max())
            if best_u is None or u < best_u:
                best_u = u
            if best_l is None or l > best_l:
                best_l = l
        if best_u is None:
            flagged.append(i)
        lowers.append(best_l)
        uppers.append(best_u)
    return PointwiseBounds(
        locations=locations, lower=tuple(lowers), upper=tuple(uppers), flagged=tuple(flagged)
    )


def lambda_star(n: int, alpha: float, holder_norm: float = 1.0, r0: float = 0.5) -> float:
    """Rate-optimal penalty: sqrt(log n * B_n) for alpha <= 1, else sqrt(n*r0*log n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if alpha <= 0:
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


def resolve_lambda(model: ModelSpec, lam, x0: float) -> float:
    """A number passes through; "star" derives the rate-optimal value from the signal at x0."""
    if lam == "star":
        alpha, norm = model.signal.holder()
        if alpha <= 1:
            return lambda_star(model.n, alpha, holder_norm=norm)
        return lambda_star(model.n, 2.0, r0=model.signal.local_radius(x0))
    return float(lam)


def simulate(
    model: ModelSpec,
    lam,
    replications: int,
    x0: float = 0.5,
    constants: Optional[RiskConstants] = None,
    compute_bounds: bool = False,
) -> RiskReport:
    """Draw data from the model, fit with the float fast path, record errors at x0.

    Every fit is checked by `certify_float`, which decides optimality
    exactly; failures are counted (and should be zero).  When
    `compute_bounds` is set, the theoretical error interval at the
    monitored location is evaluated once and the empirical coverage of
    the per-replication errors is reported.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 must be a finite design point in [0, 1], got {x0}")
    lam_val = resolve_lambda(model, lam, x0)
    n = model.n
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
        if lam_val > 0 and not certify_float(y, theta, model.tau, lam_val):
            cert_failures += 1
        errors.append(float(theta[location - 1] - truth))
    bound_lower = bound_upper = coverage = None
    if compute_bounds:
        if constants is None:
            constants = RiskConstants.for_noise(model.noise, model.tau)
        bounds = pointwise_bounds(theta_star, model.tau, lam_val, constants, locations=[location])
        bound_lower = bounds.lower[0]
        bound_upper = bounds.upper[0]
        if bound_lower is not None and bound_upper is not None:
            inside = sum(1 for e in errors if bound_lower <= e <= bound_upper)
            coverage = inside / replications
    med = float(np.median(np.abs(np.asarray(errors))))
    return RiskReport(
        n=n,
        tau=model.tau,
        lam=lam_val,
        x0=x0,
        location=location,
        replications=replications,
        seed=model.seed,
        errors=tuple(errors),
        median_abs_error=med,
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
    if any(m <= 0 for m in medians):
        raise ValueError("medians must be positive to take logs")
    x = np.log(np.asarray(ns, dtype=float))
    z = np.log(np.asarray(medians, dtype=float))
    slope, intercept = np.polyfit(x, z, 1)
    resid = z - (slope * x + intercept)
    return RateRegression(
        slope=float(slope),
        intercept=float(intercept),
        residual_std=float(np.sqrt(np.mean(resid**2))),
    )
