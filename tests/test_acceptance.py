"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything exact is
checked with exact equality; the Monte-Carlo criteria use the stated
slope bands and coverage threshold.
"""

import random
import time
from fractions import Fraction

import pytest

from helpers import grid_oracle, random_instance, small_integer_instance

from qtvd.envelope import envelope, reflection_check
from qtvd.intervals import NEG_INF, POS_INF
from qtvd.penalties import (
    Absolute,
    Edge,
    Huber,
    PairwisePenalty,
    Square,
    loss_linearity_check,
    submodularity_fuzz,
)
from qtvd.risk import (
    Cauchy,
    ConstantSignal,
    HolderCusp,
    ModelSpec,
    PiecewiseConstantSignal,
    RiskConstants,
    lambda_star,
    rate_regress,
    simulate,
)
from qtvd.solver import (
    Instance,
    certify,
    fit,
    lattice_join,
    lattice_meet,
)

F = Fraction


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- shared instance pool for criteria 2 and 3 -------------------------------


@pytest.fixture(scope="module")
def extremal_pool():
    rng = random.Random(220_105)
    pool = []
    for _ in range(110):
        inst = random_instance(rng, 40)
        env = envelope(inst.y, inst.tau, inst.lam)
        lower = fit(inst, "lower")
        upper = fit(inst, "upper")
        pool.append((inst, env, lower, upper))
    return pool


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(11_001)
    count = 0
    for _ in range(210):
        inst = small_integer_instance(rng, n_max=7)
        objective, lower, upper = grid_oracle(inst)
        env = envelope(inst.y, inst.tau, inst.lam)
        assert tuple(v.finite_value() for v in env.lower) == lower, inst
        assert tuple(v.finite_value() for v in env.upper) == upper, inst
        assert fit(inst, "any").objective == objective, inst
        count += 1
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 60.0, f"{count} instances exact vs exhaustive oracle in {elapsed:.1f}s (< 60s)")


def test_criterion_02_extremal_attainment(extremal_pool):
    for inst, env, lower, upper in extremal_pool:
        assert lower.theta == tuple(v.finite_value() for v in env.lower), inst
        assert upper.theta == tuple(v.finite_value() for v in env.upper), inst
    _report(2, True, f"{len(extremal_pool)} instances (n <= 40): extremal fits equal envelopes exactly")


def test_criterion_03_certificate_iff_optimal(extremal_pool):
    rng = random.Random(33_003)
    feasible = infeasible = 0
    for inst, env, lower, upper in extremal_pool:
        assert certify(lower.theta, inst) is not None, inst
        assert certify(upper.theta, inst) is not None, inst
        join = lattice_join(lower.theta, upper.theta)
        meet = lattice_meet(lower.theta, upper.theta)
        assert certify(join, inst) is not None, inst
        assert certify(meet, inst) is not None, inst
        feasible += 4
        i = rng.randrange(inst.n)
        above = list(upper.theta)
        above[i] = env.upper[i].finite_value() + F(1, 2)
        assert certify(above, inst) is None, (inst, i)
        below = list(lower.theta)
        below[i] = env.lower[i].finite_value() - F(1, 2)
        assert certify(below, inst) is None, (inst, i)
        infeasible += 2
    _report(3, True, f"{feasible} optimal vectors certified, {infeasible} perturbed vectors rejected")


def test_criterion_04_non_crossing():
    rng = random.Random(44_004)
    taus = [F(k, 10) for k in range(1, 10)]
    checked = 0
    for _ in range(520):
        n = rng.randint(1, 40)
        y = tuple(F(rng.randint(-5, 5), rng.choice((1, 2, 4))) for _ in range(n))
        lam = F(rng.randint(1, 12), rng.choice((1, 2, 4)))
        t1, t2 = sorted(rng.sample(taus, 2))
        upper1 = fit(Instance(y, t1, lam), "upper").theta
        lower2 = fit(Instance(y, t2, lam), "lower").theta
        assert all(a <= b for a, b in zip(upper1, lower2)), (y, t1, t2, lam)
        checked += 1
    _report(4, True, f"{checked} instances: upper fit at tau1 <= lower fit at tau2, zero violations")


def test_criterion_05_reflection_identity():
    rng = random.Random(55_005)
    checked = 0
    for _ in range(210):
        inst = random_instance(rng, 9)
        assert reflection_check(inst.y, inst.tau, inst.lam), inst
        checked += 1
    _report(5, True, f"{checked} instances: envelope(-y, 1-tau) == (-U, -L) exactly")


def test_criterion_06_degenerate_levels():
    rng = random.Random(66_006)
    for _ in range(60):
        n = rng.randint(1, 10)
        y = tuple(F(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(n))
        lam = F(rng.randint(1, 8), 2)
        env0 = envelope(y, F(0), lam)
        assert all(v == NEG_INF for v in env0.lower)
        assert all(v.finite_value() == min(y) for v in env0.upper)
        env1 = envelope(y, F(1), lam)
        assert all(v == POS_INF for v in env1.upper)
        assert all(v.finite_value() == max(y) for v in env1.lower)
    _report(6, True, "tau=0: L = -inf, U = min(y); tau=1 mirrored; exact on 60 instances")


def test_criterion_07_submodularity_fuzz():
    kernels = {
        "absolute": Absolute(),
        "square": Square(),
        "huber": Huber(F(1, 2)),
    }
    for name, kernel in kernels.items():
        edges = (
            Edge(1, 2, F(1), kernel),
            Edge(2, 3, F(1, 2), kernel),
            Edge(3, 4, F(2), kernel),
            Edge(1, 4, F(1, 3), kernel),
        )
        rep = submodularity_fuzz(PairwisePenalty(edges), trials=10_000, seed=7_007)
        assert rep.violations == 0, (name, rep.violations)
    planted = PairwisePenalty((Edge(1, 2, F(-1), Absolute()),), unchecked=True)
    rep = submodularity_fuzz(planted, trials=1_000, seed=7_008)
    assert rep.violations >= 1
    _report(7, True, "10^4 trials per kernel: 0 violations; planted counterexample caught "
                     f"({rep.violations} hits in 10^3 trials)")


def test_criterion_08_loss_linearity():
    rng = random.Random(88_008)
    for _ in range(10_000):
        n = rng.randint(1, 7)
        y = tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n))
        theta = tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n))
        t1 = F(rng.randint(0, 20), 20)
        t2 = F(rng.randint(0, 20), 20)
        assert loss_linearity_check(y, theta, t1, t2), (y, theta, t1, t2)
    _report(8, True, "level-linearity identity exact on 10^4 fuzzed (y, theta, tau1, tau2)")


def test_criterion_09_rate_reproduction():
    start = time.perf_counter()
    ns = [2**k for k in range(8, 14)]
    meds_a = []
    for n in ns:
        model = ModelSpec(n, 0.5, HolderCusp(1.0, 1.0, 0.5), Cauchy(0.1), seed=20_240_501)
        meds_a.append(simulate(model, lambda_star(n, 1.0, 1.0), 200, x0=0.5).median_abs_error)
    slope_a = rate_regress(ns, meds_a).slope
    meds_b = []
    for n in ns:
        model = ModelSpec(
            n, 0.5, PiecewiseConstantSignal((0.2, 0.8), (1.0, 0.0, 1.0)), Cauchy(0.1), seed=20_240_501
        )
        meds_b.append(simulate(model, lambda_star(n, 2.0, r0=0.3), 200, x0=0.5).median_abs_error)
    slope_b = rate_regress(ns, meds_b).slope
    elapsed = time.perf_counter() - start
    ok = (-0.50 <= slope_a <= -0.18) and (-0.65 <= slope_b <= -0.35) and elapsed < 900
    _report(9, ok, f"smooth-cusp slope {slope_a:.3f} in [-0.50,-0.18]; "
                   f"piecewise-constant slope {slope_b:.3f} in [-0.65,-0.35]; {elapsed:.0f}s (< 900s)")


def test_criterion_10_bound_coverage():
    n = 1024
    tau = 0.5
    constants = RiskConstants.for_noise(Cauchy(1.0), tau)  # defaults: c=2, c_tilde=4, C1=1
    lam = lambda_star(n, 2.0, r0=0.125)
    model = ModelSpec(n, tau, ConstantSignal(0.0), Cauchy(1.0), seed=101_010)
    rep = simulate(model, lam, 1_000, x0=0.5, constants=constants)
    threshold = 1.0 - 4.0 * n ** (-(constants.c - 1.0))
    ok = rep.coverage is not None and rep.coverage >= threshold and rep.certificate_failures == 0
    _report(10, ok, f"coverage {rep.coverage:.4f} >= {threshold:.5f} at n=2^10 over 10^3 replications "
                    f"(bounds [{rep.bound_lower:.3f}, {rep.bound_upper:.3f}])")
