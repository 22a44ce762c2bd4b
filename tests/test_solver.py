import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GRID_ORACLE_CAP,
    cut_fit,
    grid_oracle,
    naive_envelope,
    naive_objective,
    random_instance,
    small_integer_instance,
)

from qtvd.envelope import envelope
from qtvd import solver
from qtvd.risk import Cauchy, HolderCusp
from qtvd.solver import (
    DualCertificate,
    Fit,
    Instance,
    certify,
    certify_float,
    fit,
    fit_float,
    lattice_join,
    lattice_meet,
    objective_value,
    _dual_system,
    _fit_core,
    _fit_extremal,
    _fit_lattice,
    _lattice,
)

F = Fraction


class _FractionSubclass(Fraction):
    """Not exactly a Fraction, so it takes the per-value coercion."""


class TestObjective:
    def test_theta_equals_data_leaves_only_penalty(self):
        inst = Instance((1, 3, 2), F(1, 2), F(2))
        tv = abs(F(3) - 1) + abs(F(2) - 3)
        assert objective_value(inst.y, inst) == inst.lam * tv

    def test_constant_on_constant_data(self):
        inst = Instance((F(5, 2),) * 4, F(1, 3), F(7))
        assert objective_value(inst.y, inst) == 0

    def test_direct_arithmetic(self):
        inst = Instance((1, 3, 2), F(1, 2), F(1))
        assert objective_value((2, 2, 2), inst) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            objective_value((1, 2), Instance((1, 2, 3), F(1, 2), F(1)))

    def test_matches_naive_sum(self):
        # theta's denominators are unrelated to y's: mixed, coprime, and far apart
        rng = random.Random(24)
        taus = [F(1, 2), F(1, 3), F(99, 100), F(1, 2**64 + 1), F(2**61 - 2, 2**61 - 1)]
        lams = [F(0), F(1, 7), F(5, 3), F(10**30), F(10**25, 3)]
        dens = (1, 2, 3, 5, 7, 11, 13, 2**31 - 1, 10**9 + 7)
        for _ in range(300):
            n = rng.randint(1, 30)
            y = tuple(F(rng.randint(-50, 50), rng.choice((1, 2, 4, 6))) for _ in range(n))
            inst = Instance(y, rng.choice(taus), rng.choice(lams))
            for theta in (
                tuple(F(rng.randint(-10**6, 10**6), rng.choice(dens)) for _ in range(n)),
                tuple(rng.choice(y) for _ in range(n)),
                fit(inst, rng.choice(("lower", "upper"))).theta,
            ):
                value = objective_value(theta, inst)
                assert type(value) is F
                assert value == naive_objective(y, theta, inst.tau, inst.lam)


class TestInstance:
    def test_rejects_bad_tau(self):
        for tau in (F(0), F(1), F(3, 2)):
            with pytest.raises(ValueError):
                Instance((1, 2), tau, F(1))

    def test_rejects_negative_lam_and_empty_y(self):
        with pytest.raises(ValueError):
            Instance((1,), F(1, 2), F(-1))
        with pytest.raises(ValueError):
            Instance((), F(1, 2), F(1))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Instance((0.5,), F(1, 2), F(1))
        # A float among Fractions fails the one type check for all, then the per-value check names it.
        with pytest.raises(TypeError, match="data value"):
            Instance((F(1, 2), 0.5, F(3)), F(1, 2), F(1))

    def test_float_theta_rejected(self):
        inst = Instance((F(1, 2), F(1, 3), F(3)), F(1, 2), F(1))
        for call in (certify, objective_value):
            with pytest.raises(TypeError, match="theta value"):
                call((F(1, 2), 0.5, F(3)), inst)

    @pytest.mark.parametrize("middle", [1, "1/3", _FractionSubclass(1, 3)], ids=["int", "str", "subclass"])
    def test_mixed_values_coerce(self, middle):
        # Anything but a Fraction among Fractions is coerced value by value, as y and as theta.
        y = (F(1, 2), middle, F(-7, 4), F(5, 6))
        exact = (F(1, 2), F(middle), F(-7, 4), F(5, 6))
        inst = Instance(y, F(1, 3), F(1, 4))
        assert inst.y == exact and all(type(v) is F for v in inst.y)
        assert fit(inst, "upper") == fit(Instance(exact, F(1, 3), F(1, 4)), "upper")
        assert certify(y, inst) == certify(exact, inst)
        assert objective_value(y, inst) == objective_value(exact, inst)
        assert objective_value(y, inst) == naive_objective(exact, exact, inst.tau, inst.lam)

    def test_parses_strings_exactly(self):
        inst = Instance(("0.25", "1/3"), "0.1", "1/7")
        assert inst.y == (F(1, 4), F(1, 3))
        assert inst.tau == F(1, 10) and inst.lam == F(1, 7)


class TestFit:
    def test_lambda_zero_returns_data(self):
        # The one pass with no shortcut: each position's clips stop at its own data value, ties included.
        ys = [(4, -1, 7, 7), (5,), (2, 2, 0, 2, 0, 0, 1, 2, 2), (F(1, 3), F(1, 3), -1, F(1, 3), F(-1, 2))]
        floats = [[0.0, -0.0, 0.5, -0.0, 0.0], [-0.0], [-0.0, 0.0], [1.5, 1.5, -0.0, 1.5, 0.0, 0.0]]
        for tau in (F(9, 10), F(1, 2), F(1, 3)):
            for y in ys:
                inst = Instance(y, tau, F(0))
                for ext in ("lower", "upper", "any"):
                    assert fit(inst, ext).theta == inst.y, (y, tau, ext)
            for y in floats + [[float(v) for v in y] for y in ys]:
                for ext in ("lower", "upper", "any"):
                    assert fit_float(y, float(tau), 0.0, ext) == y, (y, tau, ext)  # by ==: a zero's sign is unspecified

    def test_constant_data(self):
        inst = Instance((F(3, 2),) * 5, F(1, 4), F(2))
        assert fit(inst, "upper").theta == inst.y
        assert fit(inst, "lower").theta == inst.y

    def test_reference_instance_matches_oracle_and_envelope(self):
        inst = Instance((1, 3, 2), F(1, 2), F(1, 4))
        objective, _, upper = grid_oracle(inst)
        env = envelope(inst.y, inst.tau, inst.lam)
        up = fit(inst, "upper")
        assert up.theta == upper == tuple(v.finite_value() for v in env.upper)
        assert up.objective == objective

    def test_unknown_extremality(self):
        with pytest.raises(ValueError, match="unknown extremality 'median'"):
            fit(Instance((1,), F(1, 2), F(1)), "median")
        with pytest.raises(ValueError, match="unknown extremality 'bogus'"):
            fit_float([3.0, 1.0, 2.0], 0.5, 0.3, "bogus")

    def test_oracle_agreement_small_n(self):
        rng = random.Random(11)
        for _ in range(60):
            inst = small_integer_instance(rng)
            objective, lower, upper = grid_oracle(inst)
            assert fit(inst, "any").objective == objective
            assert fit(inst, "lower").theta == lower
            assert fit(inst, "upper").theta == upper

    def test_envelope_agreement_moderate_n(self):
        rng = random.Random(12)
        for _ in range(25):
            inst = random_instance(rng, 40)
            env = envelope(inst.y, inst.tau, inst.lam)
            assert fit(inst, "lower").theta == tuple(v.finite_value() for v in env.lower)
            assert fit(inst, "upper").theta == tuple(v.finite_value() for v in env.upper)

    def test_monotone_data_large_lambda_flattens(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 6)
            y = tuple(sorted(F(rng.randint(-3, 3)) for _ in range(n)))
            inst = Instance(y, F(rng.randint(1, 9), 10), F(n + rng.randint(0, 2)))
            lo = fit(inst, "lower")
            up = fit(inst, "upper")
            assert len(set(lo.theta)) == 1 and len(set(up.theta)) == 1
            assert grid_oracle(inst)[1:] == (lo.theta, up.theta)


class TestCertify:
    def test_data_fit_at_lambda_zero(self):
        inst = Instance((2, -1), F(1, 2), F(0))
        cert = certify(inst.y, inst)
        assert cert == DualCertificate(g=(F(0), F(0)), z=(F(0), F(0), F(0)))

    def test_fit_is_always_feasible(self):
        rng = random.Random(14)
        for _ in range(40):
            inst = random_instance(rng, 15)
            assert certify(fit(inst, "any").theta, inst) is not None

    def test_witness_satisfies_all_constraints(self):
        rng = random.Random(15)
        for _ in range(40):
            inst = random_instance(rng, 12)
            theta = fit(inst, rng.choice(("lower", "upper", "any"))).theta
            _assert_witness(certify(theta, inst), theta, inst)

    def test_witness_past_int64_range(self):
        # 2*n*D + lam*D exceeds int64 (D = lcm of the denominators of tau and lam),
        # so the kernel runs on Python ints; the witness must still be exact.
        rng = random.Random(22)
        # The box ends of the 2**61 - 1 levels fit in int64 but their prefix sums do not.
        levels = [(F(1, 2), F(10**30)), (F(1, 2**64 + 1), F(1, 2)), (F(2**70 - 1, 2**70), F(1, 3)),
                  (F(1, 2**61 - 1), F(3)), (F(2**61 - 2, 2**61 - 1), F(1, 2)), (F(1, 3), F(10**25, 7))]
        for tau, lam in levels:
            unit = math.lcm(tau.denominator, lam.denominator)
            for _ in range(30):
                inst = random_instance(rng, 12, n_min=2, value_span=2, taus=[tau], lams=[lam])
                assert 2 * inst.n * unit + lam * unit > 2**63 - 1
                best = fit(inst).objective
                lower, upper = fit(inst, "lower").theta, fit(inst, "upper").theta
                free = tuple(F(rng.randint(-2, 2)) for _ in range(inst.n))
                for theta in (lower, upper, free):
                    cert = certify(theta, inst)
                    assert (cert is not None) == (objective_value(theta, inst) == best)
                    if cert is not None:
                        _assert_witness(cert, theta, inst)
                j = rng.randrange(inst.n)
                bumped = upper[:j] + (upper[j] + F(1, 3),) + upper[j + 1:]
                assert certify(bumped, inst) is None  # above the maximal solution

    def test_perturbation_outside_envelope_is_infeasible(self):
        rng = random.Random(16)
        for _ in range(30):
            inst = random_instance(rng, 10)
            env = envelope(inst.y, inst.tau, inst.lam)
            up = list(fit(inst, "upper").theta)
            i = rng.randrange(inst.n)
            up[i] = env.upper[i].finite_value() + F(1, 3)
            assert certify(up, inst) is None

    def test_feasible_iff_objective_optimal(self):
        rng = random.Random(17)
        for _ in range(120):
            inst = small_integer_instance(rng, n_max=5)
            opt = fit(inst).objective
            cand = tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(inst.n))
            assert (objective_value(cand, inst) == opt) == (certify(cand, inst) is not None)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            certify((1,), Instance((1, 2), F(1, 2), F(1)))

    @pytest.mark.parametrize(
        "lam, y, dtype",
        [
            pytest.param(lam, y, dtype, id=f"{prefix}lam{k}")
            for prefix, y, dtype in (
                ("", (2**63 + 1, 2**63 + 2, -1), object),  # past int64: object ints
                ("int64-", (2**63 - 2, 2**63 - 1, -(2**63)), np.int64),  # both ends of int64
            )
            for k, lam in enumerate((F(0), F(1, 4)))
        ],
    )
    def test_data_past_int64_compare_exactly(self, lam, y, dtype, monkeypatch):
        # y[0] and y[1] are distinct, but one float64; the swap is optimal only if they are not told apart.
        dtypes = []

        def spy(ys, ts, *levels):
            dtypes.append((ys.dtype, ts.dtype))
            return _dual_system(ys, ts, *levels)

        monkeypatch.setattr(solver, "_dual_system", spy)
        inst = Instance(y, F(1, 2), lam)
        best = fit(inst).objective
        for theta in (fit(inst, "lower").theta, fit(inst, "upper").theta, (y[1], y[0], y[2])):
            assert (certify(theta, inst) is not None) == (objective_value(theta, inst) == best)
        assert dtypes == [(np.dtype(dtype),) * 2] * 3


@st.composite
def _mixed_instance(draw):
    """y with mixed denominators, so y's scale s is above 1 and differs from case to case."""
    n = draw(st.integers(1, 9))
    y = tuple(draw(st.lists(st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 9))),
                            min_size=n, max_size=n)))
    tau = draw(st.sampled_from((F(1, 2), F(1, 3), F(3, 4), F(1, 10), F(5, 7))))
    lam = draw(st.sampled_from((F(0), F(1, 4), F(2, 3), F(2), F(n))))
    return Instance(y, tau, lam)


class TestInstanceCache:
    # An Instance keeps y's scaled ints once computed; fit, objective_value and certify
    # must read the same numbers from them as from a cold instance.
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_mixed_instance(), st.sampled_from(("lower", "upper", "any")))
    def test_fit_objective_equals_objective_value(self, inst, extremality):
        result = fit(inst, extremality)
        assert result.objective == objective_value(result.theta, inst)
        assert result.objective == naive_objective(inst.y, result.theta, inst.tau, inst.lam)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_mixed_instance(), st.integers(1, 6), st.integers(0, 8), st.sampled_from((5, 7, 11)))
    def test_certify_rescaling_only_theta(self, inst, k, j, den):
        # y's denominators are in {1, 2, 3, 4, 6, 9}, so a theta with denominator 5, 7 or 11
        # needs a larger scale than y's: the branch that rescales y's cached ints.
        lower, upper = fit(inst, "lower").theta, fit(inst, "upper").theta  # both caches warm
        best = fit(inst).objective
        mix = tuple(a + (b - a) * F(k, den) for a, b in zip(lower, upper))  # the solution set is convex
        j %= inst.n
        bumped = upper[:j] + (upper[j] + F(1, den),) + upper[j + 1:]
        for theta in (mix, bumped):
            cert = certify(theta, inst)
            assert cert == certify(theta, Instance(inst.y, inst.tau, inst.lam))
            # The verdict and witness depend on y and theta only through their joint order.
            rank = {v: r for r, v in enumerate(sorted(set(inst.y) | set(theta)))}
            ranked = Instance(tuple(rank[v] for v in inst.y), inst.tau, inst.lam)
            assert cert == certify(tuple(rank[v] for v in theta), ranked)
            assert (cert is not None) == (objective_value(theta, inst) == best)
        assert certify(mix, inst) is not None
        assert certify(bumped, inst) is None  # above the maximal solution

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_mixed_instance())
    def test_equality_and_hash_ignore_the_cache(self, inst):
        cold = Instance(inst.y, inst.tau, inst.lam)
        certify(fit(inst).theta, inst)
        assert "_scaled_y" in vars(inst) and "_scaled_y" not in vars(cold)
        assert inst == cold and hash(inst) == hash(cold) and repr(inst) == repr(cold)
        assert len({inst, cold}) == 1

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_mixed_instance(), st.sampled_from(("lower", "upper", "any")))
    def test_fit_keeps_theta_ints_off_its_fields(self, inst, extremality):
        result = fit(inst, extremality)
        assert result._scaled_theta == solver._scaled(result.theta, inst._scaled_y[0]) == (
            inst._scaled_y[0], [t * inst._scaled_y[0] for t in result.theta])
        plain = Fit(result.theta, result.objective, result.extremality)
        assert "_scaled_theta" not in vars(plain)
        assert result == plain and hash(result) == hash(plain) and repr(result) == repr(plain)
        assert [f.name for f in dataclasses.fields(result)] == ["theta", "objective", "extremality"]
        assert dataclasses.astuple(result) == dataclasses.astuple(plain)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_mixed_instance())
    def test_instance_given_its_scaled_ints(self, inst):
        scaled = solver._scaled(inst.y)
        given_ints = solver._instance(list(inst.y), inst.tau, inst.lam, scaled)
        assert given_ints == inst and hash(given_ints) == hash(inst) and given_ints.y == inst.y
        assert given_ints._scaled_y is scaled and scaled == inst._scaled_y
        assert fit(given_ints, "lower") == fit(inst, "lower")
        with pytest.raises(ValueError, match="tau must be in"):
            solver._instance(list(inst.y), F(3, 2), inst.lam, scaled)  # the constructor validates


def _assert_witness(cert, theta, inst):
    """Every box, pin and interval identity of the dual system, in exact arithmetic."""
    n, tau, lam = inst.n, inst.tau, inst.lam
    assert all(type(v) is F for v in cert.g + cert.z)
    assert cert.z[0] == 0 and cert.z[n] == 0
    for k in range(1, n):
        zk = cert.z[k]
        assert abs(zk) <= lam
        if theta[k - 1] > theta[k]:
            assert zk == lam
        elif theta[k - 1] < theta[k]:
            assert zk == -lam
    for j in range(n):
        gj = cert.g[j]
        assert gj == cert.z[j] - cert.z[j + 1]
        if theta[j] < inst.y[j]:
            assert gj == -tau
        elif theta[j] > inst.y[j]:
            assert gj == 1 - tau
        else:
            assert -tau <= gj <= 1 - tau
    # interval identity on every [a:b]
    for a in range(1, n + 1):
        acc = F(0)
        for b in range(a, n + 1):
            acc += cert.g[b - 1]
            assert acc == cert.z[a - 1] - cert.z[b]


class TestLattice:
    def test_idempotent_and_componentwise(self):
        x = (F(1), F(2))
        assert lattice_join(x, x) == x
        assert lattice_join((1, 2), (2, 1)) == (2, 2)
        assert lattice_meet((1, 2), (2, 1)) == (1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lattice_join((1,), (1, 2))

    def test_closure_of_optimal_solutions(self):
        rng = random.Random(18)
        checked = 0
        for _ in range(60):
            inst = random_instance(rng, 12, taus=[F(1, 2)], lams=[F(1, 4), F(1, 2), F(1)])
            lo = fit(inst, "lower").theta
            up = fit(inst, "upper").theta
            if lo == up:
                continue
            checked += 1
            assert certify(lattice_join(lo, up), inst) is not None
            assert certify(lattice_meet(lo, up), inst) is not None
        assert checked >= 10  # the generator must actually produce non-unique instances


class TestGridOracle:
    def test_single_point(self):
        assert grid_oracle(Instance((F(3, 2),), F(1, 2), F(1))) == (0, (F(3, 2),), (F(3, 2),))

    def test_lambda_zero(self):
        inst = Instance((1, 3, 2), F(1, 4), F(0))
        assert grid_oracle(inst) == (0, inst.y, inst.y)

    def test_cap(self):
        with pytest.raises(ValueError):
            grid_oracle(Instance(tuple(range(GRID_ORACLE_CAP + 1)), F(1, 2), F(1)))


@st.composite
def _tie_heavy_case(draw):
    """n <= 8 on a pool of at most three values; lam often a multiple of 1/(2q), where flat stretches sit at a bound."""
    pool = draw(st.lists(st.fractions(-2, 2, max_denominator=2), min_size=1, max_size=3, unique=True))
    y = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=GRID_ORACLE_CAP))
    q = draw(st.sampled_from((2, 3, 4, 5, 10)))
    tau = F(draw(st.integers(1, q - 1)), q)
    lam = draw(st.one_of(st.integers(0, 4 * q * len(y)).map(lambda k: F(k, 2 * q)), st.fractions(0, 2 * len(y))))
    return Instance(tuple(y), tau, lam)


class TestCutOracle:
    """`cut_fit` against the other references, and `fit` against it at the benchmark's sizes."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_tie_heavy_case())
    def test_equals_the_grid_oracle(self, inst):
        assert cut_fit(inst) == grid_oracle(inst)[1:]

    def test_equals_the_literal_envelope(self):
        rng = random.Random(97)
        for n in (9, 10, 11, 12):
            y = tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n))
            tau, lam = F(rng.randint(1, 9), 10), F(rng.randint(0, 4 * n), 4)
            lower, upper = naive_envelope(y, tau, lam)
            assert cut_fit(Instance(y, tau, lam)) == (tuple(lower), tuple(upper)), (y, tau, lam)

    @pytest.mark.parametrize("tau, lam", [(F(1, 2), F(1, 4)), (F(1, 3), F(20)), (F(1, 2), F(4000))])
    def test_exact_fits_at_bench_size(self, tau, lam):
        # The exact_chain workload's data: six runs of levels plus quarter-step noise, n = 4000.
        rng, n = random.Random(101), 4000
        y = tuple((0, 2, -1, 3, 1, -2)[6 * i // n] + F(rng.randint(-6, 6), 4) for i in range(n))
        inst = Instance(y, tau, lam)
        assert cut_fit(inst) == (fit(inst, "lower").theta, fit(inst, "upper").theta)

    def test_fit_float_at_mc_rate_size(self):
        # The mc_rate workload's data: an alpha = 1 cusp plus Cauchy(0.1) noise at n = 4096, tau 1/2, lam* as posed.
        n, cusp = 4096, HolderCusp(1.0)
        y = (cusp.values(n) + Cauchy(0.1).sample(np.random.default_rng(103), n, 0.5)).tolist()
        lam = cusp.star_lambda(n, 0.5)
        lower, upper = cut_fit(Instance(tuple(map(F, y)), F(0.5), F(lam)))
        assert fit_float(y, 0.5, lam, "lower") == list(map(float, lower))
        assert fit_float(y, 0.5, lam, "upper") == list(map(float, upper))


def _against_cut_oracle(y, tau, lam):
    """Both of `fit`'s ends, and `fit_float`'s on float data, against `cut_fit` on the instance as posed.

    tau and lam are the caller's Fractions.  Where the data grid is small,
    the grid oracle checks both ends as well.
    """
    inst = Instance(tuple(map(F, y)), tau, lam)
    lower, upper = cut_fit(inst)
    assert (fit(inst, "lower").theta, fit(inst, "upper").theta) == (lower, upper), inst
    if len(y) <= GRID_ORACLE_CAP and len(set(y)) ** len(y) <= 4**8:
        assert grid_oracle(inst)[1:] == (lower, upper), inst
    if isinstance(y[0], float):
        for ext, theta in (("lower", lower), ("upper", upper)):
            assert fit_float(y, float(tau), float(lam), ext) == list(map(float, theta)), (inst, ext)
    return upper


def _float_fits_equal_exact(y, tau, lam):
    """`fit_float` against `fit` on the Fractions of float data and levels, for every extremality."""
    inst = Instance(tuple(map(F, y)), F(tau), F(lam))
    for ext in ("lower", "upper", "any"):
        assert fit_float(y, tau, lam, ext) == [float(v) for v in fit(inst, ext).theta], (y, tau, lam, ext)


class TestFitAgainstCutOracle:
    """Both extremal fits against `cut_fit`, which shares no step with the solver's clip walks or its lattice levels.

    Integer levels (tau, lam, unit) are posed as the Fractions tau/unit and lam/unit.
    """

    def test_tie_heavy_integer_ranks_with_lattice_units(self):
        rng = random.Random(41)
        for trial in range(400):
            n = 1 + trial % 40
            unit = rng.choice((2, 4, 12, 60))
            y = [rng.randint(0, rng.choice((1, 2, 4))) for _ in range(n)]
            tau = rng.randrange(1, unit)
            for lam in (unit // 4 or 1, 3 * unit // 2 + 1, n * unit, 2 * n * unit + 1):  # 1/4, moderate, >= n
                _against_cut_oracle(y, F(tau, unit), F(lam, unit))

    def test_floats_with_repeated_values(self):
        rng = random.Random(43)
        for trial in range(300):
            n = 1 + trial % 60
            pool = [rng.gauss(0, 1) for _ in range(rng.randint(1, 6))]
            y = [rng.choice(pool) for _ in range(n)]
            tau = rng.choice((0.5, 0.25, 0.3, 0.9))
            for lam in (0.25, rng.uniform(0.5, 3.0), float(n), 2.0 * n):
                _against_cut_oracle(y, F(tau), F(lam))

    def test_mc_rate_shaped_floats(self):
        # Large n with lam near its rate-optimal size; dyadic tau makes the walks hit the bound exactly.
        rng = random.Random(47)
        for n, lam in ((256, 20.0), (2048, 68.4), (4096, 101.1)):
            y = [abs(2 * i / n - 1) + 0.1 * math.tan(math.pi * (rng.random() - 0.5)) for i in range(n)]
            for unit, t, l in (_lattice(F(0.5), F(lam)), _fit_lattice(F(0.5), F(lam))):  # raw, and lam's cell's
                _against_cut_oracle(y, F(t, unit), F(l, unit))

    def test_monotone_and_v_shaped_trends(self):
        # A trend sends each new value to one side of the pivot, so one heap empties every few steps and refills.
        rng = random.Random(53)
        for trial in range(160):
            n = 1 + trial % 8 if trial % 2 else rng.randint(9, 160)
            ties, m = rng.choice((1, 1, 2, 3)), rng.randrange(n)
            y = rng.choice(([i // ties for i in range(n)], [abs(i - m) // ties for i in range(n)]))
            if rng.random() < 0.5:
                y = [-v for v in y]
            unit = rng.choice((2, 4, 12))
            tau = rng.randrange(1, unit)
            for lam in (unit // 2, unit + 1, 3 * unit, n * unit // 4 + 1):
                _against_cut_oracle(y, F(tau, unit), F(lam, unit))

    def test_cusp_shaped_floats(self):
        rng = random.Random(59)
        for trial in range(40):
            n = rng.randint(2, 300)
            m = rng.random()
            y = [abs(i / n - m) ** 0.5 + 0.01 * rng.gauss(0, 1) for i in range(n)]
            tau, lam = rng.choice((0.5, 0.25, 0.3)), rng.choice((0.25, 1.5, n / 8))
            _against_cut_oracle(y, F(tau), F(lam))
            _float_fits_equal_exact(y, tau, lam)

    def test_one_live_breakpoint(self):
        # lam below one unit jump: the clips leave one or two live breakpoints in most steps, often one,
        # which both walks then read from the heap that holds it.
        rng = random.Random(61)
        for trial in range(300):
            n = 1 + trial % 40
            unit = rng.choice((2, 4, 12, 60))
            y = [rng.randint(-3, 3) for _ in range(n)]
            _against_cut_oracle(y, F(rng.randrange(1, unit), unit), F(rng.randrange(1, unit), unit))

    def test_outliers_beyond_either_end(self):
        # Cauchy-like draws, some far past every other value on either side.
        rng = random.Random(67)
        for trial in range(120):
            n = 1 + trial % 8 if trial % 2 else rng.randint(9, 200)
            y = [math.tan(math.pi * (rng.random() - 0.5)) for _ in range(n)]
            for j in rng.sample(range(n), min(n, 3)):
                y[j] = rng.choice((-1.0, 1.0)) * 10.0 ** rng.randint(6, 300)
            tau, lam = rng.choice((0.5, 0.25, 0.3, 0.9)), rng.choice((0.125, 0.75, 3.0, float(n)))
            _against_cut_oracle(y, F(tau), F(lam))
            _float_fits_equal_exact(y, tau, lam)

    def test_values_equal_to_the_pivot(self):
        # The pivot starts at y[0] and moves to a breakpoint on each refill; a few repeated levels meet it
        # again, live or already consumed.
        rng = random.Random(71)
        for trial in range(200):
            n = 1 + trial % 8 if trial % 2 else rng.randint(9, 120)
            pool = rng.sample(range(-6, 7), rng.randint(1, 4))
            y = [pool[0]] + [rng.choice(pool[:1] * 2 + pool) for _ in range(n - 1)]
            unit = rng.choice((2, 4, 12))
            tau = rng.randrange(1, unit)
            for lam in (unit // 2, 2 * unit + 1, n * unit // 3 + 1):
                _against_cut_oracle(y, F(tau, unit), F(lam, unit))

    def test_lambda_at_least_n(self):
        # No clip binds inside the loop, so the final walk alone consumes the breakpoints, refilling as it goes.
        rng = random.Random(73)
        for trial in range(80):
            n = 1 + trial % 8 if trial % 2 else rng.randint(9, 300)
            y = [rng.randint(-n, n) for _ in range(n)]
            if trial % 3 == 0:
                y.sort(reverse=rng.random() < 0.5)
            unit = rng.choice((2, 4, 12))
            tau = rng.randrange(1, unit)
            for lam in (n * unit, 2 * n * unit + 1):
                assert len(set(_against_cut_oracle(y, F(tau, unit), F(lam, unit)))) == 1


class TestFitCoreStore:
    """`_fit_core`'s two heaps: the amortized refills and the guard for a derivative that runs out."""

    def test_refills_move_few_keys(self, monkeypatch):
        # A refill moves about half a heap, and the next one waits for about as many pops: at most
        # 2 keys per pop plus the last refill's, so 3 per data point.
        moved = []
        refill = solver._refill

        def counted(heap, empty):
            size = len(heap)
            first = refill(heap, empty)
            moved.append(size - len(heap))
            return first

        monkeypatch.setattr(solver, "_refill", counted)
        rng, refills = random.Random(79), 0
        for n in (50, 400, 2000):
            m = rng.randrange(n)
            for y in (list(range(n)), [abs(i - m) for i in range(n)], [rng.randint(0, n) for _ in range(n)]):
                for lam in (3, 40, 4 * n):
                    for run in (lambda: _fit_core(y, 1, lam, 2), lambda: _fit_extremal(y, 1, lam, 2, "lower")):
                        moved.clear()
                        run()
                        assert sum(moved) <= 3 * n, (n, lam, sum(moved))
                        refills += len(moved)
        assert refills > 1000

    def test_exhausted_derivative_raises(self):
        # tau above the unit jump makes the value at +inf negative (and unit - tau, reflected, the value
        # at -inf positive), so a clip walk runs out of breakpoints; at lam = 0 no clip runs, and the
        # argmin scan runs out instead.
        y, tau, lam, unit = [0, 1, 2], 5, 1, 1
        calls = [lambda: _fit_core(y, tau, lam, unit), lambda: _fit_core([0], tau, 0, unit)]
        calls += [lambda e=e: _fit_extremal(y, tau, lam, unit, e) for e in ("lower", "upper", "any")]
        for call in calls:
            with pytest.raises(AssertionError, match="^derivative exhausted$"):
                call()


def _constant_fits(y, tau) -> tuple:
    """(smallest, largest) minimiser over constants c of sum_i rho_tau(y_i - c): both are data values."""
    scale, (p, q) = math.lcm(*(F(v).denominator for v in y)), tau.as_integer_ratio()
    ints = [int(v * scale) for v in y]  # the loss times q * scale, in ints
    losses = {c: sum(p * (v - c) if v >= c else (p - q) * (v - c) for v in ints) for c in set(ints)}
    least = min(losses.values())
    best = [c for c, loss in losses.items() if loss == least]
    return F(min(best), scale), F(max(best), scale)


class TestArgminScan:
    """The final argmin: the first live key, ascending, past which the derivative exceeds 0."""

    def test_flat_stretch_at_zero_takes_its_right_end(self):
        # Between its two data values the final derivative is -tau*2 + 1 = 0, so theta_n ranges over [0, 1].
        inst = Instance((0, 1), F(1, 2), F(2))
        assert fit(inst, "upper").theta == (1, 1) and fit(inst, "lower").theta == (0, 0)
        rng, stretches = random.Random(83), 0
        for trial in range(300):
            n = 1 + trial % 6
            q = rng.choice((2, 4, 6))
            inst = Instance(tuple(rng.randint(0, 3) for _ in range(n)), F(rng.randrange(1, q), q),
                            F(rng.randint(0, 4 * n), 2 * q))
            _, lower, upper = grid_oracle(inst)
            assert fit(inst, "upper").theta == upper and fit(inst, "lower").theta == lower, inst
            stretches += upper[-1] > lower[-1]  # theta_n not unique: the derivative is 0 on a stretch at the end
        assert stretches > 30

    def test_one_live_key_at_the_end(self):
        # Each pass, and its reflection, ends with one live key: at lam = 1/4 and tau = 1/2 the clips leave a lone
        # key with jump 2*lam, and the last value lands on it; n = 1 and constant data hold one key throughout.
        cases = [((3,), F(1, 2)), ((0, 5, 5), F(1, 4)), ((2, 2, 2, 2), F(7, 3)), ((-4, 1, 1), F(1, 4)),
                 ((0, 5, 0, 5, 5), F(1, 4)), ((5, 0, 0), F(1, 4))]
        for y, lam in cases:
            inst = Instance(y, F(1, 2), lam)
            _, lower, upper = grid_oracle(inst)
            assert fit(inst, "upper").theta == upper and fit(inst, "lower").theta == lower, y
            unit, tau, lam = _fit_lattice(inst.tau, inst.lam)
            assert _fit_core(list(y), tau, lam, unit) == list(upper)

    def test_lambda_at_least_n(self):
        # No clip binds inside the loop, so the scan alone finds the constant fit: the largest (for the
        # lower fit, the smallest) minimiser of the summed loss over constants.
        rng = random.Random(89)
        for trial in range(60):
            n = rng.randint(1, 300)
            y = tuple(rng.randint(-5, 5) if trial % 2 else F(rng.randint(-n, n), rng.randint(1, 3)) for _ in range(n))
            q = rng.choice((2, 3, 4, 5, 10))
            tau = F(rng.randrange(1, q), q)
            low, high = _constant_fits(y, tau)
            for lam in (F(n), F(2 * n + 1)):
                inst = Instance(y, tau, lam)
                assert fit(inst, "upper").theta == (high,) * n and fit(inst, "lower").theta == (low,) * n, inst
                if trial % 2 and q in (2, 4):  # integer data, tau and lam are exact as floats
                    assert fit_float([float(v) for v in y], float(tau), float(lam)) == [float(high)] * n


class TestFloatPath:
    def test_signed_zeros_equal_the_exact_fit(self):
        # 0.0 == -0.0 is one breakpoint to the pass, so only the sign of a zero fitted value may differ.
        rng = random.Random(67)
        zeros = 0
        for trial in range(300):
            y = [0.0, -0.0] + [rng.choice((0.0, -0.0, 0.5, -1.0, 2.0)) for _ in range(trial % 30)]
            rng.shuffle(y)
            tau, lam = rng.choice((0.25, 0.5, 0.3, 0.75)), rng.choice((0.25, 0.7, 1.0, 2.0 * len(y)))
            inst = Instance(tuple(map(F, y)), F(tau), F(lam))
            for extremality in ("lower", "upper", "any"):
                theta = fit_float(y, tau, lam, extremality)
                assert theta == [float(v) for v in fit(inst, extremality).theta], (y, tau, lam, extremality)
                zeros += theta.count(0.0)
        assert zeros > 0

    def test_matches_exact_on_generic_data(self):
        rng = random.Random(20)
        for _ in range(30):
            n = rng.randint(1, 50)
            y = [rng.gauss(0, 1) for _ in range(n)]
            tau, lam = 0.3, 0.7
            theta = fit_float(y, tau, lam)
            assert theta == [float(v) for v in fit(Instance(tuple(F(v) for v in y), F(tau), F(lam))).theta]
            assert certify_float(y, theta, tau, lam)

    def test_matches_exact_on_dyadic_data(self):
        # Integer data with dyadic tau and lam keep every float operation exact.
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 40)
            y = [rng.randint(-6, 6) for _ in range(n)]
            tau = F(rng.choice((1, 2, 3)), 4)
            lam = rng.choice((F(0), F(1, 8), F(1, 2), F(rng.randint(1, 32), 8), F(n), F(2 * n)))
            inst = Instance(tuple(y), tau, lam)
            for ext in ("lower", "upper", "any"):
                assert fit_float(y, float(tau), float(lam), ext) == list(fit(inst, ext).theta)

    def test_certificate_matches_exact_on_dyadic_data(self):
        # Same dyadic setting: the float verdict is the exact one.
        rng = random.Random(29)
        verdicts = set()
        for _ in range(150):
            n = rng.randint(1, 40)
            y = [rng.randint(-6, 6) for _ in range(n)]
            tau = F(rng.choice((1, 2, 3)), 4)
            lam = rng.choice((F(0), F(1, 8), F(1, 2), F(rng.randint(1, 32), 8), F(n), F(2 * n)))
            inst = Instance(tuple(y), tau, lam)
            candidates = [fit(inst, "lower").theta, fit(inst, "upper").theta]
            for theta in list(candidates):
                j = rng.randrange(n)
                bump = F(rng.choice((1, -1, 3)), rng.choice((1, 2, 4, 8)))
                candidates.append(theta[:j] + (theta[j] + bump,) + theta[j + 1:])
            candidates.append(tuple(rng.randint(-6, 6) for _ in range(n)))
            for theta in candidates:
                exact = certify(theta, inst) is not None
                verdicts.add(exact)
                assert certify_float(y, [float(v) for v in theta], float(tau), float(lam)) == exact
        assert verdicts == {True, False}

    @pytest.mark.parametrize("lam", [0.05, 0.5])
    def test_certificate_at_large_n(self, lam):
        # prefix sums grow with n; a small bump must still be told apart
        rng = random.Random(31)
        n = 65536
        y = [rng.gauss(0, 1) for _ in range(n)]
        theta = fit_float(y, 0.5, lam)
        assert certify_float(y, theta, 0.5, lam)
        j = n // 2 + 17
        assert not certify_float(y, theta[:j] + [theta[j] + 1e-3] + theta[j + 1:], 0.5, lam)

    def test_rejects_empty_data(self):
        with pytest.raises(ValueError, match="non-empty"):
            fit_float([], 0.5, 1.0)
        with pytest.raises(ValueError, match="non-empty"):
            fit_float([], 0.5, 0.0)
        with pytest.raises(ValueError, match="non-empty"):
            certify_float([], [], 0.5, 1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            fit_float([1.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            fit_float([1.0], 0.5, -1.0)
        with pytest.raises(ValueError, match="tau"):  # levels are checked before the data
            certify_float([], [], 1.5, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="data must be finite"):
            fit_float([1.0, bad, 2.0], 0.5, 1.0)
        with pytest.raises(ValueError, match="data must be finite"):
            fit_float(np.array([1.0, bad, 2.0]), 0.5, 1.0)
        with pytest.raises(ValueError, match="data must be finite"):
            certify_float([1.0, bad, 2.0], [2.0, 2.0, 2.0], 0.5, 1.0)
        with pytest.raises(ValueError, match="theta must be finite"):
            certify_float([1.0, 2.0, 3.0], [2.0, bad, 2.0], 0.5, 1.0)
        with pytest.raises(ValueError):
            fit_float([1.0, 2.0], 0.5, bad)
        with pytest.raises(ValueError):
            certify_float([1.0, 2.0], [1.5, 1.5], 0.5, bad)
        with pytest.raises(ValueError):
            certify_float([1.0, 2.0], [1.5, 1.5], bad, 1.0)

    def test_certify_float_rejects_suboptimal(self):
        y = [0.0, 10.0]
        theta = fit_float(y, 0.5, 0.25)
        bad = [theta[0] + 5.0, theta[1]]
        assert not certify_float(y, bad, 0.5, 0.25)

    def test_certify_float_is_exact_at_tiny_scales(self):
        # data and lam far below 1e-8: the verdict depends on no absolute scale
        y = [1e-9, -1e-9, 3e-9, 0.0]
        lam = 1e-10
        assert not certify_float(y, [0.0] * 4, 0.5, lam)
        assert not certify_float(y, [5e-9] * 4, 0.5, lam)
        assert certify_float(y, fit_float(y, 0.5, lam), 0.5, lam)

    def test_certify_float_verdict_invariant_under_scaling(self):
        rng = random.Random(21)
        cases = [([1e-9, -1e-9, 3e-9, 0.0], [0.0] * 4, 1e-10),
                 ([1e-9, -1e-9, 3e-9, 0.0], [5e-9] * 4, 1e-10)]
        for _ in range(20):
            n = rng.randint(1, 30)
            y = [rng.gauss(0, 1) for _ in range(n)]
            lam = rng.choice([0.0, 0.1, 0.7, 3.0, 40.0])
            theta = fit_float(y, 0.3, lam)
            cases.append((y, theta, lam))
            j = rng.randrange(n)
            cases.append((y, theta[:j] + [theta[j] + rng.choice([1e-3, -0.5])] + theta[j + 1:], lam))
        verdicts = set()
        for y, theta, lam in cases:
            base = certify_float(y, theta, 0.3, lam)
            verdicts.add(base)
            for k in range(-40, 41):
                s = 2.0**k
                assert certify_float([s * v for v in y], [s * v for v in theta], 0.3, lam) == base, (k, lam)
        assert verdicts == {True, False}

    # Non-dyadic tau and lam, where rounded float arithmetic on the levels breaks ties wrongly:
    # a suboptimal "lower" fit, and an optimal fit that is not the upper one.
    def test_suboptimal_lower_fit_at_tau_0_9(self):
        y, tau, lam = [0.3, -0.3, -0.6, 0.6, -0.9, 0.3, 0.4, -0.9, 0.5], 0.9, 0.2
        inst = Instance(tuple(F(v) for v in y), F(tau), F(lam))
        assert fit_float(y, tau, lam, "lower") == [float(v) for v in fit(inst, "lower").theta]
        suboptimal = [0.3, 0.3, 0.3, 0.6, 0.4, 0.4, 0.4, 0.4, 0.5]
        assert certify(tuple(F(v) for v in suboptimal), inst) is None
        assert not certify_float(y, suboptimal, tau, lam)

    def test_upper_fit_at_tau_0_3(self):
        y, tau, lam = [-0.9, 0.5, -0.1, -0.2, 0.9], 0.3, 0.3
        inst = Instance(tuple(F(v) for v in y), F(tau), F(lam))
        assert fit_float(y, tau, lam, "upper") == [float(v) for v in fit(inst, "upper").theta]
        assert fit_float(y, tau, lam, "upper") == [-0.9, -0.1, -0.1, -0.2, 0.9]

    def test_one_ulp_move_is_rejected(self):
        rng = random.Random(53)
        n, lam = 8192, 68.4
        y = [abs(2 * i / n - 1) + 0.1 * math.tan(math.pi * (rng.random() - 0.5)) for i in range(n)]
        theta = fit_float(y, 0.5, lam)
        assert certify_float(y, theta, 0.5, lam)
        for j in (0, 1234, n // 2 + 17, n - 1):
            for direction in (-math.inf, math.inf):
                moved = theta[:j] + [math.nextafter(theta[j], direction)] + theta[j + 1:]
                assert not certify_float(y, moved, 0.5, lam), (j, direction)

    @pytest.mark.parametrize("lam", [2.0**-10, 0.7])
    def test_certificate_past_int64_agrees_with_exact(self, lam):
        # At tau 0.3, D = 2**54, so 2*n*D + lam*D exceeds int64 from n = 257 and the boxes are Python ints.
        # With lam = 2**-10 theta is mostly y, and the prefix sums of the g boxes pass 2**63 in fact.
        rng = random.Random(59)
        n, tau = 2000, 0.3
        one, _, lam_d = _lattice(F(tau), F(lam))
        assert 2 * n * one + lam_d > np.iinfo(np.int64).max
        y = [round(rng.gauss(0, 1), 1) for _ in range(n)]
        inst = Instance(tuple(F(v) for v in y), F(tau), F(lam))
        theta = fit_float(y, tau, lam)
        assert theta == [float(v) for v in fit(inst).theta]
        j = n // 2
        for new in (theta[j], theta[j] + 0.1, math.nextafter(theta[j], math.inf)):
            moved = theta[:j] + [new] + theta[j + 1:]
            exact = certify(tuple(F(v) for v in moved), inst) is not None
            assert certify_float(y, moved, tau, lam) == exact == (new == theta[j])


_FINITE = st.floats(min_value=-1e300, max_value=1e300)  # nextafter and small steps stay finite
_QUARTERS = st.integers(-24, 24).map(lambda k: k / 4)


@st.composite
def _float_case(draw):
    """Small instance on finite floats with any float tau and lam, plus a candidate theta.

    Data come from a small pool, so ties occur; the pool mixes quarter-integers
    with arbitrary floats, and tau and lam mix dyadic, non-dyadic and arbitrary levels.
    """
    n = draw(st.integers(1, 10))
    pool = draw(st.lists(st.one_of(_QUARTERS, _FINITE), min_size=1, max_size=5))
    y = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    tau = draw(st.one_of(st.sampled_from((0.25, 0.5, 0.75, 0.1, 0.3, 1 / 3, 0.9)),
                         st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    lam = draw(st.one_of(st.integers(0, 16 * n).map(lambda k: k / 8),
                         st.sampled_from((0.01, 0.2, 0.3, 0.7, float(n))),
                         st.floats(0.0, 1e6)))
    extremality = draw(st.sampled_from(("lower", "upper", "any")))
    kind = draw(st.sampled_from(("fit", "bump", "ulp", "free")))
    free = draw(st.lists(st.one_of(st.sampled_from(pool), _FINITE), min_size=n, max_size=n))
    bump = (draw(st.integers(0, n - 1)), draw(st.sampled_from((-4, -1, 1, 2, 8))) / 8)
    return y, tau, lam, extremality, kind, free, bump


class TestFloatExactProperty:
    # Float comparisons are exact and every finite float is a dyadic rational, so the
    # float paths must agree bit for bit with the exact ones on the Fractions of their inputs.
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_float_case())
    def test_float_paths_equal_exact(self, case):
        y, tau, lam, extremality, kind, free, (j, step) = case
        inst = Instance(tuple(F(v) for v in y), F(tau), F(lam))
        theta = [float(v) for v in fit(inst, extremality).theta]
        assert fit_float(y, tau, lam, extremality) == theta
        if kind == "bump":
            theta[j] += step
        elif kind == "ulp":
            theta[j] = math.nextafter(theta[j], math.copysign(math.inf, step))
        elif kind == "free":
            theta = free
        exact = certify(tuple(F(v) for v in theta), inst) is not None
        assert certify_float(y, theta, tau, lam) == exact


_INSIDE = st.fractions(0, 1, max_denominator=30).filter(lambda f: 0 < f < 1)


@st.composite
def _cell_case(draw, values, taus, first, second):
    """(y, tau, lam1, lam2): lam1 and lam2 inside one open cell (c/(2q), (c+1)/(2q)), q = den tau.

    The envelope formulas select order statistics through floor/ceil of
    tau*m -+ lam*c2 with c2 in {-2, ..., 2}, which only change where lam*c2
    crosses (1/q)Z, so both extremal fits are constant on each cell.
    """
    n = draw(st.integers(1, 12))
    y = tuple(draw(st.lists(values, min_size=n, max_size=n)))
    tau = draw(taus)
    cells = 2 * tau.denominator
    c = draw(st.integers(0, cells * (n + 2)))
    return y, tau, (c + draw(first)) / cells, (c + draw(second)) / cells


def _core_on_own_lattice(inst, extremality):
    """`_fit_extremal` on `_lattice(inst.tau, inst.lam)`, the caller's own lam rather than its cell's representative."""
    unit, tau, lam = _lattice(inst.tau, inst.lam)
    value = dict(zip(inst._scaled_y[1], inst.y))
    return tuple(map(value.__getitem__, _fit_extremal(inst._scaled_y[1], tau, lam, unit, extremality)))


class TestLambdaCells:
    # The public fits run on one representative per cell, so each lam is also fitted on its own
    # lattice and evaluated by the envelope formula, which share nothing with that representative.
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_cell_case(st.integers(-4, 4).map(F), st.integers(1, 9).map(lambda k: F(k, 10)), _INSIDE, _INSIDE))
    def test_extremal_fits_are_constant_inside_a_cell(self, case):
        y, tau, lam1, lam2 = case
        for extremality in ("lower", "upper"):
            thetas = set()
            for lam in (lam1, lam2):
                inst = Instance(y, tau, lam)
                side = getattr(envelope(y, tau, lam), extremality)
                theta = fit(inst, extremality).theta
                assert theta == _core_on_own_lattice(inst, extremality) == tuple(v.finite_value() for v in side)
                thetas.add(theta)
            assert len(thetas) == 1

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_cell_case(st.integers(-16, 16).map(lambda k: F(k, 4)),
                      st.sampled_from((F(1, 4), F(1, 2), F(3, 4), F(3, 8))),
                      st.integers(1, 63).map(lambda k: F(k, 64)), _INSIDE))
    def test_fit_float_equals_fit_anywhere_in_the_cell(self, case):
        # Dyadic y and tau, and a dyadic lam1, so the floats are exact; lam2 is any rational of the cell.
        y, tau, lam1, lam2 = case
        for extremality in ("lower", "upper"):
            exact = [float(v) for v in fit(Instance(y, tau, lam2), extremality).theta]
            assert fit_float([float(v) for v in y], float(tau), float(lam1), extremality) == exact
            for lam in (lam1, lam2):
                assert [float(v) for v in _core_on_own_lattice(Instance(y, tau, lam), extremality)] == exact


class TestFitLattice:
    """`_fit_lattice`: the levels of lam's open cell's representative, never a larger D than lam's own."""

    def test_lam_on_the_lattice_is_kept(self):
        for tau in (F(1, 2), F(1, 3), F(3, 10), F(7, 9), F(0.3)):
            q = tau.denominator
            for lam in (F(0), F(1, 2 * q), F(1, q), F(5, 2 * q), F(1), F(7), F(64), F(65, 2), F(10**6)):
                assert _fit_lattice(tau, lam) == _lattice(tau, lam), (tau, lam)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.fractions(0, 1, max_denominator=40).filter(lambda f: 0 < f < 1),
           st.one_of(st.fractions(0, 200, max_denominator=10**6), st.floats(0, 1e4).map(F)))
    def test_representative_lies_in_the_same_open_cell(self, tau, lam):
        unit, t, l = _fit_lattice(tau, lam)
        assert F(t, unit) == tau
        assert unit <= _lattice(tau, lam)[0]
        cells = 2 * tau.denominator
        if (lam * cells).denominator == 1:
            assert (unit, t, l) == _lattice(tau, lam)
        else:
            rep = F(l, unit)
            assert (rep * cells).denominator != 1
            assert math.floor(rep * cells) == math.floor(lam * cells)

    def test_float_tau_0_3_keeps_the_callers_lam(self):
        # Fraction(0.3) has denominator 2**54, which already holds any float lam from about 1/4 up.
        for lam in (0.3, 0.7, 87.3, 1e6 + 0.1):
            assert _fit_lattice(F(0.3), F(lam)) == _lattice(F(0.3), F(lam))

    @pytest.mark.parametrize("lam", [5e-324, 1e-9])
    def test_tiny_lam_at_tau_half_fits_on_eighths(self, lam):
        # The raw lattice of lam = 2**-1074 has D = 2**1074 (1075-bit levels); its cell (0, 1/4) gives D = 8.
        assert _fit_lattice(F(0.5), F(lam)) == (8, 4, 1)
        rng = random.Random(61)
        y = [round(rng.gauss(0, 1), 2) for _ in range(1000)]
        unit, t, l = _lattice(F(0.5), F(lam))
        for extremality in ("lower", "upper", "any"):
            assert fit_float(y, 0.5, lam, extremality) == _fit_extremal(y, t, l, unit, extremality)


@pytest.mark.parametrize("call, message", [
    (lambda: certify_float([1.0, 2.0], [1.0], 0.5, 1.0), "length mismatch"),
    (lambda: lattice_meet((1, 2), (1,)), "length mismatch"),
], ids=["certify-float-length", "meet-length"])
def test_argument_checks_raise(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is ValueError and str(exc.value) == message
