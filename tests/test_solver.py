import heapq
import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest

from helpers import random_instance, small_integer_instance

from qtvd.envelope import envelope
from qtvd.solver import (
    GRID_ORACLE_CAP,
    DualCertificate,
    Instance,
    certify,
    certify_float,
    fit,
    fit_float,
    grid_oracle,
    lattice_join,
    lattice_meet,
    objective_value,
    _trim,
)

F = Fraction


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

    def test_parses_strings_exactly(self):
        inst = Instance(("0.25", "1/3"), "0.1", "1/7")
        assert inst.y == (F(1, 4), F(1, 3))
        assert inst.tau == F(1, 10) and inst.lam == F(1, 7)


class TestFit:
    def test_lambda_zero_returns_data(self):
        inst = Instance((4, -1, 7, 7), F(9, 10), F(0))
        for ext in ("lower", "upper", "any"):
            assert fit(inst, ext).theta == inst.y

    def test_constant_data(self):
        inst = Instance((F(3, 2),) * 5, F(1, 4), F(2))
        assert fit(inst, "upper").theta == inst.y
        assert fit(inst, "lower").theta == inst.y

    def test_reference_instance_matches_oracle_and_envelope(self):
        inst = Instance((1, 3, 2), F(1, 2), F(1, 4))
        orc = grid_oracle(inst)
        env = envelope(inst.y, inst.tau, inst.lam)
        up = fit(inst, "upper")
        assert up.theta == orc.upper == tuple(v.finite_value() for v in env.upper)
        assert up.objective == orc.objective

    def test_unknown_extremality(self):
        with pytest.raises(ValueError):
            fit(Instance((1,), F(1, 2), F(1)), "median")

    def test_oracle_agreement_small_n(self):
        rng = random.Random(11)
        for _ in range(60):
            inst = small_integer_instance(rng)
            orc = grid_oracle(inst)
            assert fit(inst, "any").objective == orc.objective
            assert fit(inst, "lower").theta == orc.lower
            assert fit(inst, "upper").theta == orc.upper

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
            orc = grid_oracle(inst)
            assert lo.theta == orc.lower and up.theta == orc.upper


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
            cert = certify(theta, inst)
            n, tau, lam = inst.n, inst.tau, inst.lam
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
        orc = grid_oracle(Instance((F(3, 2),), F(1, 2), F(1)))
        assert orc.objective == 0 and orc.lower == orc.upper == (F(3, 2),)

    def test_lambda_zero(self):
        inst = Instance((1, 3, 2), F(1, 4), F(0))
        orc = grid_oracle(inst)
        assert orc.objective == 0 and orc.lower == orc.upper == inst.y

    def test_cap(self):
        with pytest.raises(ValueError):
            grid_oracle(Instance(tuple(range(GRID_ORACLE_CAP + 1)), F(1, 2), F(1)))


def _clamps_from_steps(xs, steps, lam, prefer_high):
    """Clamp thresholds read off the pre-clip step values (steps[i] lies just left of xs[i]).

    lo: first breakpoint right of which the value reaches -lam (passes it
    when ties go high); hi: last breakpoint left of which the value stays
    at most lam (below it when ties go low).  None where an end already
    satisfies the bound.
    """
    def reaches(v):
        return v > -lam if prefer_high else v >= -lam

    def stays(v):
        return v <= lam if prefer_high else v < lam

    lo = None if reaches(steps[0]) else next(x for x, v in zip(xs, steps[1:]) if reaches(v))
    hi = None if stays(steps[-1]) else next(x for x, v in zip(xs[::-1], steps[-2::-1]) if stays(v))
    return lo, hi


class TestTrim:
    """`_trim` driven by hand: both clips of each step, as `_fit_core` runs them."""

    def test_steps_nondecreasing_and_clipped(self):
        rng = random.Random(19)
        tau = F(1, 3)
        for lam in (F(1, 3), F(1, 2), F(2)):
            for prefer_high in (False, True):
                y0 = F(2)
                jumps, lo_heap, hi_heap = {y0: 1}, [y0], [-y0]
                base, neg_top = -tau, tau - 1
                for _ in range(40):
                    xs = sorted(jumps)
                    steps = list(accumulate((jumps[x] for x in xs), initial=base))
                    expected = _clamps_from_steps(xs, steps, lam, prefer_high)
                    base, lo = _trim(lo_heap, False, jumps, base, -lam, prefer_high)
                    neg_top, hi = _trim(hi_heap, True, jumps, neg_top, -lam, not prefer_high)
                    assert (lo, hi) == expected
                    steps = list(accumulate((jumps[x] for x in sorted(jumps)), initial=base))
                    assert all(a <= b for a, b in zip(steps, steps[1:]))
                    assert all(-lam <= v <= lam for v in steps)
                    assert steps[-1] == -neg_top
                    if lo is not None and hi is not None:
                        assert lo <= hi
                    x = F(rng.randint(-4, 4))
                    base, neg_top = base - tau, neg_top + tau - 1
                    if x not in jumps:
                        heapq.heappush(lo_heap, x)
                        heapq.heappush(hi_heap, -x)
                    jumps[x] = jumps.get(x, 0) + 1


class TestFloatPath:
    def test_matches_exact_on_generic_data(self):
        rng = random.Random(20)
        for _ in range(30):
            n = rng.randint(1, 50)
            y = [rng.gauss(0, 1) for _ in range(n)]
            tau, lam = 0.3, 0.7
            theta = fit_float(y, tau, lam)
            assert certify_float(y, theta, tau, lam, 1e-9)

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

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            fit_float([1.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            fit_float([1.0], 0.5, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError):
            fit_float([1.0, bad, 2.0], 0.5, 1.0)
        with pytest.raises(ValueError):
            certify_float([1.0, bad, 2.0], [2.0, 2.0, 2.0], 0.5, 1.0)
        with pytest.raises(ValueError):
            certify_float([1.0, 2.0, 3.0], [2.0, bad, 2.0], 0.5, 1.0)
        with pytest.raises(ValueError):
            fit_float([1.0, 2.0], 0.5, bad)
        with pytest.raises(ValueError):
            certify_float([1.0, 2.0], [1.5, 1.5], 0.5, bad)
        with pytest.raises(ValueError):
            certify_float([1.0, 2.0], [1.5, 1.5], bad, 1.0)
        with pytest.raises(ValueError):
            certify_float([1.0, 2.0], [5.0, 5.0], 0.5, 1.0, bad)

    def test_certify_float_rejects_suboptimal(self):
        y = [0.0, 10.0]
        theta = fit_float(y, 0.5, 0.25)
        bad = [theta[0] + 5.0, theta[1]]
        assert not certify_float(y, bad, 0.5, 0.25, 1e-9)

    def test_certify_float_tolerance_is_relative_to_data(self):
        # an absolute 1e-8 would swallow the whole data scale here
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
