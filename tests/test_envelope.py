import math
import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import grid_oracle, naive_envelope, random_instance

from qtvd.envelope import (
    SOFT_CAP,
    envelope,
    lower_envelope_at,
    reflection_check,
    upper_envelope_at,
)
from qtvd.intervals import NEG_INF, POS_INF
from qtvd.solver import Instance, fit

F = Fraction


def finite(values):
    return tuple(v.finite_value() for v in values)


def plain(values):
    """ExtendedValues as Fractions and +-math.inf, the encoding of `naive_envelope`."""
    return [v.finite_value() if v.tag == 0 else v.tag * math.inf for v in values]


class TestPointwiseValues:
    def test_lambda_zero_pins_to_data(self):
        y = (F(1), F(-2), F(5, 2))
        for i in range(1, 4):
            assert upper_envelope_at(y, F(1, 3), F(0), i).finite_value() == y[i - 1]
            assert lower_envelope_at(y, F(1, 3), F(0), i).finite_value() == y[i - 1]

    def test_constant_data(self):
        y = (F(7, 3),) * 5
        env = envelope(y, F(2, 3), F(9))
        assert finite(env.lower) == y
        assert finite(env.upper) == y

    def test_reference_instance_against_oracle(self):
        inst = Instance((1, 3, 2), F(1, 2), F(1, 4))
        _, lower, upper = grid_oracle(inst)
        assert upper_envelope_at(inst.y, inst.tau, inst.lam, 2).finite_value() == upper[1]
        assert lower_envelope_at(inst.y, inst.tau, inst.lam, 2).finite_value() == lower[1]

    def test_single_point(self):
        env = envelope((F(5),), F(3, 10), F(2))
        assert finite(env.lower) == (5,) and finite(env.upper) == (5,)

    def test_tau_zero_with_penalty(self):
        y = (F(4), F(-1), F(2), F(2))
        env = envelope(y, F(0), F(3, 2))
        assert all(v == NEG_INF for v in env.lower)
        assert all(v.finite_value() == -1 for v in env.upper)

    def test_tau_one_with_penalty(self):
        y = (F(4), F(-1), F(2), F(2))
        env = envelope(y, F(1), F(3, 2))
        assert all(v == POS_INF for v in env.upper)
        assert all(v.finite_value() == 4 for v in env.lower)

    def test_random_instance_matches_oracle(self):
        rng = random.Random(99)
        for _ in range(30):
            inst = random_instance(rng, 6, value_span=2, denominators=(1, 2))
            _, lower, upper = grid_oracle(inst)
            env = envelope(inst.y, inst.tau, inst.lam)
            assert finite(env.lower) == lower
            assert finite(env.upper) == upper


class TestAgainstNaiveEnumeration:
    def test_matches_literal_formula(self):
        rng = random.Random(123)
        for _ in range(40):
            inst = random_instance(rng, 9)
            env = envelope(inst.y, inst.tau, inst.lam)
            ref_l, ref_u = naive_envelope(inst.y, inst.tau, inst.lam)
            assert plain(env.lower) == ref_l
            assert plain(env.upper) == ref_u

    def test_matches_literal_formula_at_degenerate_levels(self):
        rng = random.Random(124)
        for tau in (F(0), F(1)):
            for _ in range(8):
                n = rng.randint(1, 7)
                y = tuple(F(rng.randint(-3, 3)) for _ in range(n))
                lam = F(rng.randint(0, 5), 2)
                env = envelope(y, tau, lam)
                ref_l, ref_u = naive_envelope(y, tau, lam)
                assert plain(env.lower) == ref_l
                assert plain(env.upper) == ref_u

    @pytest.mark.parametrize("tau", [F(0), F(1, 2), F(1)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_literal_formula_at_smallest_sizes(self, n, tau):
        for y in product((F(-1), F(0), F(1)), repeat=n):
            for lam in (F(0), F(1, 4), F(1, 2), F(1), F(3)):
                env = envelope(y, tau, lam)
                ref_l, ref_u = naive_envelope(y, tau, lam)
                assert plain(env.lower) == ref_l
                assert plain(env.upper) == ref_u

    @pytest.mark.parametrize("tau", [F(1, 2), F(1, 10**20 + 1)])
    @pytest.mark.parametrize("lam", [F(10**30), F(10**25, 3)])
    def test_matches_literal_formula_on_a_huge_lattice(self, lam, tau):
        # tau*D*m and lam*D*c2 are far past int64, so the selection indices must stay Python ints
        rng = random.Random(125)
        for n in range(1, 6):
            for _ in range(3):
                y = tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n))
                env = envelope(y, tau, lam)
                ref_l, ref_u = naive_envelope(y, tau, lam)
                assert plain(env.lower) == ref_l
                assert plain(env.upper) == ref_u


class TestStructure:
    def test_sandwich_and_attainment(self):
        rng = random.Random(7)
        for _ in range(25):
            inst = random_instance(rng, 14)
            env = envelope(inst.y, inst.tau, inst.lam)
            lo = fit(inst, "lower").theta
            up = fit(inst, "upper").theta
            anyf = fit(inst, "any").theta
            assert finite(env.lower) == lo
            assert finite(env.upper) == up
            assert all(a <= b <= c for a, b, c in zip(lo, anyf, up))

    @pytest.mark.parametrize("n", [65, 100])
    def test_extremal_fits_beyond_soft_cap(self, n):
        inst = random_instance(random.Random(n), n, n_min=n)
        env = envelope(inst.y, inst.tau, inst.lam, allow_large_n=True)
        assert finite(env.lower) == fit(inst, "lower").theta
        assert finite(env.upper) == fit(inst, "upper").theta

    def test_one_side_queries_match_the_two_side_build(self):
        rng = random.Random(126)
        for _ in range(30):
            inst = random_instance(rng, 20)
            env = envelope(inst.y, inst.tau, inst.lam)
            for i in range(1, inst.n + 1):
                assert upper_envelope_at(inst.y, inst.tau, inst.lam, i) == env.upper[i - 1]
                assert lower_envelope_at(inst.y, inst.tau, inst.lam, i) == env.lower[i - 1]

    def test_membership_in_data_multiset(self):
        rng = random.Random(8)
        for _ in range(25):
            inst = random_instance(rng, 10)
            env = envelope(inst.y, inst.tau, inst.lam)
            for v in env.lower + env.upper:
                assert v.finite_value() in inst.y

    def test_envelopes_ordered_across_levels(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(1, 12)
            y = tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n))
            lam = F(rng.randint(0, 8), 4)
            t1, t2 = sorted(rng.sample([F(k, 10) for k in range(1, 10)], 2))
            env1 = envelope(y, t1, lam)
            env2 = envelope(y, t2, lam)
            assert all(a <= b for a, b in zip(env1.upper, env2.lower))


class TestReflection:
    def test_symmetric_example(self):
        y = (F(-2), F(-1), F(1), F(2))
        assert reflection_check(y, F(1, 2), F(1, 3))

    def test_single_zero(self):
        assert reflection_check((F(0),), F(2, 7), F(5))

    def test_fuzzed(self):
        rng = random.Random(10)
        for _ in range(40):
            inst = random_instance(rng, 8)
            assert reflection_check(inst.y, inst.tau, inst.lam)


class TestValidation:
    def test_soft_cap(self):
        y = tuple(F(i % 5) for i in range(SOFT_CAP + 1))
        with pytest.raises(ValueError):
            envelope(y, F(1, 2), F(1))
        env = envelope(y, F(1, 2), F(1), allow_large_n=True)
        assert len(env.lower) == len(env.upper) == SOFT_CAP + 1

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            envelope((F(1),), F(3, 2), F(1))
        with pytest.raises(ValueError):
            envelope((F(1),), F(1, 2), F(-1))
        with pytest.raises(ValueError):
            envelope((), F(1, 2), F(1))

    def test_rejects_location_outside_data(self):
        for i in (0, 3):
            with pytest.raises(ValueError):
                upper_envelope_at((F(1), F(2)), F(1, 2), F(1), i)
            with pytest.raises(ValueError):
                lower_envelope_at((F(1), F(2)), F(1, 2), F(1), i)

    def test_rejects_float_data(self):
        with pytest.raises(TypeError):
            envelope((0.5, 1.5), F(1, 2), F(1))
