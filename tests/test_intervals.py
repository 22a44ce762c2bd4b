import math
import operator
import random
from fractions import Fraction

import pytest

from helpers import BOUNDARY_CASES, adjusted_levels, order_stat

from qtvd.envelope import _RankTables
from qtvd.intervals import (
    DiscreteInterval,
    ExtendedValue,
    NEG_INF,
    POS_INF,
    boundary_constant,
)

F = Fraction
I = DiscreteInterval


class TestOrderStat:  # the reference oracle's convention, and the envelope's rank tables against it
    def test_middle_of_three(self):
        assert order_stat((3, 1, 2), 1, 3, 2) == 2

    def test_index_past_length_is_pos_inf(self):
        assert order_stat((3, 1, 2), 1, 3, 4) == math.inf

    def test_index_zero_is_neg_inf(self):
        assert order_stat((3, 1, 2), 2, 3, 0) == -math.inf

    def test_total_over_all_integers(self):
        for k in range(-3, 8):
            v = order_stat((5, 5, 1), 1, 3, k)
            if k <= 0:
                assert v == -math.inf
            elif k >= 4:
                assert v == math.inf
            else:
                assert math.isfinite(v)

    def test_ties_counted_with_multiplicity(self):
        y = (2, 2, 1)
        assert [order_stat(y, 1, 3, k) for k in (1, 2, 3)] == [1, 2, 2]

    def test_monotone_in_k(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(1, 8)
            y = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
            a = rng.randint(1, n)
            b = rng.randint(a, n)
            vals = [order_stat(y, a, b, k) for k in range(-1, b - a + 4)]
            assert all(u <= v for u, v in zip(vals, vals[1:]))

    def test_reflection_identity(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 8)
            y = [F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
            neg = [-v for v in y]
            a = rng.randint(1, n)
            b = rng.randint(a, n)
            m = b - a + 1
            k = rng.randint(-2, m + 3)
            assert order_stat(neg, a, b, m - k + 1) == -order_stat(y, a, b, k)

    def test_interval_outside_data_rejected(self):
        with pytest.raises(ValueError):
            order_stat((1, 2), 1, 3, 1)

    def test_cache_matches_plain_sort(self):
        # the envelope's selected-rank tables, the one order-statistic cache in the package
        rng = random.Random(2)
        y = [F(rng.randint(-5, 5), rng.choice((1, 3))) for _ in range(12)]
        tau, lam = F(2, 5), F(3, 4)
        ranked = _RankTables(y, tau, lam, allow_large_n=False)
        ext = {-1: -math.inf, len(ranked.uniq): math.inf, **dict(enumerate(ranked.uniq))}
        upper, lower = ranked.tables("upper", "lower")
        for c2 in range(-2, 3):
            for a in range(1, 13):
                for b in range(a, 13):
                    u, l = tau * (b - a + 1) - lam * c2, tau * (b - a + 1) + lam * c2
                    assert ext[upper[c2 + 2, a - 1, b - 1]] == order_stat(y, a, b, math.floor(u) + 1)
                    assert ext[lower[c2 + 2, a - 1, b - 1]] == order_stat(y, a, b, math.ceil(l))


class TestBoundaryConstant:
    def test_interior_strict(self):
        assert boundary_constant(I(4, 7), I(3, 8), 10) == 1

    def test_interior_equal(self):
        assert boundary_constant(I(3, 8), I(3, 8), 10) == -1

    def test_full_line_equal(self):
        assert boundary_constant(I(1, 10), I(1, 10), 10) == 0

    def test_left_touching_shares_left(self):
        assert boundary_constant(I(1, 4), I(1, 6), 10) == F(1, 2)

    def test_left_touching_table(self):
        n = 10
        J = I(1, 6)
        assert boundary_constant(I(2, 5), J, n) == 1
        assert boundary_constant(I(1, 6), J, n) == F(-1, 2)
        assert boundary_constant(I(2, 6), J, n) == 0

    def test_right_touching_table(self):
        n = 10
        J = I(5, 10)
        assert boundary_constant(I(6, 9), J, n) == 1
        assert boundary_constant(I(5, 10), J, n) == F(-1, 2)
        assert boundary_constant(I(6, 10), J, n) == F(1, 2)
        assert boundary_constant(I(5, 9), J, n) == 0

    def test_full_line_table(self):
        n = 6
        J = I(1, 6)
        assert boundary_constant(I(2, 5), J, n) == 1
        assert boundary_constant(I(1, 3), J, n) == F(1, 2)
        assert boundary_constant(I(4, 6), J, n) == F(1, 2)

    def test_not_nested_rejected(self):
        with pytest.raises(ValueError):
            boundary_constant(I(1, 5), I(2, 6), 10)

    def test_fuzz_stays_in_five_value_set(self):
        rng = random.Random(3)
        for _ in range(3000):
            n = rng.randint(1, 30)
            j1 = rng.randint(1, n)
            j2 = rng.randint(j1, n)
            s = rng.randint(j1, j2)
            t = rng.randint(s, j2)
            expected = BOUNDARY_CASES[j1 == 1, j2 == n][s == j1, t == j2]
            assert boundary_constant(I(s, t), I(j1, j2), n) == expected
            assert expected in {-1, F(-1, 2), 0, F(1, 2), 1}


class TestAdjustedLevels:  # the reference oracle's levels, from its case table of C_{I,J}
    def test_direct_arithmetic(self):
        # |I| = 4, C = 1 inside an interior J
        assert adjusted_levels((3, 6), (2, 9), F(1, 2), F(1), 10) == (0, 4)

    def test_lambda_zero_kills_adjustment(self):
        u, l = adjusted_levels((2, 4), (1, 5), F(3, 10), F(0), 10)
        assert u == l == F(3, 10) * 3

    def test_equal_intervals_interior(self):
        # |I| = 2, C = -1
        assert adjusted_levels((2, 3), (2, 3), F(3, 4), F(1, 2), 10) == (F(5, 2), F(1, 2))

    def test_sum_identity_fuzz(self):
        rng = random.Random(4)
        for _ in range(500):
            n = rng.randint(1, 20)
            j1 = rng.randint(1, n)
            j2 = rng.randint(j1, n)
            s = rng.randint(j1, j2)
            t = rng.randint(s, j2)
            tau = F(rng.randint(0, 12), 12)
            lam = F(rng.randint(0, 9), rng.choice((1, 2, 3)))
            u, l = adjusted_levels((s, t), (j1, j2), tau, lam, n)
            assert u + l == 2 * tau * (t - s + 1)
            assert l - u == 4 * lam * boundary_constant(I(s, t), I(j1, j2), n)

    def test_rejects_bad_tau_and_lam(self):
        with pytest.raises(ValueError):
            adjusted_levels((1, 2), (1, 3), F(3, 2), F(1), 5)
        with pytest.raises(ValueError):
            adjusted_levels((1, 2), (1, 3), F(1, 2), F(-1), 5)


class TestFloorCeil:  # of the adjusted levels, exact on Fractions
    def test_examples(self):
        assert math.floor(F(7, 2)) == 3
        assert math.ceil(F(2)) == 2
        assert math.floor(F(-1, 2)) == -1

    def test_antisymmetry_floor_ceil_relation(self):
        # |I| - floor(l') >= ceil(|I| - l') with l' = (1-tau)|I| - 2*lam*C
        rng = random.Random(5)
        for _ in range(500):
            m = rng.randint(1, 20)
            tau = F(rng.randint(0, 10), 10)
            lam = F(rng.randint(0, 8), rng.choice((1, 2, 4)))
            c = F(rng.choice((-2, -1, 0, 1, 2)), 2)
            lprime = (1 - tau) * m - 2 * lam * c
            assert m - math.floor(lprime) >= math.ceil(m - lprime)


class TestExtendedValue:
    def test_total_order(self):
        fin = ExtendedValue.finite(F(1, 3))
        assert NEG_INF < fin < POS_INF
        assert ExtendedValue.finite(0) < fin
        assert not NEG_INF < NEG_INF

    @pytest.mark.filterwarnings("error")
    def test_all_four_orderings_and_mixed_types(self):
        fin = ExtendedValue.finite(1)
        assert POS_INF > fin > NEG_INF and POS_INF >= fin >= NEG_INF
        assert fin >= ExtendedValue.finite(1) and not fin > ExtendedValue.finite(1)
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(fin, 5)
            with pytest.raises(TypeError):
                compare(5, fin)

    def test_negation_swaps_infinities(self):
        assert -POS_INF == NEG_INF
        assert -NEG_INF == POS_INF
        assert -ExtendedValue.finite(F(2, 5)) == ExtendedValue.finite(F(-2, 5))

    def test_hash_and_equality(self):
        assert len({POS_INF, ExtendedValue(1), ExtendedValue.finite(1), ExtendedValue.finite(1)}) == 2

    def test_finite_value_accessor(self):
        assert ExtendedValue.finite(7).finite_value() == 7
        with pytest.raises(ValueError):
            POS_INF.finite_value()

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            ExtendedValue.finite(0.5)


class TestDiscreteInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            I(3, 2)
        with pytest.raises(ValueError):
            I(0, 2)

    def test_length_and_membership(self):
        j = I(2, 5)
        assert j.length == 4
        assert j.contains(2) and j.contains(5) and not j.contains(6)
        assert I(3, 4).within(j) and not I(1, 4).within(j)
