import operator
import random
from fractions import Fraction

import pytest

from qtvd.intervals import (
    BOUNDARY_CONSTANT_VALUES,
    DiscreteInterval,
    ExtendedValue,
    NEG_INF,
    POS_INF,
    OrderStatisticCache,
    adjusted_levels,
    boundary_constant,
    ceil_index,
    floor_index,
    order_stat,
)

F = Fraction
I = DiscreteInterval


class TestOrderStat:
    def test_middle_of_three(self):
        assert order_stat((3, 1, 2), I(1, 3), 2) == ExtendedValue.finite(2)

    def test_index_past_length_is_pos_inf(self):
        assert order_stat((3, 1, 2), I(1, 3), 4) == POS_INF

    def test_index_zero_is_neg_inf(self):
        assert order_stat((3, 1, 2), I(2, 3), 0) == NEG_INF

    def test_total_over_all_integers(self):
        for k in range(-3, 8):
            v = order_stat((5, 5, 1), I(1, 3), k)
            if k <= 0:
                assert v == NEG_INF
            elif k >= 4:
                assert v == POS_INF
            else:
                assert v.is_finite

    def test_ties_counted_with_multiplicity(self):
        y = (2, 2, 1)
        assert order_stat(y, I(1, 3), 1) == ExtendedValue.finite(1)
        assert order_stat(y, I(1, 3), 2) == ExtendedValue.finite(2)
        assert order_stat(y, I(1, 3), 3) == ExtendedValue.finite(2)

    def test_monotone_in_k(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(1, 8)
            y = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
            a = rng.randint(1, n)
            b = rng.randint(a, n)
            cache = OrderStatisticCache(y)
            vals = [cache.order_stat(I(a, b), k) for k in range(-1, b - a + 4)]
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
            assert order_stat(neg, I(a, b), m - k + 1) == -order_stat(y, I(a, b), k)

    def test_interval_outside_data_rejected(self):
        with pytest.raises(ValueError):
            order_stat((1, 2), I(1, 3), 1)

    def test_cache_matches_plain_sort(self):
        rng = random.Random(2)
        y = [F(rng.randint(-5, 5)) for _ in range(12)]
        cache = OrderStatisticCache(y)
        for a in range(1, 13):
            for b in range(a, 13):
                assert cache.sorted_slice(a, b) == sorted(y[a - 1 : b])


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
            assert boundary_constant(I(s, t), I(j1, j2), n) in BOUNDARY_CONSTANT_VALUES


class TestAdjustedLevels:
    def test_direct_arithmetic(self):
        # |I| = 4, C = 1 inside an interior J
        lev = adjusted_levels(I(3, 6), I(2, 9), F(1, 2), F(1), 10)
        assert (lev.u, lev.l) == (0, 4)

    def test_lambda_zero_kills_adjustment(self):
        lev = adjusted_levels(I(2, 4), I(1, 5), F(3, 10), F(0), 10)
        assert lev.u == lev.l == F(3, 10) * 3

    def test_equal_intervals_interior(self):
        # |I| = 2, C = -1
        lev = adjusted_levels(I(2, 3), I(2, 3), F(3, 4), F(1, 2), 10)
        assert (lev.u, lev.l) == (F(5, 2), F(1, 2))

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
            lev = adjusted_levels(I(s, t), I(j1, j2), tau, lam, n)
            assert lev.u + lev.l == 2 * tau * (t - s + 1)

    def test_rejects_bad_tau_and_lam(self):
        with pytest.raises(ValueError):
            adjusted_levels(I(1, 2), I(1, 3), F(3, 2), F(1), 5)
        with pytest.raises(ValueError):
            adjusted_levels(I(1, 2), I(1, 3), F(1, 2), F(-1), 5)


class TestFloorCeil:
    def test_examples(self):
        assert floor_index(F(7, 2)) == 3
        assert ceil_index(2) == 2
        assert floor_index(F(-1, 2)) == -1

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            floor_index(0.5)
        with pytest.raises(TypeError):
            ceil_index(0.5)

    def test_antisymmetry_floor_ceil_relation(self):
        # |I| - floor(l') >= ceil(|I| - l') with l' = (1-tau)|I| - 2*lam*C
        rng = random.Random(5)
        for _ in range(500):
            m = rng.randint(1, 20)
            tau = F(rng.randint(0, 10), 10)
            lam = F(rng.randint(0, 8), rng.choice((1, 2, 4)))
            c = F(rng.choice((-2, -1, 0, 1, 2)), 2)
            lprime = (1 - tau) * m - 2 * lam * c
            assert m - floor_index(lprime) >= ceil_index(m - lprime)


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
