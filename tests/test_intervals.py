import math
import operator
import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import BOUNDARY_CASES, adjusted_levels, order_stat

from qtvd.envelope import _c2, _RankTables
from qtvd.intervals import ExtendedValue, NEG_INF, POS_INF, _as_rational

F = Fraction


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

    # together the pairs put adjusted levels on integers for every c2, where floor and ceil
    # differ by one from the rounding of a nearby level; tau in {0, 1} is included
    @pytest.mark.parametrize("tau, lam", [
        (F(2, 5), F(3, 4)), (F(1, 2), F(1, 2)), (F(1, 3), F(1)), (F(0), F(2)), (F(1), F(1, 4)), (F(3, 10), F(7, 10)),
    ])
    def test_cache_matches_plain_sort(self, tau, lam):
        # the envelope's selected-rank tables, the one order-statistic cache in the package
        rng = random.Random(2)
        y = [F(rng.randint(-5, 5), rng.choice((1, 3))) for _ in range(12)]
        ranked = _RankTables(y, tau, lam, allow_large_n=False)
        ext = {-1: -math.inf, len(ranked.uniq): math.inf, **dict(enumerate(ranked.uniq))}
        upper, lower = ranked.tables("upper", "lower")
        for c2 in range(-2, 3):
            for a in range(1, 13):
                for b in range(a, 13):
                    u, l = tau * (b - a + 1) - lam * c2, tau * (b - a + 1) + lam * c2
                    assert ext[upper[c2 + 2, a - 1, b - 1]] == order_stat(y, a, b, math.floor(u) + 1)
                    assert ext[lower[c2 + 2, a - 1, b - 1]] == order_stat(y, a, b, math.ceil(l))


class TestBoundaryConstant:  # 2*C_{I,J} = _c2(I shares J's left end, right end, J touches 1, n)
    def test_interior_strict(self):  # I = [4:7] in J = [3:8], n = 10
        assert _c2(False, False, False, False) == 2

    def test_interior_equal(self):  # I = J = [3:8], n = 10
        assert _c2(True, True, False, False) == -2

    def test_full_line_equal(self):  # I = J = [1:10], n = 10
        assert _c2(True, True, True, True) == 0

    def test_left_touching_shares_left(self):  # I = [1:4] in J = [1:6], n = 10
        assert _c2(True, False, True, False) == 1

    def test_left_touching_table(self):  # J = [1:6], n = 10
        assert _c2(False, False, True, False) == 2  # I = [2:5]
        assert _c2(True, True, True, False) == -1  # I = [1:6]
        assert _c2(False, True, True, False) == 0  # I = [2:6]

    def test_right_touching_table(self):  # J = [5:10], n = 10
        assert _c2(False, False, False, True) == 2  # I = [6:9]
        assert _c2(True, True, False, True) == -1  # I = [5:10]
        assert _c2(False, True, False, True) == 1  # I = [6:10]
        assert _c2(True, False, False, True) == 0  # I = [5:9]

    def test_full_line_table(self):  # J = [1:6], n = 6
        assert _c2(False, False, True, True) == 2  # I = [2:5]
        assert _c2(True, False, True, True) == 1  # I = [1:3]
        assert _c2(False, True, True, True) == 1  # I = [4:6]

    def test_matches_case_table_on_all_flags(self):
        for at_first, at_last, shares_left, shares_right in product((False, True), repeat=4):
            expected = BOUNDARY_CASES[at_first, at_last][shares_left, shares_right]
            assert _c2(shares_left, shares_right, at_first, at_last) == 2 * expected
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
            assert l - u == 2 * lam * _c2(s == j1, t == j2, j1 == 1, j2 == n)

    def test_rejects_bad_tau_and_lam(self):
        with pytest.raises(ValueError):
            adjusted_levels((1, 2), (1, 3), F(3, 2), F(1), 5)
        with pytest.raises(ValueError):
            adjusted_levels((1, 2), (1, 3), F(1, 2), F(-1), 5)


class TestExtendedValue:
    def test_total_order(self):
        fin = ExtendedValue(0, F(1, 3))
        assert NEG_INF < fin < POS_INF
        assert ExtendedValue(0, F(0)) < fin
        assert not NEG_INF < NEG_INF

    @pytest.mark.filterwarnings("error")
    def test_all_four_orderings_and_mixed_types(self):
        fin = ExtendedValue(0, F(1))
        assert POS_INF > fin > NEG_INF and POS_INF >= fin >= NEG_INF
        assert fin >= ExtendedValue(0, F(1)) and not fin > ExtendedValue(0, F(1))
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(fin, 5)
            with pytest.raises(TypeError):
                compare(5, fin)

    def test_negation_swaps_infinities(self):
        assert -POS_INF == NEG_INF
        assert -NEG_INF == POS_INF
        assert -ExtendedValue(0, F(2, 5)) == ExtendedValue(0, F(-2, 5))

    def test_hash_and_equality(self):
        assert len({POS_INF, ExtendedValue(1), ExtendedValue(0, F(1)), ExtendedValue(0, F(1))}) == 2

    def test_finite_value_accessor(self):
        assert ExtendedValue(0, F(7)).finite_value() == 7
        with pytest.raises(ValueError):
            POS_INF.finite_value()

    def test_floats_rejected(self):  # the coercion every exact entry point applies
        with pytest.raises(TypeError, match="must be an exact rational"):
            _as_rational(0.5, "value")
        assert _as_rational("1/3", "value") == F(1, 3)



@pytest.mark.parametrize("call, message", [
    (lambda: ExtendedValue(0), "finite ExtendedValue needs a value"),
    (lambda: ExtendedValue(2, Fraction(1)), "tag must be -1, 0 or +1"),
], ids=["finite-without-value", "bad-tag"])
def test_argument_checks_raise(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is ValueError and str(exc.value) == message
