import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_oracle, naive_envelope, random_instance

from qtvd.envelope import (
    SOFT_CAP,
    _RankTables,
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

    @pytest.mark.parametrize("tau", [F(0), F(1)])
    @pytest.mark.parametrize("lam", [F(0), F(5, 2)])
    def test_degenerate_levels_at_ten_thousand(self, tau, lam):
        # The closed forms build no tables, so they need no allow_large_n at any n
        rng = random.Random(10**4)
        y = tuple(F(rng.randint(-50, 50), rng.choice((1, 2, 7))) for _ in range(10**4))
        finite = list(y) if lam == 0 else [min(y) if tau == 0 else max(y)] * len(y)
        infinite = [-math.inf if tau == 0 else math.inf] * len(y)
        lower, upper = (infinite, finite) if tau == 0 else (finite, infinite)
        env = envelope(y, tau, lam)
        assert plain(env.lower) == lower and plain(env.upper) == upper
        for i in (1, 5000, 10**4):
            assert plain([lower_envelope_at(y, tau, lam, i), upper_envelope_at(y, tau, lam, i)]) == [
                lower[i - 1], upper[i - 1]]

    def test_random_instance_matches_oracle(self):
        rng = random.Random(99)
        for _ in range(30):
            inst = random_instance(rng, 6, value_span=2, denominators=(1, 2))
            _, lower, upper = grid_oracle(inst)
            env = envelope(inst.y, inst.tau, inst.lam)
            assert finite(env.lower) == lower
            assert finite(env.upper) == upper


@st.composite
def _point_case(draw):
    """y with n <= 40, tau in {0, 1} or non-dyadic, and lam = 0 or not."""
    n = draw(st.integers(1, 40))
    y = draw(st.lists(st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3))), min_size=n, max_size=n))
    tau = draw(st.sampled_from((F(0), F(1), F(1, 3), F(2, 7), F(7, 10), F(5, 9))))
    lam = draw(st.one_of(st.just(F(0)), st.builds(F, st.integers(0, 60), st.sampled_from((1, 2, 3, 4)))))
    return tuple(y), tau, lam


class TestPointQueries:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_point_case())
    def test_point_queries_equal_the_envelope(self, case):
        # i = 1 and i = n read the row and column that the boundary constants patch in
        y, tau, lam = case
        env = envelope(y, tau, lam)
        for i in range(1, len(y) + 1):
            assert upper_envelope_at(y, tau, lam, i) == env.upper[i - 1]
            assert lower_envelope_at(y, tau, lam, i) == env.lower[i - 1]

    def test_point_queries_beyond_soft_cap_match_the_extremal_fits(self):
        inst = random_instance(random.Random(100), 100, n_min=100, taus=(F(1, 3), F(2, 7)), lams=(F(5, 2), F(7)))
        lower, upper = fit(inst, "lower").theta, fit(inst, "upper").theta
        for i in (1, 50, 100):
            assert upper_envelope_at(inst.y, inst.tau, inst.lam, i, allow_large_n=True).finite_value() == upper[i - 1]
            assert lower_envelope_at(inst.y, inst.tau, inst.lam, i, allow_large_n=True).finite_value() == lower[i - 1]

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_tables_at_i_equal_the_full_tables_on_windows_containing_i(self, side):
        rng = random.Random(127)
        for tau in (F(0), F(1), F(1, 3), F(7, 10)):
            for _ in range(5):
                n = rng.randint(1, 12)
                y = tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n))
                ranked = _RankTables(y, tau, F(rng.randint(0, 12), rng.choice((1, 2, 4))), False)
                full = ranked.tables(side)
                for i in range(1, n + 1):
                    # windows [a:b] with a <= i <= b sit at [a-1, b-1] with a-1 < i and b-1 >= i-1
                    assert (ranked.tables(side, at=i)[..., :i, i - 1 :] == full[..., :i, i - 1 :]).all()

    @pytest.mark.parametrize("sides", [("upper",), ("lower",), ("lower", "upper")])
    def test_classes_avoiding_the_right_end_lie_below_their_sharing_twins(self, sides):
        # On one I, FF <= FT <= TT and FF <= TF <= TT, the lower side negated: the selected index is
        # monotone in c2, and avoiding an end of J raises c2.  The sweep, the point query's fold and
        # `_min_max` all fold at J's own index and are exact only because of this.  The whole table is
        # compared, so the patched row a = 1 (last) and column b = n (last) are too, at every `at`;
        # lam = 10**30/7 puts the selection indices past int64.
        rng = random.Random(128)
        for tau in (F(0), F(1), F(1, 3), F(7, 10)):
            for lam in (F(0), F(rng.randint(1, 12), rng.choice((1, 2, 4))), F(10**30, 7)):
                for n in (rng.randint(1, 12), rng.randint(13, 40)):
                    y = tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n))
                    ranked = _RankTables(y, tau, lam, False)
                    for at in (None, *range(1, n + 1)):
                        table = ranked.classes(*sides, at=at)
                        assert (table[:, 1:3] <= table[:, ::3]).all()
                        assert (table[:, :2] <= table[:, 3:1:-1]).all()


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

    def test_matches_literal_formula_on_data_past_int64(self):
        # The data's scaled ints pass int64 with both signs, and some values differ by less than a double resolves.
        rng = random.Random(126)
        for n in range(1, 9):
            y = tuple(F(rng.randint(-3, 3) * 10**30 + rng.randint(-2, 2), rng.choice((1, 3**45))) for _ in range(n))
            tau, lam = F(rng.randint(1, 9), 10), F(rng.randint(0, 6), 2)
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

    @pytest.mark.parametrize("n", [65, 100, 200])
    def test_extremal_fits_beyond_soft_cap(self, n):
        inst = random_instance(random.Random(n), n, n_min=n)
        env = envelope(inst.y, inst.tau, inst.lam, allow_large_n=True)
        lower, upper = fit(inst, "lower").theta, fit(inst, "upper").theta
        assert finite(env.lower) == lower
        assert finite(env.upper) == upper
        for i in (1, n // 2, n):
            assert upper_envelope_at(inst.y, inst.tau, inst.lam, i, allow_large_n=True).finite_value() == upper[i - 1]
            assert lower_envelope_at(inst.y, inst.tau, inst.lam, i, allow_large_n=True).finite_value() == lower[i - 1]

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


class TestRankWidth:
    @pytest.mark.parametrize("distinct, dtype", [(32767, np.int16), (32768, np.int32)])
    def test_ranks_widen_past_int16(self, distinct, dtype):
        # The +inf sentinel is rank len(uniq) and the lower side negates ranks; only the constructor runs
        assert _RankTables(range(distinct), F(1, 2), 0, True).ranks.dtype == dtype

    def test_ranks_past_eight_bits_match_the_extremal_fits(self):
        # 140 distinct values: ranks and the +inf sentinel pass 127, the largest int8; L < U at 54 locations
        inst = Instance(tuple(F(v, 3) for v in random.Random(140).sample(range(-400, 400), 140)), F(1, 2), F(3, 2))
        assert _RankTables(inst.y, inst.tau, inst.lam, True).tables("lower", "upper").dtype == np.int16
        env = envelope(inst.y, inst.tau, inst.lam, allow_large_n=True)
        lower, upper = fit(inst, "lower").theta, fit(inst, "upper").theta
        assert finite(env.lower) == lower and finite(env.upper) == upper
        for i in (1, 70, 140):
            assert upper_envelope_at(inst.y, inst.tau, inst.lam, i, allow_large_n=True).finite_value() == upper[i - 1]
            assert lower_envelope_at(inst.y, inst.tau, inst.lam, i, allow_large_n=True).finite_value() == lower[i - 1]


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
        # Only library callers meet the cap: `qtvd envelope` passes allow_large_n=True where it enumerates
        cap = f"^n={SOFT_CAP + 1} exceeds the envelope enumeration cap {SOFT_CAP}; override with allow_large_n=True$"
        with pytest.raises(ValueError, match=cap):
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

    @pytest.mark.parametrize("query", [upper_envelope_at, lower_envelope_at])
    def test_location_must_be_an_integer(self, query):
        y = (F(1), F(3), F(2))
        for bad in (2.5, 3.0):
            with pytest.raises(ValueError, match=f"location {bad} is not an integer"):
                query(y, F(1, 2), F(1), bad)
        assert query(y, F(1, 2), F(1), np.int64(2)) == query(y, F(1, 2), F(1), 2)

    def test_rejects_float_data(self):
        with pytest.raises(TypeError):
            envelope((0.5, 1.5), F(1, 2), F(1))
