"""Oracle-free relations: exact properties of the problem that need no reference solver, so they run at any n.

R1, reversal: the objective is symmetric in the index order, and so are the
interval families of the pointwise bounds.  Reversed y gives the reversed
envelopes.  Reversed theta* gives the same bounds (==) at location n + 1 - i,
and a flagged location maps to a flagged one.  `certify` accepts the reversed
extremal fits of reversed y, and rejects a fit moved off the solution set
at one coordinate both as it is and reversed.

R2, strictly increasing relabelling: L_i and U_i are order statistics selected
by ranks and interval lengths alone (the min-max formula), so for a strictly
increasing phi both envelopes of phi(y) are phi of those of y; -inf and +inf stay.

R3, comparison: y <= y' coordinatewise gives L <= L' and U <= U', the monotone
comparative statics of a submodular objective (Topkis, Oper. Res. 1978).

R4, large lam: every partial sum of a dual g lies within (n - 1)*max(tau, 1 - tau)
of 0, so lam >= n*max(tau, 1 - tau) leaves every edge slack and both ends constant.

The extremal fits are L and U, so R1-R4 hold for `fit` and `fit_float` too:
through Hypothesis at n <= 40, and on one seeded case each at n = 10^4 (exact)
and 2^15 (float), where each end is also certified at the lam as posed.
"""

import math
import random
from fractions import Fraction
from operator import le

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtvd.envelope import envelope, lower_envelope_at, upper_envelope_at
from qtvd.intervals import ExtendedValue
from qtvd.risk import HolderCusp, PiecewiseConstantSignal, RiskConstants, _boundary_regime, pointwise_bounds
from qtvd.solver import Instance, certify, certify_float, fit, fit_float, objective_value

F = Fraction


def _envelope_cases(seed: int, count: int):
    """(y, tau, lam, locations, rng) with n <= 40, tau in {0, 1} or not, and lam 0, small or past int64."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 40)
        y = [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)]
        tau = rng.choice((F(0), F(1), F(1, 2), F(1, 3), F(7, 10), F(rng.randint(1, 99), 100)))
        lam = rng.choice((F(0), F(3, 7), F(10**30, 7), F(rng.randint(1, 40), rng.choice((1, 2, 4)))))
        yield y, tau, lam, sorted({1, n, rng.randint(1, n)}), rng


def _ends(y, tau, lam, locations, **kw) -> tuple:
    """(envelope, [(L_i, U_i) of the point queries at each location i])."""
    return envelope(y, tau, lam, **kw), [
        (lower_envelope_at(y, tau, lam, i, **kw), upper_envelope_at(y, tau, lam, i, **kw)) for i in locations]


def _cubic(v: Fraction) -> Fraction:
    """v**3 + v + 1/7: strictly increasing and not affine."""
    return v**3 + v + F(1, 7)


def _phi(value: ExtendedValue) -> ExtendedValue:
    """`_cubic` of a finite value; infinities stay."""
    return ExtendedValue(0, _cubic(value.value)) if value.tag == 0 else value


class TestEnvelopeRelations:
    def test_reversal(self):
        for y, tau, lam, locations, _ in _envelope_cases(381, 100):
            env, points = _ends(y, tau, lam, locations)
            rev, rev_points = _ends(y[::-1], tau, lam, [len(y) + 1 - i for i in locations])
            assert (rev.lower, rev.upper) == (env.lower[::-1], env.upper[::-1])
            assert rev_points == points

    def test_reversal_at_128(self):
        rng = random.Random(128)
        y = [F(rng.randint(-20, 20), rng.choice((1, 3))) for _ in range(128)]
        env, points = _ends(y, F(1, 3), F(5, 2), [1, 64, 128], allow_large_n=True)
        rev, rev_points = _ends(y[::-1], F(1, 3), F(5, 2), [128, 65, 1], allow_large_n=True)
        assert (rev.lower, rev.upper) == (env.lower[::-1], env.upper[::-1])
        assert rev_points == points
        assert env.lower != env.upper

    def test_increasing_relabelling(self):
        for y, tau, lam, locations, _ in _envelope_cases(382, 100):
            env, points = _ends(y, tau, lam, locations)
            got, got_points = _ends(list(map(_cubic, y)), tau, lam, locations)
            assert (got.lower, got.upper) == (tuple(map(_phi, env.lower)), tuple(map(_phi, env.upper)))
            assert got_points == [tuple(map(_phi, point)) for point in points]

    def test_comparison(self):
        for y, tau, lam, locations, rng in _envelope_cases(383, 100):
            env, points = _ends(y, tau, lam, locations)
            # About a quarter of the values stay, so both ties and strict increases occur
            got, got_points = _ends([v + F(rng.randint(0, 3), 2) for v in y], tau, lam, locations)
            assert all(map(le, env.lower, got.lower)) and all(map(le, env.upper, got.upper))
            assert all(a <= b and c <= d for (a, c), (b, d) in zip(points, got_points))


def assert_certify_reverses(y, tau, lam, i: int, step) -> None:
    """R1 for `certify` on exact y: the reversed ends of reversed y are accepted; each end moved
    outward by `step` > 0 at index i, off the solution set, is rejected as it is and reversed."""
    inst, rev = Instance(y, tau, lam), Instance(y[::-1], tau, lam)
    for extremality, move in (("lower", -step), ("upper", step)):
        assert certify(fit(rev, extremality).theta[::-1], inst) is not None
        theta = list(fit(inst, extremality).theta)
        theta[i] += move
        assert certify(theta, inst) is None
        assert certify(theta[::-1], rev) is None


class TestCertifyReversal:
    def test_seeded_cases(self):
        rng = random.Random(391)
        for _ in range(60):
            n = rng.randint(1, 60)
            y = [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
            tau = rng.choice((F(1, 2), F(1, 3), F(7, 10), F(rng.randint(1, 99), 100)))
            lam = rng.choice((F(0), F(3, 7), F(10**30, 7), F(rng.randint(1, 40), rng.choice((1, 2, 4)))))
            assert_certify_reverses(y, tau, lam, rng.randrange(n), F(1, rng.choice((1, 7, 10**6))))

    def test_at_ten_thousand(self):
        rng = random.Random(10**4)
        y = [F(90 * (k // 700 % 3) + rng.randint(-50, 50), rng.choice((1, 3))) for k in range(10**4)]
        assert_certify_reverses(y, F(1, 3), F(20), 5000, F(1, 9))
        floats = [float(v) for v in y]
        theta = fit_float(floats[::-1], 1 / 3, 20.0, "upper")[::-1]
        assert certify_float(floats, theta, 1 / 3, 20.0) and len(set(theta)) > 10
        theta[5000] += 1 / 9
        assert not certify_float(floats, theta, 1 / 3, 20.0)
        assert not certify_float(floats[::-1], theta[::-1], 1 / 3, 20.0)


_ENDS = ("lower", "upper")


def _fits(y, tau, lam) -> list:
    """[lower, upper] extremal fits as tuples: `fit` on Fraction data, `fit_float` on float data."""
    if isinstance(y[0], float):
        return [tuple(fit_float(y, tau, lam, end)) for end in _ENDS]
    inst = Instance(y, tau, lam)
    return [fit(inst, end).theta for end in _ENDS]


def _relabelling(y) -> dict:
    """A strictly increasing map on y's values: `_cubic` on Fractions, 4x (exact) on floats."""
    phi = (lambda v: 4 * v) if isinstance(y[0], float) else _cubic
    return {v: phi(v) for v in set(y)}


def _at_least(n: int, tau, lam):
    """The least lam' >= lam and >= n*max(tau, 1 - tau), exactly, in lam's type."""
    bound = n * max(F(tau), 1 - F(tau))
    if isinstance(lam, float):
        up = float(bound)
        bound = up if F(up) >= bound else math.nextafter(up, math.inf)
    return max(lam, bound)


def assert_fit_reversal(y, tau, lam, ends) -> None:
    assert _fits(y[::-1], tau, lam) == [theta[::-1] for theta in ends]


def assert_fit_relabelling(y, tau, lam, ends) -> None:
    phi = _relabelling(y)
    assert _fits(list(map(phi.get, y)), tau, lam) == [tuple(map(phi.get, theta)) for theta in ends]


def assert_fit_comparison(y, above, tau, lam, ends) -> None:
    assert all(map(le, y, above))
    assert all(all(map(le, theta, got)) for theta, got in zip(ends, _fits(above, tau, lam)))


def assert_large_lam_constant(y, tau, lam) -> None:
    lower, upper = _fits(y, tau, _at_least(len(y), tau, lam))
    assert len(set(lower)) == len(set(upper)) == 1 and lower[0] <= upper[0]


@st.composite
def _fit_case(draw):
    """(y, y' >= y, tau, lam) with n <= 40, y tie-heavy or nearly distinct, and lam 0, small (often on tau's
    lattice, where a derivative can stop exactly at +-lam) or past int64; as floats half the time."""
    n = draw(st.integers(1, 40))
    den, span = draw(st.sampled_from((1, 2, 3, 6))), draw(st.sampled_from((12, 10**6)))
    y = [F(k, den) for k in draw(st.lists(st.integers(-span, span), min_size=n, max_size=n))]
    # About a quarter of the values stay, so both ties and strict increases occur
    above = [v + F(k, 2) for v, k in zip(y, draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))]
    tau = draw(st.sampled_from((F(1, 2), F(1, 3), F(2, 7), F(7, 10), F(5, 9), F(1, 100))))
    lam = draw(st.sampled_from((F(0), F(10**30, 7))) | st.builds(F, st.integers(0, 8), st.just(2))
               | st.builds(F, st.integers(0, 60), st.sampled_from((1, 2, 3, 4))))
    if draw(st.booleans()):
        return [float(v) for v in y], [float(v) for v in above], float(tau), float(lam)
    return y, above, tau, lam


class TestFitRelations:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_fit_case())
    def test_r1_to_r4(self, case):
        y, above, tau, lam = case
        ends = _fits(y, tau, lam)
        assert_fit_reversal(y, tau, lam, ends)
        assert_fit_relabelling(y, tau, lam, ends)
        assert_fit_comparison(y, above, tau, lam, ends)
        assert_large_lam_constant(y, tau, lam)

    def test_seeded_distinct_data(self):
        # Nearly distinct data and a small lam on tau's lattice: there a derivative stretch can stop exactly at
        # -lam or +lam, which a one-way pass with one tie rule must resolve the same way in both directions
        rng = random.Random(401)
        for _ in range(300):
            n = rng.randint(1, 40)
            y = [F(rng.randint(0, 10**6)) for _ in range(n)]
            above = [v + rng.choice((0, 1, 10**5)) for v in y]
            tau, lam = rng.choice((F(1, 2), F(1, 3), F(3, 5), F(3, 4), F(1, 10))), F(rng.randint(0, 8), 2)
            ends = _fits(y, tau, lam)
            assert_fit_reversal(y, tau, lam, ends)
            assert_fit_comparison(y, above, tau, lam, ends)


class TestFitRelationsAtScale:
    """One seeded case per relation: exact at n = 10^4 with lam off tau's lattice, `fit_float` at n = 2^15."""

    @pytest.fixture(scope="class", params=["exact", "float"])
    def case(self, request):
        """(y, y' >= y, tau, lam, [lower, upper] of y) on step data with ties and a wide solution set."""
        n = 10**4 if request.param == "exact" else 2**15
        rng = random.Random(n)
        y = [F(90 * (k // 700 % 3) + rng.randint(-50, 50), rng.choice((1, 3))) for k in range(n)]
        above = [v + rng.choice((0, 0, F(1, 3), 7)) for v in y]
        tau, lam = F(1, 3), F(200, 7)
        if request.param == "float":
            y, above, tau, lam = [float(v) for v in y], [float(v) for v in above], 0.25, 20.5
        ends = _fits(y, tau, lam)
        assert sum(a != b for a, b in zip(*ends)) > n // 20
        return y, above, tau, lam, ends

    def test_reversal(self, case):
        y, _, tau, lam, ends = case
        assert_fit_reversal(y, tau, lam, ends)

    def test_increasing_relabelling(self, case):
        y, _, tau, lam, ends = case
        assert_fit_relabelling(y, tau, lam, ends)

    def test_comparison(self, case):
        y, above, tau, lam, ends = case
        assert_fit_comparison(y, above, tau, lam, ends)

    def test_large_lam_gives_constant_ends(self, case):
        y, _, tau, lam, _ = case
        assert_large_lam_constant(y, tau, lam)

    def test_ends_certified_with_equal_objectives(self, case):
        y, _, tau, lam, (lower, upper) = case
        if isinstance(y[0], float):
            assert certify_float(y, lower, tau, lam) and certify_float(y, upper, tau, lam)
            inst, lower, upper = Instance(list(map(F, y)), F(tau), F(lam)), list(map(F, lower)), list(map(F, upper))
        else:
            inst = Instance(y, tau, lam)
            assert certify(lower, inst) is not None and certify(upper, inst) is not None
        assert objective_value(lower, inst) == objective_value(upper, inst)


def _mirrored(i: int, n: int, C1: float) -> bool:
    """True iff location i's boundary regime is the mirror image of location n + 1 - i's.

    The regimes are i < C1*log n and i > n - C1*log n, distances to the ends
    of the design [0, 1] at x_i = i/n, so they are not mirrors in the index:
    the one location with t <= i < t + 1 is interior while n + 1 - i is near
    the right end.  Only there, and at its mirror, may R1 fail.
    """
    _, left, right = _boundary_regime(i, n, C1)
    _, mirror_left, mirror_right = _boundary_regime(n + 1 - i, n, C1)
    return (left, right) == (mirror_right, mirror_left)


def assert_bounds_reverse(theta, tau, lam, const, locations) -> tuple:
    """Assert R1 at every location whose regime mirrors; (locations checked, of them flagged)."""
    n = len(theta)
    got = pointwise_bounds(theta, tau, lam, const, locations=locations, allow_small_lambda=True)
    rev = pointwise_bounds(theta[::-1], tau, lam, const, locations=[n + 1 - i for i in locations],
                           allow_small_lambda=True)
    checked = [k for k, i in enumerate(locations) if _mirrored(i, n, const.C1)]
    assert len(locations) - len(checked) <= 2
    for k in checked:
        i = locations[k]
        assert (got.lower[k], got.upper[k]) == (rev.lower[k], rev.upper[k]), (n, i)
        assert (i in got.flagged) == (n + 1 - i in rev.flagged), (n, i)
    return len(checked), sum(locations[k] in got.flagged for k in checked)


class TestPointwiseBoundsReversal:
    def test_seeded_cusp_step_and_random(self):
        rng = np.random.default_rng(37)
        checked = flagged = 0
        for case in range(24):
            n = int(rng.integers(2, 120))
            kind = case % 3
            if kind == 0:
                theta = HolderCusp(float(rng.choice([0.25, 0.5, 1.0])), 1.0, float(rng.random())).values(n)
            elif kind == 1:
                theta = PiecewiseConstantSignal((0.3, 0.55), (0.0, 2.0, -1.0)).values(n)
            else:
                theta = rng.normal(size=n).cumsum()
            const = RiskConstants(
                c1=float(rng.choice([0.3, 1.0, 4.0])),
                C1=float(rng.choice([0.0, 0.5, 1.0, 3.0])),
                c_tilde=float(rng.choice([1.0, 4.0])),
            )
            tau, lam = float(rng.choice([0.2, 1 / 3, 0.85])), float(rng.choice([0.5, 2.0, 7.5]))
            seen = assert_bounds_reverse(theta, tau, lam, const, list(range(1, n + 1)))
            checked, flagged = checked + seen[0], flagged + seen[1]
        assert 0 < flagged < checked // 2  # both bounded and flagged locations are compared

    def test_at_ten_thousand(self):
        n = 10**4
        theta = HolderCusp(0.5, 1.0, 0.3).values(n) + np.random.default_rng(10**4).normal(size=n).cumsum() / 100
        const = RiskConstants(c1=1.0, C1=1.0)
        t = const.C1 * math.log(n)
        locations = [1, 5, math.ceil(t) + 1, 3000, 5000, 7001, n - 3, n]
        checked, flagged = assert_bounds_reverse(theta, 0.3, 30.0, const, locations)
        assert (checked, flagged) == (len(locations), 0)

    @pytest.mark.parametrize("C1", [0.5, 1.0, 3.0])
    def test_unmirrored_locations_are_one_per_side(self, C1):
        n = 64
        t = C1 * math.log(n)
        assert [i for i in range(1, n + 1) if not _mirrored(i, n, C1)] == [math.ceil(t), n + 1 - math.ceil(t)]
