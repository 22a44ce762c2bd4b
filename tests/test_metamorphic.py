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
"""

import math
import random
from fractions import Fraction
from operator import le

import numpy as np
import pytest

from qtvd.envelope import envelope, lower_envelope_at, upper_envelope_at
from qtvd.intervals import ExtendedValue
from qtvd.risk import HolderCusp, PiecewiseConstantSignal, RiskConstants, _boundary_regime, pointwise_bounds
from qtvd.solver import Instance, certify, certify_float, fit, fit_float

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


def _phi(value: ExtendedValue) -> ExtendedValue:
    """v**3 + v + 1/7 of a finite value, strictly increasing and not affine; infinities stay."""
    return ExtendedValue(0, value.value**3 + value.value + F(1, 7)) if value.tag == 0 else value


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
            got, got_points = _ends([_phi(ExtendedValue(0, v)).value for v in y], tau, lam, locations)
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
