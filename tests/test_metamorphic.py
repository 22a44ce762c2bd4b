"""Oracle-free relations: exact properties of the problem that need no reference solver, so they run at any n.

R1, reversal: the objective is symmetric in the index order, and so are the
interval families of the pointwise bounds.  Reversed theta* gives the same
bounds (==) at location n + 1 - i, and a flagged location maps to a flagged one.
"""

import math

import numpy as np
import pytest

from qtvd.risk import HolderCusp, PiecewiseConstantSignal, RiskConstants, _boundary_regime, pointwise_bounds


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
