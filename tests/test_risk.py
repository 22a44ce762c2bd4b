import math
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from helpers import naive_center_bounds, noise_cdf

from qtvd import risk
from qtvd.risk import (
    Cauchy,
    ConstantSignal,
    Gaussian,
    HolderCusp,
    Laplace,
    ModelSpec,
    PiecewiseConstantSignal,
    RiskConstants,
    _boundary_regime,
    _dist,
    _sd,
    lambda_star,
    pointwise_bounds,
    rate_regress,
    simulate,
)


def smallest_admissible_n(constants, tau, lam_policy, x0=0.5, n_max=1 << 16):
    """Smallest n (None if none up to n_max) whose admissible family at floor(n*x0) is
    non-empty under `lam_policy(n) -> lam`: the "large enough n" of the constants chain."""
    n = 4
    while n <= n_max:
        i = min(max(int(n * x0), 1), n)
        b = pointwise_bounds([0.0] * n, tau, lam_policy(n), constants, locations=[i], allow_small_lambda=True)
        if not b.flagged:
            return n
        n += max(1, n // 8)
    return None


class TestNoise:
    @pytest.mark.parametrize("noise", [Cauchy(1.0), Gaussian(1.0), Laplace(1.0), Cauchy(0.3), Laplace(2.0)])
    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.75])
    def test_cdf_at_zero_is_tau(self, noise, tau):
        assert noise_cdf(noise, 0.0, tau) == pytest.approx(tau, abs=1e-12)

    def test_centering_frequency(self):
        # empirical fraction of draws below zero stays within 3e-3 of tau
        rng = np.random.default_rng(2024)
        for noise in (Cauchy(1.0), Gaussian(1.0), Laplace(1.0)):
            for tau in (0.25, 0.5, 0.9):
                draws = noise.sample(rng, 1_000_000, tau)
                assert abs(float(np.mean(draws < 0)) - tau) < 3e-3

    def test_cauchy_growth_constant_closed_form(self):
        const = RiskConstants.for_noise(Cauchy(1.0), 0.5, 1.0)
        assert const.delta == 1.0
        assert const.c1 == pytest.approx(1.0 / (math.pi * (1.0 + 1.0**2)), rel=1e-15)

    @pytest.mark.parametrize("noise", [Cauchy(1.0), Gaussian(1.0), Laplace(1.0)])
    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.8])
    def test_growth_condition_on_grid(self, noise, tau):
        const = RiskConstants.for_noise(noise, tau)
        c1, delta = const.c1, const.delta
        for t in np.linspace(-delta, delta, 401):
            assert abs(noise_cdf(noise, float(t), tau) - tau) >= c1 * abs(t) - 1e-12

    def test_degenerate_scale_rejected_for_constants(self):
        for noise in (Cauchy(0.0), Gaussian(0.0), Laplace(0.0)):
            with pytest.raises(ValueError):
                RiskConstants.for_noise(noise, 0.5)

    @pytest.mark.parametrize("family", [Cauchy, Gaussian, Laplace])
    @pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_scale_rejected(self, family, scale):
        with pytest.raises(ValueError):
            family(scale)

    @pytest.mark.parametrize("family", [Cauchy, Gaussian, Laplace])
    def test_families_are_frozen(self, family):
        noise = family(1.0)
        with pytest.raises(FrozenInstanceError):
            noise.extra = 1
        with pytest.raises(FrozenInstanceError):
            noise.scale = 2.0
        assert noise == family(1.0) and not hasattr(noise, "extra")

    def test_families_differ_at_equal_scale_and_show_it(self):
        families = (Cauchy(1.0), Gaussian(1.0), Laplace(1.0))
        assert len(set(families)) == 3
        assert Cauchy(1.0) != Laplace(1.0) and Gaussian(1.0) != Cauchy(1.0) and Laplace(1.0) != Gaussian(1.0)
        assert Gaussian(scale=2.0) == Gaussian(2.0)
        assert repr(Gaussian(2.0)) == "Gaussian(scale=2.0)"
        assert [repr(noise) for noise in families] == ["Cauchy(scale=1.0)", "Gaussian(scale=1.0)", "Laplace(scale=1.0)"]


class TestRiskConstants:
    @pytest.mark.parametrize(
        "fields",
        [
            {"c1": 0.0},
            {"c1": -0.1},
            {"c1": math.nan},
            {"c1": math.inf},
            {"c1": 0.2, "delta": 0.0},
            {"c1": 0.2, "delta": math.nan},
            {"c1": 0.2, "c": math.nan},
            {"c1": 0.2, "c_tilde": math.nan},
            {"c1": 0.2, "c_tilde": -1.0},
            {"c1": 0.2, "C1": math.nan},
            {"c1": 0.2, "C1": -1.0},
        ],
    )
    def test_degenerate_constants_rejected(self, fields):
        with pytest.raises(ValueError):
            RiskConstants(**fields)

    def test_boundary_values_accepted(self):
        const = RiskConstants(c1=0.2, C1=0.0, c_tilde=0.0)
        assert const.C1 == 0.0 and const.c_tilde == 0.0


class TestSignals:
    def test_holder_norm_spot_check(self):
        for alpha in (0.5, 1.0):
            sig = HolderCusp(alpha, norm=2.0, x0=0.5)
            vals = sig.values(257)
            x = np.arange(1, 258) / 257
            for a in range(0, 257, 16):
                for b in range(a + 1, 257, 16):
                    bound = 2.0 * abs(x[a] - x[b]) ** alpha
                    assert abs(vals[a] - vals[b]) <= bound + 1e-12

    def test_piecewise_constant_levels(self):
        sig = PiecewiseConstantSignal((0.5,), (1.0, 3.0))
        vals = sig.values(4)
        assert list(vals) == [1.0, 1.0, 3.0, 3.0]
        assert sig.star_lambda(4, 0.25) == lambda_star(4, 2.0, r0=0.25)

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantSignal((0.5,), (1.0,))
        with pytest.raises(ValueError):
            PiecewiseConstantSignal((0.0,), (1.0, 2.0))

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda v: ConstantSignal(v), "level"),
            (lambda v: HolderCusp(1.0, norm=v), "norm"),
            (lambda v: HolderCusp(1.0, x0=v), "x0"),
            (lambda v: PiecewiseConstantSignal((0.5,), (0.0, v)), "levels"),
        ],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, make, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make(bad)


class TestBoundPieces:
    # Bias is evaluated only inside pointwise_bounds; these pin it through the bounds.
    def test_bias_constant_signal(self):
        const = RiskConstants(c1=0.3)
        flat, zero = (pointwise_bounds(v, 0.5, 4.0, const, allow_small_lambda=True) for v in ([2.0] * 64, [0.0] * 64))
        assert flat == zero

    def test_bias_ramp(self):
        # at the left end J = [1:j2], so Bias- = 0 on an increasing signal and Bias+ > 0
        const = RiskConstants(c1=0.3)
        ramp, zero = (pointwise_bounds(v, 0.5, 4.0, const, locations=[1], allow_small_lambda=True)
                      for v in (list(range(64)), [0.0] * 64))
        assert ramp.lower == zero.lower and ramp.upper[0] > zero.upper[0]

    def test_bias_lipschitz_window(self):
        n, i = 100, 50
        const = RiskConstants(c1=0.3)
        theta = [k / n for k in range(1, n + 1)]
        b, zero = (pointwise_bounds(v, 0.5, 4.0, const, locations=[i], allow_small_lambda=True)
                   for v in (theta, [0.0] * n))
        assert 0 <= b.upper[0] - zero.upper[0] <= (n - 1 - i) / n + 1e-12
        assert 0 <= zero.lower[0] - b.lower[0] <= (i - 2) / n + 1e-12

    def test_bias_requires_membership(self):
        with pytest.raises(ValueError, match="location"):
            pointwise_bounds([1.0, 2.0, 3.0], 0.5, 1.0, RiskConstants(c1=0.2), locations=[4], allow_small_lambda=True)

    def test_dist_interior(self):
        assert _boundary_regime(50, 100, 0.5)[1:] == (False, False)
        assert _dist(50, 40, 70, False, False) == 11

    def test_dist_left_boundary_regime(self):
        assert _boundary_regime(1, 100, 1.0)[1:] == (True, False)
        assert _dist(1, 1, 30, True, False) == 30

    def test_dist_symmetric_center(self):
        assert _boundary_regime(10, 100, 0.1)[1:] == (False, False)
        assert _dist(10, 5, 15, False, False) == 6 == min(10 - 5 + 1, 15 - 10 + 1)

    def test_sd_scales_with_c_tilde(self):
        logn = math.log(100)
        assert _sd(8.0, logn, 11, 31, 5.0, 0.5) == pytest.approx(2 * _sd(4.0, logn, 11, 31, 5.0, 0.5))

    def test_sd_dominated_by_lam_over_len_for_large_lam(self):
        lam = 1e9
        assert _sd(4.0, math.log(100), 11, 31, lam, 0.5) == pytest.approx(4.0 * lam / 31, rel=1e-6)

    def test_sd_direct_formula_recomputation(self):
        n, tau, i, (j1, j2) = 4096, 0.5, 2048, (1537, 2560)
        lam = math.sqrt(math.log(n) * 1024)
        dist = _dist(i, j1, j2, *_boundary_regime(i, n, 1.0)[1:])
        assert dist == min(2048 - 1537 + 1, 2560 - 2048 + 1)
        expected = 4.0 * (
            math.sqrt(math.log(n) / dist) + tau * math.log(n) / lam + lam / 1024
        )
        assert _sd(4.0, math.log(n), dist, j2 - j1 + 1, lam, tau) == pytest.approx(expected, rel=1e-15)

    def test_sd_rejects_nonpositive_lam(self):  # SD divides by lam; the bounds refuse lam <= 0
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError, match="lam must be > 0"):
                pointwise_bounds([0.0] * 10, 0.5, lam, RiskConstants(c1=0.2), allow_small_lambda=True)

    def test_bound_components_record(self):
        # one admissible interval, J = [2:3]: the bound is exactly Bias +- SD of that J
        const, lam = RiskConstants(c1=0.25, C1=0.5), 0.1
        b = pointwise_bounds([0, 1, 2, 1], 0.5, lam, const, locations=[2], allow_small_lambda=True)
        dist = _dist(2, 2, 3, *_boundary_regime(2, 4, const.C1)[1:])
        assert dist == 1
        sd = _sd(const.c_tilde, math.log(4), dist, 2, lam, 0.5)
        assert b.upper == (1 + sd,) and b.lower == (0 - sd,)


class TestPointwiseBounds:
    def setup_method(self):
        self.const = RiskConstants.for_noise(Cauchy(1.0), 0.5)

    def test_constant_signal_upper_is_min_sd(self):
        n, tau = 1024, 0.5
        lam = lambda_star(n, 2.0, r0=0.125)
        b = pointwise_bounds([0.0] * n, tau, lam, self.const, locations=[512])
        best = min(
            _sd(self.const.c_tilde, math.log(n), min(512 - j1 + 1, j2 - 512 + 1), j2 - j1 + 1, lam, tau)
            for j1 in range(2, 513)
            for j2 in range(512, n)
            if (j2 - j1 + 1) > self.const.min_interval_length(lam)
            and min(512 - j1 + 1, j2 - 512 + 1) >= self.const.C1 * math.log(n)
        )
        assert b.upper[0] == pytest.approx(best, rel=1e-12)

    def test_symmetry_at_median_level(self):
        n = 1024
        lam = lambda_star(n, 2.0, r0=0.125)
        b = pointwise_bounds([0.0] * n, 0.5, lam, self.const, locations=[500])
        assert b.upper[0] == pytest.approx(-b.lower[0], rel=1e-12)

    def test_agrees_with_independent_enumerator(self):
        n = 192
        const = RiskConstants(c1=0.3, C1=1.0)
        lam = max(10.0, const.lambda_floor(n, 0.4))
        cases = [(HolderCusp(1.0, 1.0, 0.5).values(n), 0.4, lam, const, [1, 3, 96, 150, n - 2, n])]
        rng = np.random.default_rng(2026)
        for _ in range(60):  # every location, all regimes, flagged ones included
            n = int(rng.integers(2, 97))
            if rng.random() < 0.5:
                theta = rng.normal(size=n).cumsum()
            else:  # tie-heavy: few distinct values
                theta = rng.integers(-1, 2, size=n).astype(float)
            const = RiskConstants(
                c1=float(rng.choice([0.3, 1.0, 4.0])),
                C1=float(rng.choice([0.0, 0.5, 1.0, 3.0])),
                c_tilde=float(rng.choice([1.0, 4.0])),
            )
            tau, lam = float(rng.choice([0.2, 0.5, 0.85])), float(rng.choice([0.5, 2.0, 7.5]))
            cases.append((theta, tau, lam, const, list(range(1, n + 1))))
        # C1*log n == 3 exactly: Dist(i, dJ) = 3 is admissible
        const = RiskConstants(c1=1.0, C1=3.0 / math.log(20))
        assert const.C1 * math.log(20) == 3.0
        cases.append(([0.0] * 9 + [5.0, 0.0, 4.0] + [0.0] * 8, 0.5, 0.1, const, list(range(1, 21))))
        # 197 x 198 intervals survive the row and column cuts: several blocks
        cases.append((HolderCusp(0.5, 1.0, 0.3).values(400), 0.3, 0.5, RiskConstants(c1=4.0, C1=0.5), [200]))
        # C1 = 0 empties the family at i = 1 and i = n
        cases.append(([0.0, 1.0, 0.0, 1.0, 0.0], 0.5, 0.1, RiskConstants(c1=1.0, C1=0.0), [1, 2, 3, 4, 5]))
        # C1*log n beyond n/2 puts the middle in both one-sided regimes
        cases.append(([0.0, 2.0, 1.0] * 3, 0.5, 0.1, RiskConstants(c1=1.0, C1=3.0), list(range(1, 10))))
        flagged = []
        for theta, tau, lam, const, locations in cases:
            got = pointwise_bounds(theta, tau, lam, const, locations=locations, allow_small_lambda=True)
            refs = [naive_center_bounds(theta, tau, lam, const, i) for i in locations]
            assert got.flagged == tuple(i for i, (_, ref_u) in zip(locations, refs) if ref_u is None)
            for (ref_l, ref_u), lo, up in zip(refs, got.lower, got.upper):
                if ref_u is None:
                    assert lo is None and up is None
                else:
                    assert (lo, up) == (ref_l, ref_u)  # the same float expressions: equal bit for bit
            flagged.append(got.flagged)
        assert flagged[-2:] == [(1, 5), (3, 4, 5, 6)]

    def test_small_lambda_rejected_without_override(self):
        with pytest.raises(ValueError):
            pointwise_bounds([0.0] * 64, 0.5, 1.0, self.const, locations=[32])
        pointwise_bounds([0.0] * 64, 0.5, 1.0, self.const, locations=[32], allow_small_lambda=True)

    def test_location_must_be_an_integer(self):
        theta = [k / 64 for k in range(64)]
        for bad in (2.5, 32.0):
            with pytest.raises(ValueError, match=f"location {bad} is not an integer"):
                pointwise_bounds(theta, 0.5, 1.0, self.const, locations=[bad], allow_small_lambda=True)
        as_numpy, as_int = (pointwise_bounds(theta, 0.5, 1.0, self.const, locations=[i, 60], allow_small_lambda=True)
                            for i in (np.int64(32), 32))
        assert (as_numpy.lower, as_numpy.upper, as_numpy.flagged) == (as_int.lower, as_int.upper, as_int.flagged)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError):
            pointwise_bounds([0.0] * 63 + [bad], 0.5, 1.0, self.const, allow_small_lambda=True)
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            pointwise_bounds([0.0] * 64, 0.5, bad, self.const, allow_small_lambda=True)

    @pytest.mark.parametrize("tau", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_tau_outside_the_open_unit_interval_rejected(self, tau):
        with pytest.raises(ValueError, match=r"tau must be in \(0, 1\)"):
            pointwise_bounds([0.0] * 64, tau, 4.0, self.const, allow_small_lambda=True)

    def test_memory_is_bounded_by_the_block(self):
        # 2039 x 2040 intervals survive the row and column cuts: one unblocked float temporary takes 32 MiB
        tracemalloc.start()
        try:
            b = pointwise_bounds(np.zeros(4096), 0.5, 30.0, self.const, locations=[2048])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not b.flagged and peak < 4 << 20

    def test_empty_blocks_are_skipped(self, monkeypatch):
        # At 64 intervals per block, most blocks here hold no admissible interval (at the default size
        # that takes n above about 33,000); skipping them changes no bound.
        args = (HolderCusp(1.0).values(400), 0.5, 5.0, self.const)
        want = pointwise_bounds(*args, locations=range(1, 401, 7), allow_small_lambda=True)
        monkeypatch.setattr(risk, "_BLOCK", 64)
        assert pointwise_bounds(*args, locations=range(1, 401, 7), allow_small_lambda=True) == want

    def test_empty_family_is_flagged(self):
        # lam so large that no interval satisfies the length constraint
        b = pointwise_bounds(
            [0.0] * 64, 0.5, 1e6, RiskConstants(c1=0.2), locations=[32], allow_small_lambda=True
        )
        assert b.flagged == (32,) and b.upper[0] is None and b.lower[0] is None

    def test_locations_may_be_an_iterator(self):
        const = RiskConstants(c1=0.3)
        b = pointwise_bounds([0.0] * 64, 0.5, 4.0, const, locations=(i for i in [30, 31]), allow_small_lambda=True)
        assert b.locations == (30, 31) and len(b.upper) == len(b.lower) == 2

    def test_overlapping_boundary_regimes_are_flagged(self):
        # C1*log n spans more than half the grid: both one-sided regimes
        # would apply, so no bound is claimed
        const = RiskConstants(c1=0.3, C1=3.0)
        b = pointwise_bounds([0.0] * 8, 0.5, 2.0, const, locations=[4], allow_small_lambda=True)
        assert b.flagged == (4,)

    def test_smallest_admissible_n_report(self):
        n0 = smallest_admissible_n(self.const, 0.5, lambda n: lambda_star(n, 2.0, r0=0.125))
        assert n0 is not None
        assert 256 < n0 <= 1024  # Cauchy constants push past 2**8

    @pytest.mark.parametrize("bad", [math.nan, -1.0, 0.0])
    def test_smallest_admissible_n_rejects_bad_policy(self, bad):
        # a policy error is not "no admissible n"
        with pytest.raises(ValueError):
            smallest_admissible_n(self.const, 0.5, lambda n: bad)


class TestLambdaStar:
    def test_locally_constant_case(self):
        assert lambda_star(1024, 2.0, r0=0.5) == pytest.approx(math.sqrt(512 * math.log(1024)))

    def test_smooth_case(self):
        n = 4096
        b = math.floor(n ** (2 / 3) * math.log(n) ** (1 / 3))
        assert lambda_star(n, 1.0, 1.0) == pytest.approx(math.sqrt(math.log(n) * b))

    def test_monotone_in_n(self):
        for alpha in (0.5, 1.0, 2.0):
            assert lambda_star(2048, alpha) > lambda_star(1024, alpha)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_star(1, 1.0)
        with pytest.raises(ValueError):
            lambda_star(16, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            lambda_star(16, math.nan)
        for r0 in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="r0"):
                lambda_star(16, 2.0, r0=r0)
        for norm in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="holder_norm"):
                lambda_star(16, 1.0, holder_norm=norm)

    def test_star_uses_radius_at_monitored_point(self):
        model = ModelSpec(4096, 0.5, PiecewiseConstantSignal((0.2, 0.8), (1.0, 0.0, 1.0)), Cauchy(0.1))
        # radius 0.05 at x0 = 0.25 (lam ~ 41.3), not the 0.3 at the centre (lam ~ 101.1)
        assert simulate(model, "star", 1, x0=0.25).lam == pytest.approx(lambda_star(4096, 2.0, r0=0.05), rel=1e-12)
        assert simulate(model, "star", 1, x0=0.5).lam == pytest.approx(lambda_star(4096, 2.0, r0=0.3), rel=1e-12)
        with pytest.raises(ValueError, match=r"x0 = 1\.0: it lies at an end of \[0, 1\]"):
            simulate(ModelSpec(64, 0.5, ConstantSignal(), Cauchy()), "star", 1, x0=1.0)
        with pytest.raises(ValueError, match=r"x0 = 0\.8: it lies on a break"):
            simulate(model, "star", 1, x0=0.8)

    def test_star_of_constant_and_cusp_signals(self):
        constant = ModelSpec(4096, 0.5, ConstantSignal(1.0), Cauchy(0.1))
        for x0 in (0.25, 0.75):  # radius min(x0, 1 - x0) = 0.25 on both sides
            assert simulate(constant, "star", 1, x0=x0).lam == lambda_star(4096, 2.0, r0=0.25)
        cusp = ModelSpec(4096, 0.5, HolderCusp(0.5, norm=2.0), Cauchy(0.1))
        assert simulate(cusp, "star", 1, x0=0.25).lam == lambda_star(4096, 0.5, holder_norm=2.0)


class TestSimulate:
    def test_zero_noise_zero_lambda_is_exact(self):
        model = ModelSpec(32, 0.5, ConstantSignal(2.0), Cauchy(0.0), seed=1)
        rep = simulate(model, 0.0, 6)
        assert rep.errors == (0.0,) * 6
        assert rep.median_abs_error == 0.0

    def test_every_fit_is_certified_at_zero_lambda(self, monkeypatch):
        real, calls = risk.certify_float, []
        monkeypatch.setattr(risk, "certify_float", lambda *args: calls.append(args) or real(*args))
        rep = simulate(ModelSpec(32, 0.5, ConstantSignal(2.0), Cauchy(0.0), seed=1), 0.0, 6)
        assert len(calls) == 6
        assert rep.certificate_failures == 0

    def test_a_rejected_certificate_is_counted(self, monkeypatch):
        model = ModelSpec(256, 0.5, ConstantSignal(0.0), Cauchy(1.0), seed=4)
        clean = simulate(model, 20.0, 6)
        real, calls = risk.certify_float, []
        monkeypatch.setattr(risk, "certify_float", lambda *args: calls.append(args) or (len(calls) != 3 and real(*args)))
        rep = simulate(model, 20.0, 6)
        assert len(calls) == 6 and rep.certificate_failures == 1
        assert rep.errors == clean.errors

    def test_deterministic_given_seed(self):
        model = ModelSpec(128, 0.5, ConstantSignal(0.0), Cauchy(1.0), seed=9)
        r1 = simulate(model, 12.0, 10)
        r2 = simulate(model, 12.0, 10)
        assert r1.errors == r2.errors

    def test_replication_streams_independent_of_count(self):
        model = ModelSpec(64, 0.5, ConstantSignal(0.0), Laplace(1.0), seed=5)
        short = simulate(model, 6.0, 4)
        long = simulate(model, 6.0, 8)
        assert long.errors[:4] == short.errors

    def test_location_is_floor_n_x0(self):
        model = ModelSpec(100, 0.5, ConstantSignal(0.0), Gaussian(1.0), seed=2)
        rep = simulate(model, 5.0, 2, x0=0.333)
        assert rep.location == 33

    @pytest.mark.parametrize("x0", [-0.1, 1.5, 5.0, math.nan, math.inf])
    def test_design_point_outside_unit_interval_rejected(self, x0):
        model = ModelSpec(64, 0.5, ConstantSignal(0.0), Gaussian(1.0), seed=2)
        with pytest.raises(ValueError, match="x0"):
            simulate(model, 5.0, 2, x0=x0)
        assert simulate(model, 5.0, 2, x0=1.0).location == 64
        assert simulate(model, 5.0, 2, x0=0.0).location == 1

    def test_certificates_checked(self):
        model = ModelSpec(256, 0.5, ConstantSignal(0.0), Cauchy(1.0), seed=4)
        rep = simulate(model, 20.0, 25)
        assert rep.certificate_failures == 0

    def test_summary_and_csv_rows(self):
        model = ModelSpec(64, 0.25, ConstantSignal(0.0), Gaussian(1.0), seed=8)
        rep = simulate(model, 8.0, 3)
        rows = list(rep.csv_rows())
        assert len(rows) == 3
        assert rows[0][:5] == (8, 64, 0.25, 8.0, 32)
        summary = rep.summary()
        assert summary["schema"] == "qtvd.risk/1"
        assert "runtime_seconds" not in summary

    def test_coverage_against_bounds(self):
        model = ModelSpec(1024, 0.5, ConstantSignal(0.0), Cauchy(1.0), seed=6)
        lam = lambda_star(1024, 2.0, r0=0.125)
        rep = simulate(model, lam, 30, constants=RiskConstants.for_noise(model.noise, model.tau))
        assert rep.bound_upper is not None and rep.bound_lower is not None
        assert rep.coverage == 1.0

    def test_cauchy_median_error_decreases_in_n(self):
        # no fixed numbers, only the monotone trend across the grid
        meds = []
        for n in (128, 512, 2048):
            model = ModelSpec(n, 0.5, ConstantSignal(0.0), Cauchy(1.0), seed=42)
            meds.append(simulate(model, lambda_star(n, 2.0, r0=0.5), 100, x0=0.5).median_abs_error)
        assert meds[0] > meds[1] > meds[2]

    def test_sign_balance_with_symmetric_noise(self):
        model = ModelSpec(512, 0.5, ConstantSignal(0.0), Cauchy(1.0), seed=7)
        rep = simulate(model, lambda_star(512, 2.0, r0=0.5), 200, x0=0.5)
        balance = float(np.mean(np.sign(rep.errors)))
        assert abs(balance) < 0.2


class TestRateRegress:
    def test_synthetic_cuberoot(self):
        ns = [256, 512, 1024, 2048]
        meds = [3.0 * n ** (-1 / 3) for n in ns]
        reg = rate_regress(ns, meds)
        assert reg.slope == pytest.approx(-1 / 3, abs=1e-12)
        assert reg.residual_std == pytest.approx(0.0, abs=1e-12)

    def test_constant_errors(self):
        reg = rate_regress([256, 512, 1024, 2048], [0.25] * 4)
        assert reg.slope == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_grids_rejected(self):
        with pytest.raises(ValueError):
            rate_regress([256, 512, 1024], [1, 1, 1])
        with pytest.raises(ValueError):
            rate_regress([256] * 4, [1, 1, 1, 1])
        with pytest.raises(ValueError):
            rate_regress([256, 512, 1024, 2048], [1, 1, 0, 1])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                rate_regress([256, 512, 1024, 2048], [1, 1, bad, 1])
        for n in (0, -256):
            with pytest.raises(ValueError, match=rf"grid \[{n}, 256, 512, 1024\]"):
                rate_regress([n, 256, 512, 1024], [1, 0.5, 0.4, 0.3])
