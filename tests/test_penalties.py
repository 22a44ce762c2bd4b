import random
import re
from fractions import Fraction

import numpy as np
import pytest

from helpers import naive_submodularity_fuzz, penalty_value

from qtvd import penalties
from qtvd.penalties import (
    Absolute,
    Edge,
    Huber,
    PairwisePenalty,
    Square,
    loss_linearity_check,
    noncrossing_audit,
    quantile_loss_sum,
    submodularity_fuzz,
)
from qtvd.solver import Instance, certify, fit, lattice_join, lattice_meet

F = Fraction


class TestPenaltyValue:
    def test_chain_absolute_is_total_variation(self):
        theta = (F(1), F(4), F(2), F(2))
        pen = PairwisePenalty.chain(4)
        tv = sum(abs(theta[k + 1] - theta[k]) for k in range(3))
        assert penalty_value(pen, theta) == tv

    def test_constant_vector_costs_nothing(self):
        theta = (F(3, 2),) * 5
        for kernel in (Absolute(), Square(), Huber(F(1))):
            pen = PairwisePenalty.chain(5, weight=F(2), kernel=kernel)
            assert penalty_value(pen, theta) == 0

    def test_single_square_edge(self):
        pen = PairwisePenalty((Edge(1, 3, F(2), Square()),))
        assert penalty_value(pen, (F(1), F(0), F(4))) == 18

    def test_huber_matches_piecewise_formula(self):
        hub = Huber(F(2))
        assert hub(F(1)) == F(1, 2)
        assert hub(F(2)) == F(2)
        assert hub(F(-5)) == F(2) * (5 - F(1))

    def test_index_out_of_range(self):
        pen = PairwisePenalty((Edge(1, 4, F(1), Absolute()),))
        with pytest.raises(IndexError):
            penalty_value(pen, (F(0), F(0)))

    def test_negative_weight_needs_unchecked(self):
        with pytest.raises(ValueError):
            PairwisePenalty((Edge(1, 2, F(-1), Absolute()),))
        PairwisePenalty((Edge(1, 2, F(-1), Absolute()),), unchecked=True)

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            Edge(2, 2, F(1), Absolute())

    def test_endpoints_must_be_integers(self):
        with pytest.raises(ValueError, match=r"edge endpoint i 1\.0 is not an integer"):
            Edge(1.0, 2, F(1), Absolute())
        with pytest.raises(ValueError, match="edge endpoint i '1' is not an integer"):
            Edge("1", 2, F(1), Absolute())
        with pytest.raises(ValueError, match=r"edge endpoint j 2\.0 is not an integer"):
            Edge(1, 2.0, F(1), Absolute())
        edge = Edge(np.int64(1), np.int32(3), F(1), Absolute())
        assert (type(edge.i), type(edge.j)) == (int, int) and edge == Edge(1, 3, F(1), Absolute())


MIXED_EDGES = (
    Edge(1, 2, F(1), Absolute()),
    Edge(2, 3, F(1, 2), Square()),
    Edge(1, 4, F(2), Huber(F(1))),
    Edge(3, 4, F(1, 3), Absolute()),
)

SHARED_ABS = Absolute()

FUZZ_PENALTIES = {
    "chain-absolute": PairwisePenalty.chain(5),
    "chain-square": PairwisePenalty.chain(5, kernel=Square()),
    "chain-huber-1": PairwisePenalty.chain(5, kernel=Huber(F(1))),
    "chain-huber-half": PairwisePenalty.chain(5, kernel=Huber(F(1, 2))),
    "mixed": PairwisePenalty(MIXED_EDGES),
    "reversed-edge": PairwisePenalty((Edge(2, 1, F(3, 2), Huber(F(1, 2))), Edge(3, 2, F(1), Square()))),
    "planted-negative": PairwisePenalty(
        (Edge(1, 2, F(-1), Absolute()), Edge(2, 3, F(1, 2), Square()), Edge(3, 1, F(-2, 3), Square())),
        unchecked=True,
    ),
    "non-convex-kernel": PairwisePenalty.chain(4, kernel=lambda x: -abs(x)),
    # Kernel memos are shared per (weight, kernel object): one kernel under two weights needs two memos,
    # equal but distinct kernels get one each, and a kernel may return plain ints.
    "shared-kernel-signed-weights": PairwisePenalty(
        (Edge(1, 2, F(1), SHARED_ABS), Edge(2, 3, F(-1), SHARED_ABS), Edge(3, 4, F(1), SHARED_ABS)), unchecked=True
    ),
    "equal-huber-objects": PairwisePenalty((Edge(1, 2, F(1), Huber(F(1, 2))), Edge(2, 3, F(1), Huber(F(1, 2))))),
    "int-kernel": PairwisePenalty.chain(4, kernel=lambda x: 0),
}


class TestSubmodularityFuzz:
    def test_family_has_no_violations(self):
        rep = submodularity_fuzz(PairwisePenalty(MIXED_EDGES), trials=1500, seed=0)
        assert rep.violations == 0 and rep.first_violation is None

    def test_equal_arguments_never_violate(self):
        pen = PairwisePenalty.chain(3)
        rng = random.Random(1)
        for _ in range(100):
            x = tuple(F(rng.randint(-3, 3)) for _ in range(3))
            join, meet = lattice_join(x, x), lattice_meet(x, x)
            assert penalty_value(pen, join) + penalty_value(pen, meet) == 2 * penalty_value(pen, x)

    def test_planted_negative_weight_is_caught(self):
        bad = PairwisePenalty((Edge(1, 2, F(-1), Absolute()),), unchecked=True)
        rep = submodularity_fuzz(bad, trials=1000, seed=3)
        assert rep.violations >= 1
        x, y = rep.first_violation
        assert penalty_value(bad, x) + penalty_value(bad, y) < penalty_value(
            bad, tuple(map(max, x, y))
        ) + penalty_value(bad, tuple(map(min, x, y)))

    @pytest.mark.parametrize("name", FUZZ_PENALTIES)
    def test_matches_literal_loop(self, name):
        pen = FUZZ_PENALTIES[name]
        total = 0
        for seed in range(20):
            rep = submodularity_fuzz(pen, trials=50, seed=seed)
            assert (rep.violations, rep.first_violation) == naive_submodularity_fuzz(pen, 50, seed), seed
            total += rep.violations
        if name in ("planted-negative", "non-convex-kernel", "shared-kernel-signed-weights"):
            assert total > 0

    def test_long_chain_matches_literal_loop(self):
        # 299 edges with mixed denominators in one trial's gap: its denominator must stay an lcm, not a product.
        pen = PairwisePenalty.chain(300, weight=F(2, 3), kernel=Huber(F(1, 2)))
        rep = submodularity_fuzz(pen, trials=200, seed=0)
        assert (rep.violations, rep.first_violation) == naive_submodularity_fuzz(pen, 200, 0)

    def test_edge_index_below_one_raises(self):
        with pytest.raises(IndexError, match=r"edge \(0,1\) out of range"):
            submodularity_fuzz(PairwisePenalty((Edge(0, 1, 1, Absolute()),)), trials=1, seed=0)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            submodularity_fuzz(PairwisePenalty.chain(2), trials=0, seed=0)
        with pytest.raises(ValueError, match="no edges"):
            submodularity_fuzz(PairwisePenalty(()), trials=1, seed=0)

    def test_seed_and_trials_must_be_integers(self):
        # A seed of None would draw from OS entropy and a float one would go through hash: neither is reproducible.
        pen = PairwisePenalty.chain(3)
        for seed in (None, 1.5, "0"):
            with pytest.raises(ValueError, match=re.escape(f"seed {seed!r} is not an integer")):
                submodularity_fuzz(pen, trials=3, seed=seed)
        for trials in (2.0, "3"):
            with pytest.raises(ValueError, match=re.escape(f"trials {trials!r} is not an integer")):
                submodularity_fuzz(pen, trials=trials, seed=0)
        rep = submodularity_fuzz(FUZZ_PENALTIES["planted-negative"], trials=np.int64(40), seed=np.int32(2))
        assert rep == submodularity_fuzz(FUZZ_PENALTIES["planted-negative"], trials=40, seed=2)
        assert type(rep.trials) is int

    def test_report_fields_are_python_values(self):
        rep = submodularity_fuzz(FUZZ_PENALTIES["planted-negative"], trials=50, seed=0)
        assert (type(rep.trials), type(rep.violations)) == (int, int) and rep.violations > 0
        assert type(rep.first_violation) is tuple and len(rep.first_violation) == 2
        for point in rep.first_violation:
            assert type(point) is tuple and len(point) == 3
            assert {(type(v), type(v.numerator), type(v.denominator)) for v in point} == {(Fraction, int, int)}

    @pytest.mark.parametrize("n", [1, 2, 6, 40])
    def test_draws_follow_randint(self, n):
        # Per trial: randint(1, 5) twice, then 2n randint(-3, 3), block after block.
        trials = 13
        for seed in (0, 1, 7, 2**40 + 3):
            for size in (1, 2, 5, 64):
                rng = random.Random(seed)
                blocks = list(penalties._draws(seed, n, trials, size))
                assert [len(p) for p, _, _ in blocks] == [min(size, trials - d) for d in range(0, trials, size)]
                for p, q, k in blocks:
                    assert k.shape == (len(p), 2 * n)
                    for t in range(len(p)):
                        assert [p[t], q[t]] == [rng.randint(1, 5), rng.randint(1, 5)]
                        assert k[t].tolist() == [rng.randint(-3, 3) for _ in range(2 * n)]

    @pytest.mark.parametrize("seed", [5, 6, 23])
    def test_blocks_match_literal_loop(self, monkeypatch, seed):
        # Three trials per block: 20 trials span seven blocks, and block 1 has no violation.
        pen = FUZZ_PENALTIES["planted-negative"]
        monkeypatch.setattr(penalties, "_BLOCK_DRAWS", 3 * (2 * 3 + 2))
        assert submodularity_fuzz(pen, trials=3, seed=seed).violations == 0
        rep = submodularity_fuzz(pen, trials=20, seed=seed)
        assert rep.violations > 0
        assert (rep.violations, rep.first_violation) == naive_submodularity_fuzz(pen, 20, seed)


class TestNonCrossingAudit:
    def test_constant_data_equal_fits(self):
        y = (F(2),) * 6
        rep = noncrossing_audit(y, F(1), F(49, 100), F(51, 100))
        assert rep.ok and rep.worst_gap == 0

    def test_random_instances_never_cross(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(2, 30)
            y = tuple(F(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(n))
            taus = sorted(rng.sample([F(k, 10) for k in range(1, 10)], 2))
            rep = noncrossing_audit(y, F(rng.randint(1, 8), 4), taus[0], taus[1])
            assert rep.ok and rep.worst_gap >= 0

    def test_worst_gap_is_exact(self):
        # y in k/1, k/2, k/3 puts the shared scale above 1, so a gap not divided by it fails here.
        rng = random.Random(7)
        for _ in range(80):
            n = rng.randint(1, 30)
            y = tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n))
            lam = rng.choice((F(0), F(1, 4), F(3), F(n)))
            t1, t2 = sorted(rng.sample([F(k, 10) for k in range(1, 10)], 2))
            upper1 = fit(Instance(y, t1, lam), "upper").theta
            lower2 = fit(Instance(y, t2, lam), "lower").theta
            rep = noncrossing_audit(y, lam, t1, t2)
            assert rep.worst_gap == min(b - a for a, b in zip(upper1, lower2))
            assert rep.ok == (rep.worst_gap >= 0)

    def test_lambda_zero_gap_is_zero(self):
        y = (F(3), F(-1), F(4))
        rep = noncrossing_audit(y, F(0), F(1, 4), F(3, 4))
        assert rep.ok and rep.worst_gap == 0

    def test_rejects_unordered_levels(self):
        with pytest.raises(ValueError):
            noncrossing_audit((F(1), F(2)), F(1), F(3, 4), F(1, 4))
        with pytest.raises(ValueError, match=r"tau must be in \(0, 1\), got 3/2"):
            noncrossing_audit((F(1), F(2)), F(1), F(3, 4), F(3, 2))

    def test_meet_join_transfer_across_levels(self):
        # meet of optima is optimal at the smaller level, join at the larger
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 12)
            y = tuple(F(rng.randint(-4, 4)) for _ in range(n))
            lam = F(rng.randint(1, 6), 2)
            t1, t2 = sorted(rng.sample([F(k, 10) for k in range(1, 10)], 2))
            i1, i2 = Instance(y, t1, lam), Instance(y, t2, lam)
            th1 = fit(i1, rng.choice(("lower", "upper"))).theta
            th2 = fit(i2, rng.choice(("lower", "upper"))).theta
            assert certify(lattice_meet(th1, th2), i1) is not None
            assert certify(lattice_join(th1, th2), i2) is not None


class TestLossLinearity:
    def test_equal_levels(self):
        assert loss_linearity_check((F(1), F(2)), (F(0), F(3)), F(1, 3), F(1, 3))

    def test_theta_equals_data(self):
        y = (F(1), F(-2), F(4))
        assert loss_linearity_check(y, y, F(1, 5), F(4, 5))

    def test_fuzzed_exact(self):
        rng = random.Random(6)
        for _ in range(300):
            n = rng.randint(1, 8)
            y = tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n))
            theta = tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n))
            t1 = F(rng.randint(0, 12), 12)
            t2 = F(rng.randint(0, 12), 12)
            assert loss_linearity_check(y, theta, t1, t2)

    def test_loss_sum_definition(self):
        y = (F(1), F(0))
        theta = (F(0), F(1))
        # rho_{1/4}(1) + rho_{1/4}(-1) = 1/4 + 3/4
        assert quantile_loss_sum(y, theta, F(1, 4)) == 1


@pytest.mark.parametrize("call, message", [
    (lambda: Huber(F(0)), "Huber delta must be > 0"),
    (lambda: quantile_loss_sum((1, 2), (1,), F(1, 2)), "length mismatch"),
], ids=["huber-delta-zero", "loss-length-mismatch"])
def test_argument_checks_raise(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is ValueError and str(exc.value) == message
