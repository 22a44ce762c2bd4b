"""The three benchmark workloads: inputs from a seed, the ops of one job, and each op's check.

A workload's `setup` generates its inputs from the seed and writes them to
the work directory; `job` is a generator that yields one `Op` at a time and
receives back the op's artifact bytes (None if the op failed), so later ops
can use the outputs of earlier ones, as a user running the CLI would.
Every op is a user-visible call: `qtvd.cli.main(argv)` or a public library
function, looked up at call time so that tracing wrappers are seen.

The runner finishes an op, call and check, before it resumes the
generator, so the closures in an op may use the generator's loop variables.
Checks run outside the op's timed region and outside any span.  A check
raises `CheckFailed`; otherwise it returns the op's artifact bytes (the
files the CLI wrote, or a canonical text of the library result), whose
SHA-256 the runner compares across repeats and against recorded digests.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import qtvd
from qtvd import cli
from qtvd.intervals import NEG_INF, POS_INF, ExtendedValue


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    kind: str  # "cli.<command>" or "lib.<function>"
    call: Callable[[], object]
    check: Callable[[object], bytes]


def _write_values(path: Path, values) -> str:
    path.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")
    return str(path)


def _cli_ok(status) -> None:
    require(status == 0, f"exit status {status}")


def _parse_ext(text: str) -> ExtendedValue:
    if text == "-inf":
        return NEG_INF
    if text == "+inf":
        return POS_INF
    return ExtendedValue(0, Fraction(text))


def _cert_bytes(cert) -> bytes:
    return b"infeasible" if cert is None else "\n".join(map(str, cert.z)).encode()


def _noisy_steps(rng: random.Random, n: int, levels: tuple, noise: int, denominator: int) -> tuple:
    """Equal-length runs at the given integer levels plus rational noise k/denominator, |k| <= noise.

    Only the noise depends on the seed, so the solver's work per op varies
    little from seed to seed while the data stay tie-heavy.
    """
    return tuple(
        levels[i * len(levels) // n] + Fraction(rng.randint(-noise, noise), denominator) for i in range(n)
    )


class McRate:
    """`qtvd simulate` sweeps on the criterion-9 grid, plus criterion-10-shaped ops with --bounds."""

    name = "mc_rate"
    spans = (
        "cli.main",
        "risk.simulate",
        "risk.noise.sample",
        "solver.fit_float",
        "solver.certify_float",
        "risk.pointwise_bounds",
    )
    nominal_job_s = 1.2
    GRID = tuple(2**k for k in range(8, 14))
    SIGNALS = {
        "cusp": ("--signal", "cusp", "--alpha", "1", "--L0", "1"),
        "pwc": ("--signal", "pwc", "--breaks", "0.2,0.8", "--levels", "1,0,1"),
    }
    # Latency grows with n, so the ops form one cluster per n: the median op
    # falls in the middle of the n=2048 cluster and the tail op inside the
    # n=8192 cluster.
    SEEDS_PER_CELL = 2
    BOUNDS_OPS = 4
    REPS = 4

    def setup(self, workdir: Path, seed: int) -> None:
        rng = random.Random(seed)
        runs = []
        for signal in self.SIGNALS.values():
            for n in self.GRID:
                for _ in range(self.SEEDS_PER_CELL):
                    runs.append(["simulate", "--n", str(n), *signal, "--noise", "cauchy", "--scale", "0.1",
                                 "--lambda", "star", "--seed", str(rng.randrange(2**31))])
        for _ in range(self.BOUNDS_OPS):
            runs.append(["simulate", "--n", "1024", "--signal", "constant", "--noise", "cauchy", "--scale", "1",
                         "--lambda", "30", "--bounds", "--seed", str(rng.randrange(2**31))])
        for idx, argv in enumerate(runs):
            argv += ["--reps", str(self.REPS), "--output", str(workdir / f"sim{idx:02d}")]
        (workdir / "runs.json").write_text(json.dumps(runs, indent=1), encoding="utf-8")
        self.runs = runs

    def _check(self, argv, status) -> bytes:
        _cli_ok(status)
        prefix = Path(argv[argv.index("--output") + 1])
        csv_bytes = prefix.with_suffix(".csv").read_bytes()
        json_bytes = prefix.with_suffix(".json").read_bytes()
        doc = json.loads(json_bytes)
        require(doc["certificate_failures"] == 0, f"certificate_failures={doc['certificate_failures']}")
        require(doc["replications"] == self.REPS, "wrong replication count")
        rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
        require(rows[0] == ["seed", "n", "tau", "lambda", "location", "error"], "bad CSV header")
        require(len(rows) == self.REPS + 1, f"{len(rows) - 1} CSV rows for {self.REPS} reps")
        require(all(math.isfinite(float(row[5])) for row in rows[1:]), "non-finite error in CSV")
        numbers = [doc["median_abs_error"], doc["lambda"]]
        if "--bounds" in argv:
            numbers += [doc["bound_lower"], doc["bound_upper"], doc["coverage"]]
        require(all(v is not None and math.isfinite(v) for v in numbers), "missing or non-finite summary value")
        return csv_bytes + json_bytes

    def job(self):
        for argv in self.runs:
            yield Op("cli.simulate", lambda: cli.main(argv), lambda status: self._check(argv, status))


class ExactChain:
    """Exact fit/certify/audit at n=4000 in three lambda regimes, plus criterion-2 point queries."""

    name = "exact_chain"
    spans = (
        "cli.main",
        "solver.Instance",
        "solver.fit",
        "solver.objective_value",
        "solver.certify",
        "penalties.noncrossing_audit",
        "penalties.submodularity_fuzz",
        "envelope.upper_envelope_at",
        "envelope.lower_envelope_at",
    )
    nominal_job_s = 6.0
    # For three jobs, the median op falls in the middle of the certify cluster
    # (library and CLI certify), the tail op in the middle of the cluster of the
    # slower fits and the lam >= n audit, below the two slow audits.
    N = 4000
    # (tau, lam, tau2): small lam leaves wide non-unique stretches, moderate lam
    # gives a few segments, lam >= n keeps every breakpoint of the derivative live.
    REGIMES = (
        (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 3), Fraction(20), Fraction(2, 3)),
        (Fraction(1, 2), Fraction(N), Fraction(3, 4)),
    )
    POINT_N = 160
    POINT_PARAMS = (
        (Fraction(1, 2), Fraction(3, 2)),
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(3)),
        (Fraction(1, 4), Fraction(5)),
    )
    AUDIT_TRIALS = 200

    def setup(self, workdir: Path, seed: int) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.regimes = []
        for idx, (tau, lam, tau2) in enumerate(self.REGIMES):
            y = _noisy_steps(rng, self.N, (0, 2, -1, 3, 1, -2), 6, 4)
            path = _write_values(workdir / f"y{idx}.txt", y)
            self.regimes.append((idx, y, path, tau, lam, tau2, rng.randrange(2**31)))
        self.points = []
        for tau, lam in self.POINT_PARAMS:
            self.points.append((_noisy_steps(rng, self.POINT_N, (0, 1, -1, 2), 4, 2), tau, lam))

    def _fit_check(self, out: Path, status, lower=None) -> bytes:
        _cli_ok(status)
        data = out.read_bytes()
        doc = json.loads(data)
        require(len(doc["theta"]) == self.N, "theta has the wrong length")
        require(doc["certificate"] is not None, "fit did not certify")
        if lower is not None:
            upper = [Fraction(v) for v in doc["theta"]]
            require(all(a <= b for a, b in zip(lower, upper)), "lower fit exceeds upper fit")
        return data

    def _certify_check(self, out: Path, status) -> bytes:
        _cli_ok(status)
        data = out.read_bytes()
        require(json.loads(data)["feasible"], "fitted theta rejected by qtvd certify")
        return data

    def _audit_check(self, out: Path, status) -> bytes:
        _cli_ok(status)
        data = out.read_bytes()
        doc = json.loads(data)
        require(doc["ok"] and doc["noncross"]["ok"], "audit found a violation")
        require(all(rep["violations"] == 0 for rep in doc["submodularity"].values()), "submodularity violated")
        return data

    @staticmethod
    def _lib_certify_check(cert, expect_feasible: bool, what: str) -> bytes:
        require((cert is not None) == expect_feasible, f"certify gave the wrong verdict on the {what}")
        return _cert_bytes(cert)

    @staticmethod
    def _point_check(value, y, tau, lam, i, extremality) -> bytes:
        theta = qtvd.fit(qtvd.Instance(y, tau, lam), extremality).theta
        require(value == ExtendedValue(0, theta[i - 1]), f"{extremality} envelope at {i} differs from the fit")
        return repr(value).encode()

    def job(self):
        wd = self.workdir
        for idx, y, path, tau, lam, tau2, audit_seed in self.regimes:
            exact = ["--input", path, "--tau", str(tau), "--lambda", str(lam)]
            fits = {}
            for side in ("lower", "upper"):
                out = wd / f"fit{idx}_{side}.json"
                argv = ["fit", *exact, "--extremal", side, "--output", str(out)]
                data = yield Op(
                    "cli.fit", lambda: cli.main(argv), lambda status: self._fit_check(out, status, fits.get("lower"))
                )
                fits[side] = None if data is None else [Fraction(v) for v in json.loads(data)["theta"]]
            for side in ("lower", "upper"):
                theta_path = _write_values(wd / f"theta{idx}_{side}.txt", fits[side] or [])
                out = wd / f"cert{idx}_{side}.json"
                argv = ["certify", *exact, "--theta", theta_path, "--output", str(out)]
                yield Op("cli.certify", lambda: cli.main(argv), lambda status: self._certify_check(out, status))
            lower, upper = fits["lower"], fits["upper"]
            yield Op(
                "lib.certify",
                lambda: qtvd.certify(qtvd.lattice_join(lower, upper), qtvd.Instance(y, tau, lam)),
                lambda c: self._lib_certify_check(c, True, "join"),
            )
            yield Op(
                "lib.certify",
                lambda: qtvd.certify(qtvd.lattice_meet(lower, upper), qtvd.Instance(y, tau, lam)),
                lambda c: self._lib_certify_check(c, True, "meet"),
            )
            # U_i is the largest optimal value at i, so U + 1 at one location is not optimal.
            bumped = list(upper or [])
            if bumped:
                bumped[self.N // 2] += 1
            yield Op(
                "lib.certify",
                lambda: qtvd.certify(bumped, qtvd.Instance(y, tau, lam)),
                lambda c: self._lib_certify_check(c, False, "perturbed vector"),
            )
            # The audit's lattice check would repeat the join/meet certify ops above.
            out = wd / f"audit{idx}.json"
            argv = ["audit", *exact, "--tau2", str(tau2), "--checks", "noncross,submodular",
                    "--trials", str(self.AUDIT_TRIALS),
                    "--seed", str(audit_seed), "--output", str(out)]
            yield Op("cli.audit", lambda: cli.main(argv), lambda status: self._audit_check(out, status))
        for y, tau, lam in self.points:
            i = len(y) // 2
            for side in ("lower", "upper"):
                query = f"{side}_envelope_at"
                yield Op(
                    "lib." + query,
                    lambda: getattr(qtvd, query)(y, tau, lam, i, allow_large_n=True),
                    lambda value: self._point_check(value, y, tau, lam, i, side),
                )


class EnvelopeFull:
    """`qtvd envelope --allow-large-n` at n in {64, 96, 128}, degenerate tau, and reflection checks."""

    name = "envelope_full"
    spans = ("cli.main", "envelope.envelope", "envelope.reflection_check")
    nominal_job_s = 7.8
    # (n, tau, lam); tau in {0, 1} has closed-form envelopes.  Latency is set by
    # n alone, so the op mix fixes where the quantiles of three jobs fall: the
    # median op at 80% of the n=64 cluster and the tail op in the middle of the
    # n=96 cluster, away from any cluster edge.
    CASES = (
        *((64, Fraction(t), Fraction(lam)) for t, lam in (
            ("1/2", "3/2"), ("1/4", "1/2"), ("3/4", "5"), ("1/3", "1"), ("2/3", "2"), ("1/2", "1/4"),
            ("1/5", "3"), ("4/5", "1/2"), ("1/2", "4"), ("3/5", "3/4"), ("0", "1"), ("1", "1"),
        )),
        *((96, Fraction(t), Fraction(lam)) for t, lam in (
            ("1/2", "3/2"), ("1/3", "4"), ("3/4", "1"), ("1/4", "2"), ("2/3", "1/2"),
        )),
        (128, Fraction(1, 2), Fraction(2)),
    )
    REFLECTION_CASES = ((64, Fraction(1, 4), Fraction(1, 2)),)

    def setup(self, workdir: Path, seed: int) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.cases = []
        for idx, (n, tau, lam) in enumerate(self.CASES + self.REFLECTION_CASES):
            y = _noisy_steps(rng, n, (0, 1, -1, 2), 4, 2)
            self.cases.append((idx, y, _write_values(workdir / f"env{idx}.txt", y), tau, lam))

    @staticmethod
    def _check(out: Path, status, y, tau, lam) -> bytes:
        _cli_ok(status)
        data = out.read_bytes()
        doc = json.loads(data)
        lower = [_parse_ext(v) for v in doc["L"]]
        upper = [_parse_ext(v) for v in doc["U"]]
        require(len(lower) == len(upper) == len(y), "envelope has the wrong length")
        require(all(a <= b for a, b in zip(lower, upper)), "L exceeds U")
        if tau == 0:
            require(lower == [NEG_INF] * len(y) and upper == [ExtendedValue(0, min(y))] * len(y), "tau=0 values")
        elif tau == 1:
            require(lower == [ExtendedValue(0, max(y))] * len(y) and upper == [POS_INF] * len(y), "tau=1 values")
        else:
            inst = qtvd.Instance(y, tau, lam)
            for side, env in (("lower", lower), ("upper", upper)):
                theta = qtvd.fit(inst, side).theta
                require(env == [ExtendedValue(0, v) for v in theta], f"{side} envelope differs from the {side} fit")
        return data

    @staticmethod
    def _reflection_check(ok) -> bytes:
        require(ok is True, "reflection identity failed")
        return b"reflection ok"

    def job(self):
        n_cli = len(self.CASES)
        for idx, y, path, tau, lam in self.cases[:n_cli]:
            out = self.workdir / f"env{idx}.json"
            argv = ["envelope", "--input", path, "--tau", str(tau), "--lambda", str(lam),
                    "--allow-large-n", "--output", str(out)]
            yield Op("cli.envelope", lambda: cli.main(argv), lambda status: self._check(out, status, y, tau, lam))
        for _, y, _, tau, lam in self.cases[n_cli:]:
            yield Op("lib.reflection_check", lambda: qtvd.reflection_check(y, tau, lam), self._reflection_check)


WORKLOADS = {cls.name: cls for cls in (McRate, ExactChain, EnvelopeFull)}
