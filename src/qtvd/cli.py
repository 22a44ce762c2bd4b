"""Command-line front end with reproducible, file-based I/O.

Commands: fit, envelope, certify, audit, simulate, rate.  Data files are
plain text (one value per line) or a single-column CSV with header "y";
values may be decimal strings or exact fractions like "3/4", both parsed
exactly.  Envelope output encodes infinities as the strings "-inf" and
"+inf" since JSON numbers cannot carry them; rationals are emitted as
fraction strings so exactness survives the file boundary.

Exit status: 0 on success, 2 on validation failure (with a line
diagnostic for malformed input), 3 when an audit finds a violation, so
CI pipelines can gate on structural properties.

Identical configuration and seed produce byte-identical JSON/CSV
artifacts; wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import penalties, risk, solver
from .envelope import envelope as _envelope
from .intervals import ExtendedValue

__all__ = ["main", "build_parser"]


class ValidationError(Exception):
    """Bad input file or option combination; maps to exit status 2."""


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{what}: could not parse {text.strip()!r} as a rational") from exc


def _sim_lambda(text: str):
    """--lambda of simulate/rate: "star" (resolved per n by risk.simulate) or a number."""
    if text == "star":
        return text
    try:
        return float(_parse_rational(text, "--lambda"))
    except OverflowError as exc:
        raise ValidationError(f"--lambda: {text.strip()!r} is outside the float range") from exc


def _read_values(path: str) -> list[Fraction]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    rows = [(idx + 1, line.strip()) for idx, line in enumerate(lines)]
    rows = [(no, text) for no, text in rows if text]
    if not rows:
        raise ValidationError(f"{path}: no data values found")
    if rows[0][1].lower() == "y":  # single-column CSV header
        rows = rows[1:]
        if not rows:
            raise ValidationError(f"{path}: header only, no data values")
    values = []
    for no, text in rows:
        text = text.rstrip(",")
        try:
            values.append(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{path}:{no}: could not parse {text!r}") from exc
    return values


def _ext_str(value: ExtendedValue) -> str:
    if value.tag == 1:
        return "+inf"
    if value.tag == -1:
        return "-inf"
    return str(value.value)


def _emit(doc: dict, path: Optional[str]) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_constants(pairs: Optional[Sequence[str]], noise, tau: float) -> risk.RiskConstants:
    overrides = {}
    known = {"c", "c1", "delta", "c_tilde", "C1"}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValidationError(f"--constants expects k=v, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key not in known:
            raise ValidationError(f"unknown constant {key!r} (known: {sorted(known)})")
        try:
            overrides[key] = float(raw)
        except ValueError as exc:
            raise ValidationError(f"--constants {key}: bad float {raw!r}") from exc
    if "c1" in overrides:
        base = {"delta": 1.0, **overrides}
        return risk.RiskConstants(**base)
    return risk.RiskConstants.for_noise(noise, tau, **overrides)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    y = _read_values(args.input)
    inst = solver.Instance(tuple(y), _parse_rational(args.tau, "--tau"), _parse_rational(args.lam, "--lambda"))
    result = solver.fit(inst, args.extremal)
    cert = solver.certify(result.theta, inst)
    doc = {
        "theta": [str(v) for v in result.theta],
        "objective": str(result.objective),
        "extremality": result.extremality,
        "certificate": None
        if cert is None
        else {"g": [str(v) for v in cert.g], "z": [str(v) for v in cert.z]},
    }
    _emit(doc, args.output)
    return 0


def _cmd_envelope(args) -> int:
    y = _read_values(args.input)
    env = _envelope(
        y,
        _parse_rational(args.tau, "--tau"),
        _parse_rational(args.lam, "--lambda"),
        allow_large_n=args.allow_large_n,
    )
    doc = {"L": [_ext_str(v) for v in env.lower], "U": [_ext_str(v) for v in env.upper]}
    _emit(doc, args.output)
    return 0


def _cmd_certify(args) -> int:
    y = _read_values(args.input)
    theta = _read_values(args.theta)
    if len(theta) != len(y):
        raise ValidationError(f"theta has {len(theta)} values but y has {len(y)}")
    inst = solver.Instance(tuple(y), _parse_rational(args.tau, "--tau"), _parse_rational(args.lam, "--lambda"))
    cert = solver.certify(theta, inst)
    if cert is None:
        doc = {"feasible": False}
    else:
        doc = {
            "feasible": True,
            "g": [str(v) for v in cert.g],
            "z": [str(v) for v in cert.z],
        }
    _emit(doc, args.output)
    return 0


def _cmd_audit(args) -> int:
    y = _read_values(args.input)
    lam = _parse_rational(args.lam, "--lambda")
    tau1 = _parse_rational(args.tau, "--tau")
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = set(checks) - {"noncross", "lattice", "submodular"}
    if unknown:
        raise ValidationError(f"unknown audit checks: {sorted(unknown)}")
    doc: dict = {}
    ok = True
    if "noncross" in checks:
        if args.tau2 is None:
            raise ValidationError("audit noncross needs --tau2")
        tau2 = _parse_rational(args.tau2, "--tau2")
        report = penalties.noncrossing_audit(y, lam, tau1, tau2)
        doc["noncross"] = {"ok": report.ok, "worst_gap": str(report.worst_gap)}
        ok = ok and report.ok
    if "lattice" in checks:
        inst = solver.Instance(tuple(y), tau1, lam)
        lower = solver.fit(inst, "lower").theta
        upper = solver.fit(inst, "upper").theta
        join_ok = solver.certify(solver.lattice_join(lower, upper), inst) is not None
        meet_ok = solver.certify(solver.lattice_meet(lower, upper), inst) is not None
        doc["lattice"] = {"join_optimal": join_ok, "meet_optimal": meet_ok, "ok": join_ok and meet_ok}
        ok = ok and join_ok and meet_ok
    if "submodular" in checks:
        n = min(len(y), 6)
        kernels = {
            "absolute": penalties.Absolute(),
            "square": penalties.Square(),
            "huber": penalties.Huber(Fraction(1)),
        }
        sub: dict = {}
        for name, kernel in kernels.items():
            pen = penalties.PairwisePenalty.chain(max(n, 2), weight=Fraction(1), kernel=kernel)
            rep = penalties.submodularity_fuzz(pen, args.trials, args.seed)
            sub[name] = {"trials": rep.trials, "violations": rep.violations}
            ok = ok and rep.violations == 0
        doc["submodularity"] = sub
    doc["ok"] = ok
    _emit(doc, args.output)
    return 0 if ok else 3


def _build_signal(args) -> risk.Signal:
    if args.signal == "constant":
        return risk.ConstantSignal(args.level)
    if args.signal == "cusp":
        return risk.HolderCusp(args.alpha, args.L0, args.x0)
    if args.signal == "pwc":
        if not args.breaks or not args.levels:
            raise ValidationError("signal pwc needs --breaks and --levels")
        breaks = tuple(float(b) for b in args.breaks.split(","))
        levels = tuple(float(v) for v in args.levels.split(","))
        return risk.PiecewiseConstantSignal(breaks, levels)
    raise ValidationError(f"unknown signal {args.signal!r}")


def _build_noise(args) -> risk.Noise:
    if args.noise == "cauchy":
        return risk.Cauchy(args.scale)
    if args.noise == "gaussian":
        return risk.Gaussian(args.scale)
    if args.noise == "laplace":
        return risk.Laplace(args.scale)
    raise ValidationError(f"unknown noise {args.noise!r}")


def _write_csv(path: str, reports: Sequence[risk.RiskReport]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(risk.CSV_HEADER)
        for report in reports:
            for row in report.csv_rows():
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _cmd_simulate(args) -> int:
    signal = _build_signal(args)
    noise = _build_noise(args)
    model = risk.ModelSpec(args.n, args.tau, signal, noise, seed=args.seed)
    lam = _sim_lambda(args.lam)
    constants = None
    if args.bounds:
        constants = _parse_constants(args.constants, noise, args.tau)
    report = risk.simulate(
        model, lam, args.reps, x0=args.x0, constants=constants, compute_bounds=args.bounds
    )
    _write_csv(args.output + ".csv", [report])
    _emit(report.summary(), args.output + ".json")
    print(f"simulate: {report.runtime_seconds:.2f}s, wrote {args.output}.csv/.json", file=sys.stderr)
    return 0


def _cmd_rate(args) -> int:
    signal = _build_signal(args)
    noise = _build_noise(args)
    try:
        grid = [int(v) for v in args.n_grid.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--n-grid: bad value {args.n_grid!r}") from exc
    lam = _sim_lambda(args.lam)
    reports = []
    for n in grid:
        model = risk.ModelSpec(n, args.tau, signal, noise, seed=args.seed)
        reports.append(risk.simulate(model, lam, args.reps, x0=args.x0))
    regression = risk.rate_regress(grid, [r.median_abs_error for r in reports])
    _write_csv(args.output + ".csv", reports)
    doc = {
        "schema": risk.SCHEMA_VERSION,
        "grid": grid,
        "slope": regression.slope,
        "intercept": regression.intercept,
        "residual_std": regression.residual_std,
        "per_n": [r.summary() for r in reports],
    }
    _emit(doc, args.output + ".json")
    total = sum(r.runtime_seconds for r in reports)
    print(f"rate: {total:.2f}s, wrote {args.output}.csv/.json", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtvd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_exact(p, with_extremal=False):
        p.add_argument("--input", required=True, help="data file: one value per line or CSV with header y")
        p.add_argument("--tau", required=True, help="quantile level, exact (e.g. 1/4 or 0.25)")
        p.add_argument("--lambda", dest="lam", required=True, help="penalty, exact (e.g. 1/2)")
        p.add_argument("--output", default=None, help="JSON output path (default stdout)")
        if with_extremal:
            p.add_argument("--extremal", default="any", choices=("lower", "upper", "any"))

    p_fit = sub.add_parser("fit", help="exact minimiser with optimality certificate")
    add_exact(p_fit, with_extremal=True)
    p_fit.set_defaults(handler=_cmd_fit)

    p_env = sub.add_parser("envelope", help="exact pointwise solution-set bounds")
    add_exact(p_env)
    p_env.add_argument("--allow-large-n", action="store_true", help="override the enumeration cap")
    p_env.set_defaults(handler=_cmd_envelope)

    p_cert = sub.add_parser("certify", help="decide optimality of a candidate vector")
    add_exact(p_cert)
    p_cert.add_argument("--theta", required=True, help="candidate file, same format as --input")
    p_cert.set_defaults(handler=_cmd_certify)

    p_audit = sub.add_parser("audit", help="non-crossing / lattice / submodularity checks")
    add_exact(p_audit)
    p_audit.add_argument("--tau2", default=None, help="second quantile level for the non-crossing audit")
    p_audit.add_argument("--checks", default="noncross,lattice,submodular")
    p_audit.add_argument("--trials", type=int, default=1000, help="submodularity fuzz trials per kernel")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.set_defaults(handler=_cmd_audit)

    def add_model(p):
        p.add_argument("--tau", type=float, default=0.5)
        p.add_argument("--lambda", dest="lam", default="star", help="penalty value, or 'star' for the rate-optimal one")
        p.add_argument("--signal", default="constant", choices=("constant", "cusp", "pwc"))
        p.add_argument("--level", type=float, default=0.0, help="constant signal level")
        p.add_argument("--alpha", type=float, default=1.0, help="smoothness exponent of the cusp signal")
        p.add_argument("--L0", type=float, default=1.0, help="local smoothness norm of the cusp signal")
        p.add_argument("--breaks", default=None, help="pwc break points, comma-separated in (0,1)")
        p.add_argument("--levels", default=None, help="pwc levels, one more than breaks")
        p.add_argument("--noise", default="cauchy", choices=("cauchy", "gaussian", "laplace"))
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--x0", type=float, default=0.5, help="monitored design point")
        p.add_argument("--reps", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--constants", nargs="*", default=None, metavar="k=v")
        p.add_argument("--output", required=True, help="output prefix; writes <prefix>.csv and <prefix>.json")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo pointwise error study at one n")
    p_sim.add_argument("--n", type=int, required=True)
    add_model(p_sim)
    p_sim.add_argument("--bounds", action="store_true", help="also evaluate the theoretical error interval")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_rate = sub.add_parser("rate", help="rate regression over an n-grid")
    p_rate.add_argument("--n-grid", required=True, help="comma-separated grid, e.g. 256,512,1024")
    add_model(p_rate)
    p_rate.set_defaults(handler=_cmd_rate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
