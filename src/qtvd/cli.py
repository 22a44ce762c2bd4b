"""Command-line front end with reproducible, file-based I/O.

Commands: fit, envelope, certify, audit, simulate, rate.  Data files are
plain text (one value per line) or a single-column CSV with header "y";
values may be decimal strings or exact fractions like "3/4", both parsed
exactly.  Envelope output encodes infinities as the strings "-inf" and
"+inf" since JSON numbers cannot carry them; rationals are emitted as
fraction strings so exactness survives the file boundary.

`fit` and `certify` stay on exact integers from file to output: the
reader strips and parses each distinct line once and also returns the
data scaled by the lcm of their denominators; the instance is built
holding those ints, `fit` certifies the scaled theta the solver returns,
and `certify` the scaled candidate, read as ints only.  theta, g and z
are written from their ints: each distinct value's fraction text comes
from the integer gcd of its numerator and the scale, with no Fraction
built, so it holds only digits, "-" and "/".  Such texts, and the
envelope's bounds (fraction texts, "-inf" and "+inf"), come in a marked
list (`_PlainStrs`), which is written with one join and no escape check;
any other list is written item by item.

`envelope` writes, for tau in (0,1), the lower and upper extremal fits
of the reader's ints, which equal L and U exactly (criterion 2), as the
fraction texts of `qtvd.envelope`'s formula; `--allow-large-n`
enumerates that formula instead, O(n^3), as the fits' reference.  tau
in {0, 1} takes its closed forms at any n.

Exit status: 0 on success, 2 on validation failure (with a line
diagnostic for malformed input), 3 when an audit finds a violation, so
CI pipelines can gate on structural properties.

Identical configuration and seed produce byte-identical JSON/CSV
artifacts; wall-clock timings go to stderr only.  The JSON layout is
that of `json.dumps(doc, sort_keys=True, indent=2)`, byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd
from typing import Optional, Sequence

from . import penalties, risk, solver
from .envelope import envelope as _envelope

__all__ = ["main", "build_parser"]

#: --noise choices and the family each builds from --scale.
_NOISES = {"cauchy": risk.Cauchy, "gaussian": risk.Gaussian, "laplace": risk.Laplace}


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{what}: could not parse {text.strip()!r} as a rational") from exc


def _read_scaled(path: str) -> tuple[tuple, list[str], dict]:
    """((s, the values of a data file times s as ints), its data lines, the Fraction of each distinct data
    line), s the lcm of the denominators: `solver._scaled`.  Lines are kept raw, as in the file (unstripped,
    blank lines dropped), and the dict is keyed by them; `certify` reads its candidate as the ints only.

    Each distinct raw line is stripped and parsed once, in order of first
    appearance, so a malformed value is reported at the first line that
    holds it; fitted theta files and tie-heavy data repeat few lines.  The
    header is looked for on the first non-blank line, and blank lines are
    filtered out only when the file has one.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:  # a leading byte-order mark is not data
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    start = next((k for k, line in enumerate(lines) if line.strip()), None)  # index where the data begin
    if start is None:
        raise ValueError(f"{path}: no data values found")
    if lines[start].strip().lower() == "y":  # single-column CSV header; "y," is a data line
        start += 1
    rows = lines[start:]
    distinct = dict.fromkeys(rows)
    parsed = {}
    for line in distinct:
        text = line.strip()
        if text:
            number = text.rstrip(",")
            try:
                parsed[line] = Fraction(number)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}:{lines.index(line, start) + 1}: could not parse {number!r}") from exc
    if len(parsed) < len(distinct):  # a blank line
        rows = [line for line in rows if line in parsed]
    if not rows:
        raise ValueError(f"{path}: header only, no data values")
    scale, scaled = solver._scaled(list(parsed.values()))
    ints = dict(zip(parsed, scaled))
    return (scale, list(map(ints.__getitem__, rows))), rows, parsed


def _read_values(path: str) -> tuple[list[Fraction], tuple]:
    """(values, (s, values times s as ints)) of a data file, as `_read_scaled` reads it."""
    scaled, rows, parsed = _read_scaled(path)
    return list(map(parsed.__getitem__, rows)), scaled


class _PlainStrs(list):
    """A list of strs that need no JSON escaping, which `_json` writes with one join unchecked."""


def _json(value, indent: str) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` nested at `indent`, byte for byte, without the
    pure-Python encoder that `indent` selects: only scalars go through `json.dumps`.  A `_PlainStrs` is
    one join; any other list is written item by item."""
    if isinstance(value, str):
        return _json_str(value)
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        ends, items = "{}", (f"{_json_str(k)}: {_json(v, inner)}" for k, v in sorted(value.items()))
    elif isinstance(value, _PlainStrs):
        ends, items = "[]", ['"' + f'",\n{inner}"'.join(value) + '"']
    else:
        ends, items = "[]", (_json(v, inner) for v in value)
    return ends[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + ends[1]


def _emit(doc: dict, path: Optional[str]) -> None:
    text = _json(doc, "") + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _fraction_strs(ints: list, scale: int) -> _PlainStrs:
    """str(Fraction(v, scale)) of each int for scale > 0, once per distinct int: fitted vectors and witnesses
    repeat a few.  A level's text comes from the gcd of its two ints, written with `str` and one "/"; no
    Fraction is built, and only digits, "-" and "/" are written, so the list is a `_PlainStrs`."""
    text = {}
    for v in set(ints):
        d = gcd(v, scale)
        text[v] = str(v // d) if d == scale else f"{v // d}/{scale // d}"
    return _PlainStrs(map(text.__getitem__, ints))


def _parse_constants(pairs: Optional[Sequence[str]], noise, tau: float) -> risk.RiskConstants:
    overrides = {}
    known = {f.name for f in dataclasses.fields(risk.RiskConstants)}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--constants expects k=v, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"unknown constant {key!r} (known: {sorted(known)})")
        try:
            overrides[key] = float(raw)
        except ValueError as exc:
            raise ValueError(f"--constants {key}: bad float {raw!r}") from exc
    if "c1" in overrides:
        return risk.RiskConstants(**overrides)
    return risk.RiskConstants.for_noise(noise, tau, **overrides)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _exact_inputs(args) -> tuple[list[Fraction], Fraction, Fraction, tuple]:
    """--input, --tau and --lambda of fit/envelope/certify/audit, parsed exactly, and y's scaled ints."""
    y, scaled = _read_values(args.input)
    return y, _parse_rational(args.tau, "--tau"), _parse_rational(args.lam, "--lambda"), scaled


def _witness_doc(inst: solver.Instance, theta: tuple) -> Optional[dict]:
    """`certify`'s g and z for theta's (scale, ints), as the strs of their Fractions."""
    witness = solver._witness(inst, *solver._one_scale(inst, theta)[1:])
    if witness is None:
        return None
    g, z, one = witness
    return {"g": _fraction_strs(g, one), "z": _fraction_strs(z, one)}


def _cmd_fit(args) -> int:
    inst = solver._instance(*_exact_inputs(args))
    result = solver.fit(inst, args.extremal)
    scale, theta = result._scaled_theta
    doc = {
        "theta": _fraction_strs(theta, scale),
        "objective": str(result.objective),
        "extremality": result.extremality,
        "certificate": _witness_doc(inst, result._scaled_theta),
    }
    _emit(doc, args.output)
    return 0


def _cmd_envelope(args) -> int:
    y, tau, lam, scaled = _exact_inputs(args)
    if 0 < tau < 1 and not args.allow_large_n:
        # The extremal fits are L and U exactly (criterion 2)
        inst, scale = solver._instance(y, tau, lam, scaled), scaled[0]
        doc = {"L": _fraction_strs(solver._fit_scaled(inst, "lower"), scale),
               "U": _fraction_strs(solver._fit_scaled(inst, "upper"), scale)}
    else:
        env = _envelope(y, tau, lam, allow_large_n=True)
        # repr of a bound is its fraction text, "-inf" or "+inf": nothing to escape.  The ends share one object per
        # distinct bound, so each is formatted once, keyed by id: an ExtendedValue hashes slower than it formats.
        text = {key: repr(v) for key, v in {id(v): v for v in (*env.lower, *env.upper)}.items()}
        doc = {k: _PlainStrs(map(text.__getitem__, map(id, ends))) for k, ends in (("L", env.lower), ("U", env.upper))}
    _emit(doc, args.output)
    return 0


def _cmd_certify(args) -> int:
    inputs = _exact_inputs(args)
    theta = _read_scaled(args.theta)[0]
    cert = _witness_doc(solver._instance(*inputs), theta)
    _emit({"feasible": False} if cert is None else {"feasible": True, **cert}, args.output)
    return 0


def _cmd_audit(args) -> int:
    y, tau1, lam, _ = _exact_inputs(args)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = ("noncross", "submodular")
    if not checks:  # an audit that runs no check must not report ok
        raise ValueError(f"--checks names no check (choose from {', '.join(known)})")
    unknown = set(checks) - set(known)
    if unknown:
        raise ValueError(f"unknown audit checks: {sorted(unknown)}")
    doc: dict = {}
    ok = True
    if "noncross" in checks:
        if args.tau2 is None:
            raise ValueError("audit noncross needs --tau2")
        tau2 = _parse_rational(args.tau2, "--tau2")
        report = penalties.noncrossing_audit(y, lam, tau1, tau2)  # validates y, tau1 and lam as an Instance
        doc["noncross"] = {"ok": report.ok, "worst_gap": str(report.worst_gap)}
        ok = ok and report.ok
    else:
        solver.Instance(tuple(y), tau1, lam)  # every check runs on a valid instance
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
    if not args.breaks or not args.levels:  # "pwc"
        raise ValueError("signal pwc needs --breaks and --levels")
    return risk.PiecewiseConstantSignal(_floats(args.breaks, "--breaks"), _floats(args.levels, "--levels"))


def _floats(text: str, option: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{option}: bad value {text!r}") from exc


def _model_inputs(args) -> tuple[risk.Signal, risk.Noise, float | str]:
    """Signal, noise and --lambda of simulate/rate; "star" is resolved per n by risk.simulate."""
    if not 0.0 <= args.x0 <= 1.0:  # checked before the cusp signal is built from it
        raise ValueError(f"--x0 must be a finite design point in [0, 1], got {args.x0}")
    signal, noise = _build_signal(args), _NOISES[args.noise](args.scale)
    if args.lam == "star":
        return signal, noise, args.lam
    try:
        return signal, noise, float(_parse_rational(args.lam, "--lambda"))
    except OverflowError as exc:
        raise ValueError(f"--lambda: {args.lam.strip()!r} is outside the float range") from exc


def _write_csv(path: str, reports: Sequence[risk.RiskReport]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(risk.CSV_HEADER)
        writer.writerows(row for report in reports for row in report.csv_rows())


def _cmd_simulate(args) -> int:
    signal, noise, lam = _model_inputs(args)
    model = risk.ModelSpec(args.n, args.tau, signal, noise, seed=args.seed)
    if args.constants is not None and not args.bounds:
        raise ValueError("--constants needs --bounds")
    constants = _parse_constants(args.constants, noise, args.tau) if args.bounds else None
    report = risk.simulate(model, lam, args.reps, x0=args.x0, constants=constants)
    _write_csv(args.output + ".csv", [report])
    _emit(report.summary(), args.output + ".json")
    print(f"simulate: {report.runtime_seconds:.2f}s, wrote {args.output}.csv/.json", file=sys.stderr)
    return 0


def _cmd_rate(args) -> int:
    signal, noise, lam = _model_inputs(args)
    try:
        grid = [int(v) for v in args.n_grid.split(",")]
    except ValueError as exc:
        raise ValueError(f"--n-grid: bad value {args.n_grid!r}") from exc
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

    def add_exact(p):
        p.add_argument("--input", required=True, help="data file: one value per line or CSV with header y")
        p.add_argument("--tau", required=True, help="quantile level, exact (e.g. 1/4 or 0.25)")
        p.add_argument("--lambda", dest="lam", required=True, help="penalty, exact (e.g. 1/2)")
        p.add_argument("--output", default=None, help="JSON output path (default stdout)")

    p_fit = sub.add_parser("fit", help="exact minimiser with optimality certificate")
    add_exact(p_fit)
    p_fit.add_argument("--extremal", default="any", choices=("lower", "upper", "any"))
    p_fit.set_defaults(handler=_cmd_fit)

    p_env = sub.add_parser("envelope", help="exact pointwise solution-set bounds")
    add_exact(p_env)
    p_env.add_argument("--allow-large-n", action="store_true",
                       help="enumerate the min-max formula, O(n^3), where tau in (0,1) otherwise takes L and U "
                            "from the extremal fits")
    p_env.set_defaults(handler=_cmd_envelope)

    p_cert = sub.add_parser("certify", help="decide optimality of a candidate vector")
    add_exact(p_cert)
    p_cert.add_argument("--theta", required=True, help="candidate file, same format as --input")
    p_cert.set_defaults(handler=_cmd_certify)

    p_audit = sub.add_parser("audit", help="non-crossing / submodularity checks")
    add_exact(p_audit)
    p_audit.add_argument("--tau2", default=None, help="second quantile level for the non-crossing audit")
    p_audit.add_argument("--checks", default="noncross,submodular")
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
        p.add_argument("--noise", default="cauchy", choices=_NOISES)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--x0", type=float, default=0.5, help="monitored design point")
        p.add_argument("--reps", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", required=True, help="output prefix; writes <prefix>.csv and <prefix>.json")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo pointwise error study at one n")
    p_sim.add_argument("--n", type=int, required=True)
    add_model(p_sim)
    p_sim.add_argument("--bounds", action="store_true", help="also evaluate the theoretical error interval")
    p_sim.add_argument("--constants", nargs="*", default=None, metavar="k=v", help="constant overrides; needs --bounds")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_rate = sub.add_parser("rate", help="rate regression over an n-grid")
    p_rate.add_argument("--n-grid", required=True, help="comma-separated grid, e.g. 256,512,1024")
    add_model(p_rate)
    p_rate.set_defaults(handler=_cmd_rate)

    return parser


#: One parser per process: parse_args leaves it unchanged and builds a fresh namespace per call.
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
