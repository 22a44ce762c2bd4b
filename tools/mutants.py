"""Run a fixed list of mutants of src/qtvd against the tests that should kill them.

Usage, from anywhere in a checkout:

    python3 tools/mutants.py

Each mutant replaces one exact text of one module under src/qtvd with
another.  For each mutant the tool copies src/, tests/ and
pyproject.toml to a temporary directory, applies the edit there, and
runs the mutant's test files with `pytest -x -q` from that copy, so the
checkout is never changed.  A mutant is killed when pytest fails and
survives when it passes.  Each line of the report gives the verdict, the
wall time, the name and the first failing test; the last line gives the
total wall time.  At most min(2, os.cpu_count()) mutants run at a time.

Equivalent mutants are on the list too, each with the argument why no
output can change; they are expected to survive.  A Tier-1 test checks
that every old text occurs exactly once in the current source, so a
refactor that moves the code fails there instead of skipping a mutant.
The tool itself is not part of Tier-1: each mutant runs whole test files.

Exit status: 0 when every non-equivalent mutant is killed and every
equivalent one survives, else 1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # a mutant that hangs counts as killed


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/qtvd
    old: str
    new: str
    reason: str
    tests: tuple = ("tests/test_solver.py",)
    equivalent: str = ""  # the argument why no output changes; empty for a mutant that must be killed


MUTANTS = (
    Mutant("lower-clip-enters-below", "solver.py", "if base <= neg_lam:", "if base < neg_lam:",
           "the lower clip skips a flat stretch that starts at -lam, so its tie is left unresolved"),
    Mutant("upper-clip-enters-at-bound", "solver.py", "if neg_top < neg_lam:", "if neg_top <= neg_lam:",
           "the upper clip walks a stretch already at the bound and clamps to its near end"),
    Mutant("upper-clip-no-stop-at-bound", "solver.py",
           "                    neg_top = s\n                    if s == neg_lam:\n                        hi = x\n"
           "                        break\n",
           "                    neg_top = s\n",
           "the upper clip walks past a stretch that reaches the bound exactly"),
    Mutant("lattice-representative-2c+3", "solver.py",
           "2 * (2 * q * lam.numerator // lam.denominator) + 1", "2 * (2 * q * lam.numerator // lam.denominator) + 3",
           "the fit runs on the next cell's representative, not lam's"),
    Mutant("reflection-keeps-tau", "solver.py",
           "_fit_core(list(map(neg, y)), unit - tau, lam, unit)", "_fit_core(list(map(neg, y)), tau, lam, unit)",
           "the lower fit reflects y but not tau"),
    Mutant("argmin-at-zero", "solver.py", "if base > 0:", "if base >= 0:",
           "the argmin stops at a flat stretch's left end, not its right end"),
    Mutant("argmin-halves-swapped", "solver.py",
           "for x in sorted(low) + sorted(map(neg, high)):", "for x in sorted(map(neg, high)) + sorted(low):",
           "the argmin scans the keys right of the pivot before those left of it, so not in ascending order"),
    Mutant("argmin-high-not-negated", "solver.py",
           "for x in sorted(low) + sorted(map(neg, high)):", "for x in sorted(low) + sorted(high):",
           "the argmin scans the right heap's stored keys, which are the negated breakpoints"),
    Mutant("insert-on-wrong-side", "solver.py", "if x_new < p:", "if x_new > p:",
           "a new breakpoint goes into the heap on the wrong side of the pivot"),
    Mutant("refill-one-key", "solver.py", "half = len(keys) // 2", "half = 1",
           "a refill leaves one key behind, so the next refill comes one pop later; no output changes"),
    Mutant("refill-every-key", "solver.py", "half = len(keys) // 2", "half = 0",
           "a refill moves every key back and forth; no output changes, only the amortized cost"),
    Mutant("refill-keeps-far-half", "solver.py", "heap[:] = keys[:half]", "heap[:] = keys[half:]",
           "a refill keeps the half of the keys farthest from the heap's top, so the nearest half is lost and the "
           "far half sits in both heaps"),
    Mutant("z-pins-swapped", "solver.py",
           "z_lo = np.append(_pick(theta[:-1] > theta[1:], lam, -lam, dtype), zero)\n"
           "    z_hi = np.append(_pick(theta[:-1] < theta[1:], -lam, lam, dtype), zero)",
           "z_lo = np.append(_pick(theta[:-1] < theta[1:], lam, -lam, dtype), zero)\n"
           "    z_hi = np.append(_pick(theta[:-1] > theta[1:], -lam, lam, dtype), zero)",
           "the certificate pins z to +lam at upward jumps instead of downward ones"),
    Mutant("scale-max-not-lcm", "solver.py", "common = lcm(scale, *distinct)", "common = max(scale, *distinct)",
           "exact values are scaled by a number that is not a common multiple of their denominators"),
    Mutant("admissible-at-min-length", "risk.py",
           "return ~((length <= min_len) | (dist < t)), length, dist",
           "return ~((length < min_len) | (dist < t)), length, dist",
           "an interval exactly min_interval_length long counts as admissible", tests=("tests/test_risk.py",)),
    Mutant("candidates-lose-ties", "risk.py",
           'last_b = np.searchsorted(tail, head, side="right") - 1\n'
           '    last_a = np.searchsorted(head, tail, side="right") - 1',
           'last_b = np.searchsorted(tail, head, side="left") - 1\n'
           '    last_a = np.searchsorted(head, tail, side="left") - 1',
           "each search stops before a tie, so the pairs resting on head[u] == tail[v] are lost",
           tests=("tests/test_risk.py",)),
    Mutant("candidates-without-per-v", "risk.py",
           "    return (np.concatenate((np.flatnonzero(last_b >= 0), last_a[last_a >= 0])),\n"
           "            np.concatenate((last_b[last_b >= 0], np.flatnonzero(last_a >= 0))))",
           "    return np.flatnonzero(last_b >= 0), last_b[last_b >= 0]",
           "only the pairs (u, last v with tail[v] <= head[u]) are candidates, missing those whose Bias is tail[v]",
           tests=("tests/test_risk.py",)),
    Mutant("candidates-without-per-u", "risk.py",
           "    return (np.concatenate((np.flatnonzero(last_b >= 0), last_a[last_a >= 0])),\n"
           "            np.concatenate((last_b[last_b >= 0], np.flatnonzero(last_a >= 0))))",
           "    return last_a[last_a >= 0], np.flatnonzero(last_a >= 0)",
           "only the pairs (last u with head[u] <= tail[v], v) are candidates, missing those whose Bias is head[u]",
           tests=("tests/test_risk.py",)),
    Mutant("lower-bound-at-tau", "risk.py",
           "(np.minimum, -1, 1.0 - tau, lowers)", "(np.minimum, -1, tau, lowers)",
           "the lower bound's SD term takes level tau, not 1 - tau", tests=("tests/test_risk.py",)),
    Mutant("lower-bound-reads-maxima", "risk.py",
           "(np.minimum, -1, 1.0 - tau, lowers)", "(np.maximum, -1, 1.0 - tau, lowers)",
           "the lower bound's Bias reads the running maxima of theta*, not the minima", tests=("tests/test_risk.py",)),
    Mutant("lower-bound-takes-min", "risk.py",
           "out.append(float(bound.min() if sign > 0 else bound.max()))",
           "out.append(float(bound.min() if sign > 0 else bound.min()))",
           "the lower bound is the least candidate, not the greatest", tests=("tests/test_risk.py",)),
    Mutant("median-without-abs", "risk.py", "median(map(abs, errors))", "median(errors)",
           "the reported median absolute error is the median of the signed errors", tests=("tests/test_risk.py",)),
    Mutant("constant-level-check-dropped", "risk.py", '    _check_finite("level", level)\n', "",
           "a non-finite constant level is rejected only by the step signal's check, which names `levels`",
           tests=("tests/test_risk.py",)),
    Mutant("constant-signal-gets-a-break", "risk.py",
           "return PiecewiseConstantSignal((), (level,))", "return PiecewiseConstantSignal((0.5,), (level, level))",
           "the constant signal carries a spurious break at 1/2, so its lam* radius stops there",
           tests=("tests/test_risk.py",)),
    Mutant("rank-dtype-never-widens", "envelope.py",
           "dtype = np.int16 if len(self.uniq) <= np.iinfo(np.int16).max else np.int32", "dtype = np.int16",
           "data with more than 32767 distinct values keep int16 ranks, which cannot hold the +inf rank",
           tests=("tests/test_envelope.py",)),
    Mutant("min-max-without-running-max", "envelope.py",
           "ft = np.maximum.accumulate(run[:, 0], axis=1)", "ft = run[:, 0].copy()",
           "the max for J reads FT only at J's own p, missing every I that avoids J's left end",
           tests=("tests/test_envelope.py",)),
    Mutant("c2-ignores-first-point", "envelope.py",
           "left = (int(at_first) - 1) if shares_left else 1", "left = -1 if shares_left else 1",
           "a shared left end at 1 counts as interior, so C_{I,J} is 1/2 too small when J touches 1",
           tests=("tests/test_envelope.py",)),
    Mutant("corner-keeps-column-patch", "envelope.py",
           "table[:, :, -1, -1] = tables[:, :, 0, -1][:, _PICK[True, True]]",
           "table[:, :, -1, -1] = tables[:, :, 0, -1][:, _PICK[False, True]]",
           "I in J = [1:n] that shares J's left end reads the constant of a J that avoids 1",
           tests=("tests/test_envelope.py",)),
    Mutant("index-dtype-always-int64", "envelope.py",
           "dtype = np.int64 if tau * n + 2 * lam + unit <= np.iinfo(np.int64).max else object", "dtype = np.int64",
           "selection indices on a lattice past int64 are computed in int64, which cannot hold them",
           tests=("tests/test_envelope.py",)),
    Mutant("closed-form-min-max-swapped", "envelope.py",
           "return np.full(self.n, 0 if self.tau == 0 else top - 1)",
           "return np.full(self.n, top - 1 if self.tau == 0 else 0)",
           "the finite side at tau = 0 with lam > 0 is max(y), not min(y), and the mirror at tau = 1",
           tests=("tests/test_envelope.py",)),
    Mutant("closed-form-lam-zero-takes-min", "envelope.py",
           "        if self.lam == 0:\n            return self.ranks\n", "",
           "at lam = 0 the finite side is min(y) (max(y) at tau = 1), not y", tests=("tests/test_envelope.py",)),
    Mutant("sweep-without-fold", "envelope.py",
           "                np.maximum(block, ff_tf[..., n - i :, i - 1 : i], out=block)\n", "",
           "the envelope sweep never folds FF into FT nor TF into TT, losing the I that avoid J's right end",
           tests=("tests/test_envelope.py",)),
    Mutant("sweep-folds-next-column", "envelope.py",
           "np.maximum(block, ff_tf[..., n - i :, i - 1 : i], out=block)",
           "np.maximum(block[..., 1:], ff_tf[..., n - i :, i : i + 1], out=block[..., 1:])",
           "step i folds column b = i + 1 into the columns b > i, so the I ending at the location itself never "
           "reach the J beyond it",
           tests=("tests/test_envelope.py",)),
    Mutant("sweep-folds-classes-swapped", "envelope.py",
           "np.maximum(block, ff_tf[..., n - i :, i - 1 : i], out=block)",
           "np.maximum(block, ff_tf[:, ::-1, n - i :, i - 1 : i], out=block)",
           "the sweep folds TF into FT and FF into TT, against the order the folds rely on",
           tests=("tests/test_envelope.py",)),
    Mutant("point-fold-without-running-max", "envelope.py",
           "            np.maximum.accumulate(ff_tf, axis=3, out=ff_tf)\n", "",
           "a point query's FT reads FF only one step before q, missing the I that end farther before J's end",
           tests=("tests/test_envelope.py",)),
    Mutant("cli-fits-route-swapped", "cli.py",
           'doc = {"L": _fraction_strs(solver._fit_scaled(inst, "lower"), scale),\n'
           '               "U": _fraction_strs(solver._fit_scaled(inst, "upper"), scale)}',
           'doc = {"L": _fraction_strs(solver._fit_scaled(inst, "upper"), scale),\n'
           '               "U": _fraction_strs(solver._fit_scaled(inst, "lower"), scale)}',
           "without --allow-large-n, `qtvd envelope` writes the upper fit as L and the lower fit as U",
           tests=("tests/test_cli.py",)),
    Mutant("cli-route-ignores-flag", "cli.py",
           "if 0 < tau < 1 and not args.allow_large_n:", "if 0 < tau < 1:",
           "--allow-large-n no longer enumerates the formula at tau in (0,1)", tests=("tests/test_cli.py",)),
    Mutant("cli-route-enumerates-by-default", "cli.py",
           "if 0 < tau < 1 and not args.allow_large_n:",
           "if 0 < tau < 1 and not args.allow_large_n and len(y) > 64:",
           "without the flag, tau in (0,1) enumerates the formula at n <= 64 instead of taking the fits",
           tests=("tests/test_cli.py",)),
    Mutant("reader-keeps-blank-lines", "cli.py",
           "    if len(parsed) < len(distinct):  # a blank line\n        rows = [line for line in rows if line in parsed]\n",
           "",
           "the reader never filters blank lines out, so a file with one fails", tests=("tests/test_cli.py",)),
    Mutant("any-str-list-joined-unchecked", "cli.py",
           "elif isinstance(value, _PlainStrs):", "elif isinstance(value[0], str):",
           "the writer joins every list of strs without escaping, not only the marked fraction texts",
           tests=("tests/test_cli.py",)),
    Mutant("no-exit-at-lower-bound", "solver.py",
           "                    if base == neg_lam:\n                        lo = x\n                        break\n"
           "                    s = base + jumps[x]\n",
           "                    s = base + jumps[x]\n",
           "the lower clip's exit where the value already equals -lam",
           equivalent="every live jump is positive, so from base == -lam the next step crosses the bound, "
                      "clamps at the same key and leaves its jump unchanged"),
    Mutant("insert-at-pivot-below", "solver.py", "if x_new < p:", "if x_new <= p:",
           "a new breakpoint equal to the pivot goes into L, not R",
           equivalent="max(L) <= p <= min(R) still holds, and the breakpoints are distinct keys of `jumps`, so "
                      "every walk and the argmin read them in the same ascending order"),
    Mutant("argmin-exits-at-zero", "solver.py",
           "            base += jumps[x]\n            if base > 0:\n",
           "            if base == 0:\n                break\n            base += jumps[x]\n            if base > 0:\n",
           "the argmin stops at the key after a stretch at 0 before adding that key's jump",
           equivalent="the scan starts below 0 and every live jump is positive, so from base == 0 the next key "
                      "takes the value past 0 and the scan stops at that same key"),
    Mutant("backward-clamps-swapped", "solver.py",
           "        if lo is not None and t < lo:\n            t = lo\n"
           "        elif hi is not None and t > hi:\n            t = hi\n",
           "        if hi is not None and t > hi:\n            t = hi\n"
           "        elif lo is not None and t < lo:\n            t = lo\n",
           "the backward pass tests the upper clamp first",
           equivalent="lo_k <= hi_k where both are set, so t < lo_k and t > hi_k never hold together"),
    Mutant("min-max-folds-before-own-p", "envelope.py",
           "    np.maximum(ft, run[:, 1], out=ft)\n    return ft.min(axis=(1, 2)).tolist()",
           "    tt = run[:, 1].copy()\n    np.maximum(tt[:, 1:], ft[:, :-1], out=tt[:, 1:])\n"
           "    return tt.min(axis=(1, 2)).tolist()",
           "TT takes FT's running maximum one step before J's own p, on a copy of TT",
           tests=("tests/test_envelope.py",),
           equivalent="avoiding J's left end raises c2, so FT <= TT and FF <= TF entry by entry (checked in "
                      "test_envelope.py): the FT entry at p, and the FF maximum folded into it, are at most "
                      "the TT entry, which already holds TF's maximum"),
    Mutant("point-fold-before-own-q", "envelope.py",
           "np.maximum(ft_tt, ff_tf, out=ft_tt)", "np.maximum(ft_tt[..., 1:], ff_tf[..., :-1], out=ft_tt[..., 1:])",
           "a point query's FT (TT) takes FF's (TF's) running maximum one step before J's own q",
           tests=("tests/test_envelope.py",),
           equivalent="avoiding J's right end raises c2, so FF <= FT and TF <= TT entry by entry (checked in "
                      "test_envelope.py): the running maximum at q differs from the one at q - 1 only by the "
                      "entry at q, which the sharing class's own entry already bounds"),
    Mutant("sweep-folds-after-own-column", "envelope.py",
           "                np.maximum(block, ff_tf[..., n - i :, i - 1 : i], out=block)\n",
           "                fold = ft_tt[..., n - i :, i:]\n"
           "                np.maximum(fold, ff_tf[..., n - i :, i - 1 : i], out=fold)\n",
           "step i folds column b = i of FF (TF) only into the columns b > i of FT (TT)",
           tests=("tests/test_envelope.py",),
           equivalent="avoiding J's right end raises c2, so FF <= FT and TF <= TT entry by entry (checked in "
                      "test_envelope.py): column b = i of FF (TF) is at most the same I's entry in FT (TT), "
                      "so folding it there changes nothing"),
)


def run(mutant: Mutant) -> tuple:
    """(killed, seconds, the failing test or a note) for one mutant, on a temporary copy of the checkout."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qtvd-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / "src" / "qtvd" / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, time.perf_counter() - start, [f"timed out after {TIMEOUT_S} s"]
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode not in (0, 1):
        failed = failed or [f"pytest exit status {proc.returncode}"]
    return proc.returncode != 0, time.perf_counter() - start, failed


def main() -> int:
    start = time.perf_counter()
    ok = True
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        for mutant, (killed, seconds, failed) in zip(MUTANTS, pool.map(run, MUTANTS)):
            expected = not mutant.equivalent
            ok &= killed == expected
            verdict = ("killed" if killed else "survived") + ("" if killed == expected else " (UNEXPECTED)")
            kind = " [equivalent]" if mutant.equivalent else ""
            print(f"{verdict:21s} {seconds:6.1f} s  {mutant.name}{kind}  {' '.join(failed)}", flush=True)
    print(f"total {time.perf_counter() - start:.1f} s for {len(MUTANTS)} mutants")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
