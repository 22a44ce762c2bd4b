"""Benchmark this checkout against an earlier revision in paired runs, and record them as BENCH_<pr>.json.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --against REV [--pairs K] [--workload W] [--trace 1] [--pr N]

exports REV with `git archive` to .bench_work/against-<commit>/ and, for
pair i = 0 .. K-1 (K = 10 by default), runs each tree's own `bench/run.py
--workload W --seed i --seconds <run_seconds> --trace 0|1` on every
workload in BENCHMARK.json or on W alone, REV first on even pairs and this
checkout first on odd ones.  Before the pairs it byte-compiles `src/` and
`bench/` of both trees with `compileall`, which writes even under
PYTHONDONTWRITEBYTECODE=1: the export would otherwise start without the
`.pyc` files the checkout holds, and setup_s would favour the checkout.
Per metric it prints each pair's ratio (this
checkout over REV; the difference for a metric that is not always
positive), each side's median and quartiles, the median ratio and how many
pairs this checkout wins (ties count for neither side).  A metric is marked
GAIN when there are at least MIN_PAIRS pairs, this checkout wins at least
9/10 of them and its median is better than REV's by more than REV's IQR
and, for a metric with a `bound` in BENCHMARK.json, by at least a tenth
of that bound (a fraction of REV's median): a tight spread alone does not
make a move too small to matter a gain.
It is marked WORSE when its median is worse than REV's by more than the
metric's `bound` in BENCHMARK.json, a fraction of REV's median; per-layer
metrics (--trace 1) have no bound.  A bounded metric that is neither is
marked UNRESOLVED when REV's IQR exceeds that bound, unless every run of
this checkout beats every run of REV: the spread is too wide to call it
unchanged.  The export is removed at the end.

--pr N also times the Tier-1 suite (`python -m pytest -q
--continue-on-collection-errors`, each tree's src on the path) in
TIER1_RUNS pairs of REV's tree and this checkout, REV first on even pairs,
and writes BENCH_<N>.json, schema qtvd.bench-record/3: per workload,
whether every run on both sides was correct with 0 failed ops and each
end-to-end metric's paired summary; the full commit of REV; the commit,
src digest, machine and versions the benchmark reports; and per Tier-1
side the wall times, summary line and failed runs, with the summary of
the pairs' differences (this checkout minus REV).  A record covers every
workload untraced.

Exit status 1 when a run failed or was incorrect, a metric is WORSE or a
Tier-1 run of this checkout failed, else 0.  Standard library only;
bench/run.py writes its scratch files to .bench_work/.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "qtvd.bench-record/3"
TIER1_RUNS = 3
MIN_PAIRS = 10  # fewest pairs on which a gain is marked


def summarise(values: list) -> dict:
    """Median, quartiles and IQR of the runs of one metric (quartiles need two runs)."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def run_bench(workload: str, seed: int, seconds: float, tree: Path, trace: int) -> tuple:
    """(env, result) of one run of `tree`'s bench/run.py; result is None when the run printed no result line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    env = None
    for line in lines:
        if line.startswith("# ") and "  env " in line:
            env = json.loads(line.split("  env ", 1)[1])
            break
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return env, None
    return env, json.loads(lines[-1])


def run_tier1(base_tree: Path) -> dict:
    """TIER1_RUNS paired Tier-1 runs of `base_tree` and this checkout, REV first on even pairs.

    Per side ("base", "change"): the wall-time summary, the last pytest
    summary line and the failed-run count; "pair_diff_s" summarises each
    pair's change - base wall time.
    """
    sides = [("base", base_tree), ("change", ROOT)]
    walls, failed, summary = {"base": [], "change": []}, {"base": 0, "change": 0}, {"base": "", "change": ""}
    for pair in range(TIER1_RUNS):
        for label, tree in (sides if pair % 2 == 0 else sides[::-1]):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                cwd=tree, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(tree / "src")},
            )
            walls[label].append(time.perf_counter() - start)
            failed[label] += proc.returncode != 0
            summary[label] = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"# tier1 pair {pair} {label}: {summary[label]} ({walls[label][-1]:.1f} s wall)", file=sys.stderr)
    diffs = [c - b for b, c in zip(walls["base"], walls["change"])]
    record = {label: {"wall_s": {"unit": "s", **summarise(walls[label])}, "summary": summary[label],
                      "failed_runs": failed[label]} for label, _ in sides}
    return {**record, "pair_diff_s": {"unit": "s", **summarise(diffs)}}


def export(rev: str) -> tuple:
    """(full commit of `rev`, a fresh copy of its committed tree under .bench_work/)."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tree = ROOT / ".bench_work" / f"against-{commit[:12]}"
    shutil.rmtree(tree, ignore_errors=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    return commit, tree


def compile_tree(tree: Path) -> None:
    """Write the `.pyc` files of `tree`'s src/ and bench/, so both sides start with the same bytecode state."""
    for part in ("src", "bench"):
        compileall.compile_dir(tree / part, quiet=1)


def compare_pairs(pairs: list, metrics: list) -> tuple:
    """(report lines, {metric: summary}) of paired runs.

    `pairs` holds (seed, base result, change result) with results as
    printed by bench/run.py; `metrics` holds BENCHMARK.json metric entries.
    A pair's move is the ratio change / base when every value of the
    metric is positive, else the difference change - base (a metric that
    reaches zero or below, like trace.overhead_pct, has no meaningful ratio).
    """
    lines, out = [], {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        rows = [(seed, a["metrics"][name]["value"], b["metrics"][name]["value"]) for seed, a, b in pairs]
        if not rows:
            continue
        wins = sum((b < a) if lower else (b > a) for _, a, b in rows)
        kind = "ratio" if all(a > 0 and b > 0 for _, a, b in rows) else "diff"
        moves = [b / a if kind == "ratio" else b - a for _, a, b in rows]
        base, change = summarise([a for _, a, _ in rows]), summarise([b for _, _, b in rows])
        better_by = base["median"] - change["median"] if lower else change["median"] - base["median"]
        gain = (len(rows) >= MIN_PAIRS and 10 * wins >= 9 * len(rows) and better_by > base["iqr"]
                and better_by >= m.get("bound", 0) / 10 * abs(base["median"]))
        worse = "bound" in m and -better_by > m["bound"] * abs(base["median"])
        all_beat = (max(change["values"]) < min(base["values"]) if lower
                    else min(change["values"]) > max(base["values"]))
        unresolved = (not gain and not worse and "bound" in m and not all_beat
                      and base["iqr"] > m["bound"] * abs(base["median"]))
        out[name] = {"pairs": len(rows), "wins": wins, f"median_{kind}": statistics.median(moves),
                     "base": base, "change": change, "gain": gain, "worse": worse, "unresolved": unresolved}
        lines.append(f"{name} [{m['unit']}]: base {base['median']:.4g} (q1 {base['q1']:.4g}, q3 {base['q3']:.4g}) -> "
                     f"change {change['median']:.4g} (q1 {change['q1']:.4g}, q3 {change['q3']:.4g}); "
                     f"median {kind} {statistics.median(moves):.4g}, change wins {wins}/{len(rows)}"
                     f"{'; GAIN' if gain else ''}{'; WORSE' if worse else ''}{'; UNRESOLVED' if unresolved else ''}")
        lines.append(f"  pair {kind}s: " + ", ".join(f"s{seed} {v:.4g}" for (seed, _, _), v in zip(rows, moves)))
    return lines, out


def against(base: str, base_tree: Path, n_pairs: int, workloads: list, spec: dict, trace: int) -> tuple:
    """Run and report paired A/B runs of `base_tree` (named `base` in the report) and this checkout.

    Returns (the env this checkout's bench reported, {workload:
    {"correct", "metrics"}}), where "correct" says that every run on both
    sides printed a correct result with 0 failed ops.
    """
    metrics = spec["per_layer" if trace else "end_to_end"]
    env, cases = None, {}
    compile_tree(base_tree)
    compile_tree(ROOT)
    for workload in workloads:
        pairs, correct = [], True
        for seed in range(n_pairs):
            sides = [("base", base_tree), ("change", ROOT)]
            results = {}
            for label, tree in (sides if seed % 2 == 0 else sides[::-1]):
                run_env, result = run_bench(workload, seed, spec["run_seconds"], tree, trace)
                if label == "change":
                    env = env or run_env
                results[label] = result
                correct &= result is not None and result["correct"] and not result["failed"]
                status = "no result" if result is None else f"correct={result['correct']} failed={result['failed']}"
                print(f"# {workload} seed {seed} {label}: {status}", file=sys.stderr)
            if results["base"] is not None and results["change"] is not None:
                pairs.append((seed, results["base"], results["change"]))
        lines, summary = compare_pairs(pairs, metrics)
        print(f"{workload}: {len(pairs)} pairs, base {base} vs this checkout, run_seconds {spec['run_seconds']}")
        print("\n".join(lines))
        cases[workload] = {"correct": correct, "metrics": summary}
    return env, cases


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", metavar="REV", required=True, help="paired A/B runs against this git revision")
    p.add_argument("--pairs", type=int, default=10, help="pairs per workload, on seeds 0 .. K-1")
    p.add_argument("--workload", default=None, help="one workload instead of all")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 compares the per-layer metrics of traced runs")
    p.add_argument("--pr", type=int, help="also time Tier-1 and write the pairs to BENCH_<pr>.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        p.error(f"unknown workload {args.workload!r} (choose from {', '.join(names)})")
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    if args.pr is not None and (args.workload is not None or args.trace):
        p.error("--pr records every workload untraced; drop --workload and --trace")
    commit, base_tree = export(args.against)
    try:
        env, cases = against(f"{args.against} ({commit[:12]})", base_tree, args.pairs,
                             [args.workload] if args.workload else names, spec, args.trace)
        times = None if args.pr is None else run_tier1(base_tree)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    bad = sum(not c["correct"] or any(m["worse"] for m in c["metrics"].values()) for c in cases.values())
    if args.pr is None:
        return 1 if bad else 0
    env = env or {}
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "bench", "BENCHMARK.json"],
                           cwd=ROOT, capture_output=True, text=True).stdout.strip() != ""
    record = {
        "schema": SCHEMA,
        "pr": args.pr,
        "against": commit,
        "git_commit": env.get("git_commit"),
        "src_sha256": env.get("src_sha256"),
        "uncommitted_changes": dirty,
        "machine": {"cpu": env.get("cpu"), "nproc": env.get("nproc"), "platform": platform.platform()},
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "run_seconds": spec["run_seconds"],
        "pairs": args.pairs,
        "cases": cases,
        "tier1": times,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    change = times["change"]
    print(f"wrote {out.name}; tier1 wall median {times['base']['wall_s']['median']:.1f} s at REV, "
          f"{change['wall_s']['median']:.1f} s here (pair difference median {times['pair_diff_s']['median']:+.1f} s), "
          f"{change['summary']}")
    return 1 if bad or change["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
