"""Record one point of the benchmark trajectory as BENCH_<pr>.json and diff it against the last one.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --pr N

For every workload in BENCHMARK.json and seeds 0 .. SEEDS-1, runs

    python3 bench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

and reads the JSON object on the last line of its output.  The Tier-1 suite
(`python -m pytest -q --continue-on-collection-errors` with src on the path)
is timed TIER1_RUNS times as one more case, `tier1`, with the single metric
`wall_s`.  Each metric is stored as the values of all runs with their
median, quartiles and IQR, next to the machine, the Python and numpy
versions and the git commit that the benchmark reports.

The new record is then compared with the newest BENCH_<m>.json with m < N:
a median that moved in the worse direction by more than the metric's
`bound` in BENCHMARK.json (a fraction of the earlier median) is flagged, as
is a case with an incorrect run or a larger failed fraction.  Tier-1 wall
time has no bound; its move is printed but never flagged.  The exit status
is 1 when something is flagged or a run failed, else 0.

Paired A/B against an earlier revision:

    python3 tools/bench_record.py --against REV --pairs K [--workload W] [--trace 1]

exports REV with `git archive` to .bench_work/against-<commit>/ and, for
pair i = 0 .. K-1, runs each tree's own bench/run.py on seed i, REV first
on even pairs and this checkout first on odd ones.  Per metric it prints
each pair's ratio (this checkout over REV), each side's median and
quartiles, the median ratio (the median difference for a metric that is
not always positive) and how many pairs this checkout wins (ties count
for neither side).  A metric is marked as a gain when there are at
least MIN_PAIRS pairs, this checkout wins at least 9/10 of them and its
median is better than REV's by more than REV's IQR.  --trace 1 compares
the per-layer metrics of traced runs instead.  The report adds evidence:
it writes no record and flags nothing, and it removes the export when it
ends.  The exit status is 1 when a run failed or was incorrect, else 0.

Standard library only.  The tool reads bench/ and BENCHMARK.json and
changes neither; bench/run.py writes its scratch files to .bench_work/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "qtvd.bench-record/1"
TIER1 = "tier1"
SEEDS = 5  # bench seeds per workload
TIER1_RUNS = 3
MIN_PAIRS = 10  # fewest pairs on which --against marks a gain


def summarise(values: list) -> dict:
    """Median, quartiles and IQR of the runs of one metric (quartiles need two runs)."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def run_bench(workload: str, seed: int, seconds: float, tree: Path = ROOT, trace: int = 0) -> tuple:
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


def run_tier1() -> tuple:
    """(wall seconds, pytest summary line, return code) of one Tier-1 run."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return wall, summary, proc.returncode


def record(pr: int, spec: dict) -> dict:
    seconds = spec["run_seconds"]
    cases = {}
    env = None
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(SEEDS):
            run_env, result = run_bench(workload, seed, seconds)
            env = env or run_env
            runs.append(result)
            status = "no result" if result is None else f"correct={result['correct']} failed={result['failed']}"
            print(f"# {workload} seed {seed}: {status}", file=sys.stderr)
        done = [r for r in runs if r is not None]
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in done]
            if values:
                metrics[m["name"]] = {"unit": m["unit"], **summarise(values)}
        cases[workload] = {
            "runs": len(runs),
            "results": len(done),
            "correct": len(done) == len(runs) and all(r["correct"] for r in done),
            "failed_frac": sum(r["failed"] for r in done) / sum(r["attempted"] for r in done) if done else 1.0,
            "metrics": metrics,
        }
    walls, summaries, codes = [], [], []
    for _ in range(TIER1_RUNS):
        wall, summary, code = run_tier1()
        walls.append(wall)
        summaries.append(summary)
        codes.append(code)
        print(f"# {TIER1}: {summary} ({wall:.1f} s wall)", file=sys.stderr)
    cases[TIER1] = {
        "runs": TIER1_RUNS,
        "results": TIER1_RUNS,
        "correct": not any(codes),
        "failed_frac": sum(1 for c in codes if c) / TIER1_RUNS,
        "summary": summaries[-1],
        "metrics": {"wall_s": {"unit": "s", **summarise(walls)}},
    }
    env = env or {}
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "bench", "BENCHMARK.json"],
                           cwd=ROOT, capture_output=True, text=True).stdout.strip() != ""
    return {
        "schema": SCHEMA,
        "pr": pr,
        "git_commit": env.get("git_commit"),
        "src_sha256": env.get("src_sha256"),
        "uncommitted_changes": dirty,
        "machine": {"cpu": env.get("cpu"), "nproc": env.get("nproc"), "platform": platform.platform()},
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "run_seconds": seconds,
        "seeds": list(range(SEEDS)),
        "cases": cases,
    }


def previous_record(pr: int) -> Path | None:
    """The BENCH_<m>.json in the checkout root with the largest m < pr."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match.group(1)) < pr:
            found.append((int(match.group(1)), path))
    return max(found)[1] if found else None


def diff(old: dict, new: dict, spec: dict) -> tuple:
    """(report lines, number flagged): each shared metric's move between two records."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines, flagged = [], 0
    if (old.get("machine"), old.get("python"), old.get("numpy")) != (new.get("machine"), new.get("python"),
                                                                     new.get("numpy")):
        lines.append("note: machine or versions differ between the two records; moves may not be comparable")
    for case, now in new["cases"].items():
        before = old.get("cases", {}).get(case)
        if before is None:
            lines.append(f"{case}: new case, nothing to compare")
            continue
        if not now["correct"] or now["failed_frac"] > before["failed_frac"]:
            flagged += 1
            lines.append(f"FLAG {case}: correct={now['correct']}, failed fraction "
                         f"{before['failed_frac']:.4g} -> {now['failed_frac']:.4g}")
        for name, stat in now["metrics"].items():
            if name not in before["metrics"]:
                continue
            a, b = before["metrics"][name]["median"], stat["median"]
            move = (b - a) / a if a else 0.0
            spec_m = bounds.get(name) if case != TIER1 else None
            worse = spec_m is not None and (move if spec_m["better"] == "lower" else -move) > spec_m["bound"]
            flagged += worse
            bound = f"bound {spec_m['bound']:.0%}" if spec_m else "no bound"
            lines.append(f"{'FLAG ' if worse else ''}{case}.{name}: {a:.4g} -> {b:.4g} {stat['unit']} "
                         f"({move:+.1%}, {bound}; IQR {before['metrics'][name]['iqr']:.3g} -> {stat['iqr']:.3g})")
    return lines, flagged


def export(rev: str) -> Path:
    """A fresh copy of the committed tree of `rev` under .bench_work/."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tree = ROOT / ".bench_work" / f"against-{commit[:12]}"
    shutil.rmtree(tree, ignore_errors=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    return tree


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
        gain = len(rows) >= MIN_PAIRS and 10 * wins >= 9 * len(rows) and better_by > base["iqr"]
        out[name] = {"pairs": len(rows), "wins": wins, f"median_{kind}": statistics.median(moves),
                     "base": base, "change": change, "gain": gain}
        lines.append(f"{name} [{m['unit']}]: base {base['median']:.4g} (q1 {base['q1']:.4g}, q3 {base['q3']:.4g}) -> "
                     f"change {change['median']:.4g} (q1 {change['q1']:.4g}, q3 {change['q3']:.4g}); "
                     f"median {kind} {statistics.median(moves):.4g}, change wins {wins}/{len(rows)}"
                     f"{'; GAIN' if gain else ''}")
        lines.append(f"  pair {kind}s: " + ", ".join(f"s{seed} {v:.4g}" for (seed, _, _), v in zip(rows, moves)))
    return lines, out


def against(rev: str, n_pairs: int, workloads: list, spec: dict, trace: int) -> int:
    """Run and report paired A/B runs of REV's tree and this checkout; 1 if a run failed or was incorrect."""
    base_tree = export(rev)
    metrics = spec["per_layer" if trace else "end_to_end"]
    bad = 0
    try:
        for workload in workloads:
            pairs = []
            for seed in range(n_pairs):
                sides = [("base", base_tree), ("change", ROOT)]
                results = {}
                for label, tree in (sides if seed % 2 == 0 else sides[::-1]):
                    _, results[label] = run_bench(workload, seed, spec["run_seconds"], tree, trace)
                    result = results[label]
                    ok = result is not None and result["correct"] and not result["failed"]
                    bad += not ok
                    status = "no result" if result is None else f"correct={result['correct']} failed={result['failed']}"
                    print(f"# {workload} seed {seed} {label}: {status}", file=sys.stderr)
                if results["base"] is not None and results["change"] is not None:
                    pairs.append((seed, results["base"], results["change"]))
            lines, _ = compare_pairs(pairs, metrics)
            print(f"{workload}: {len(pairs)} pairs, base {rev} vs this checkout, run_seconds {spec['run_seconds']}")
            print("\n".join(lines))
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pr", type=int, help="trajectory index; writes BENCH_<pr>.json")
    mode.add_argument("--against", metavar="REV", help="paired A/B runs against this git revision")
    p.add_argument("--pairs", type=int, default=10, help="with --against: pairs per workload, on seeds 0 .. K-1")
    p.add_argument("--workload", default=None, help="with --against: one workload instead of all")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --against: 1 compares the per-layer metrics of traced runs")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.against is not None:
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            p.error(f"unknown workload {args.workload!r} (choose from {', '.join(names)})")
        if args.pairs < 1:
            p.error("--pairs must be >= 1")
        return against(args.against, args.pairs, [args.workload] if args.workload else names, spec, args.trace)
    new = record(args.pr, spec)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    for case, stat in new["cases"].items():
        for name, m in stat["metrics"].items():
            print(f"{case}.{name}: median {m['median']:.4g} {m['unit']} (IQR {m['iqr']:.3g}, {len(m['values'])} runs)")
    failed = sum(not c["correct"] for c in new["cases"].values())
    prev = previous_record(args.pr)
    if prev is None:
        print("no earlier BENCH_*.json; nothing to diff")
        return 1 if failed else 0
    lines, flagged = diff(json.loads(prev.read_text(encoding="utf-8")), new, spec)
    print(f"diff against {prev.name}:")
    print("\n".join(lines))
    return 1 if failed or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
