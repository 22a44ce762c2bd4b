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

Standard library only.  The tool reads bench/ and BENCHMARK.json and
changes neither; bench/run.py writes its scratch files to .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "qtvd.bench-record/1"
TIER1 = "tier1"
SEEDS = 5  # bench seeds per workload
TIER1_RUNS = 3


def summarise(values: list) -> dict:
    """Median, quartiles and IQR of the runs of one metric (quartiles need two runs)."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def run_bench(workload: str, seed: int, seconds: float) -> tuple:
    """(env, result) of one bench/run.py run; result is None when the run printed no result line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="trajectory index; writes BENCH_<pr>.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
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
