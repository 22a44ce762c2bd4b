"""Self-tests of the benchmark itself; run from the root of a checkout:

    python3 bench/selftest.py

1. Tracing: for every workload, two traced runs with the same seed must be
   correct.  A traced run fails if a span listed for its workload never
   fires, if a traced binding was missed, or if a traced job's artifacts
   differ from the untraced job's of the same run.
2. Counts: calls, points, rejected/failed flags and bytes_out must repeat
   exactly across those two runs.
3. A directory holding only BENCHMARK.json and bench/ must make run.py exit
   non-zero without printing a result.
4. bench/expectations.json names, for exactly the per-layer metrics of
   BENCHMARK.json, the end-to-end metric and workload each should move.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    failures = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    count_units = {"count", "bytes"}
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(failures)
        counts = []
        for attempt in range(2):
            proc = run(ROOT, workload, 1)
            if proc.returncode != 0:
                failures.append(f"{workload}: traced run {attempt} exited {proc.returncode}\n{proc.stderr}")
                break
            doc = json.loads(proc.stdout.splitlines()[-1])
            if not doc["correct"] or doc["failed"]:
                failures.append(f"{workload}: traced run {attempt} not correct\n{proc.stderr}")
            counts.append({k: m["value"] for k, m in doc["metrics"].items() if m["unit"] in count_units})
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = {k: (v, counts[1].get(k)) for k, v in counts[0].items() if counts[1].get(k) != v}
            failures.append(f"{workload}: counts differ between two traced runs: {diff}")
        print(f"{workload}: tracing and counts {'ok' if len(failures) == before else 'FAILED'}", flush=True)

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)

    expected = json.loads((BENCH / "expectations.json").read_text(encoding="utf-8"))["per_layer_moves"]
    if set(expected) != {m["name"] for m in spec["per_layer"]}:
        failures.append("expectations.json and BENCHMARK.json list different per-layer metrics")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
