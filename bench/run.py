"""qtvd benchmark: three closed-loop workloads, end-to-end metrics, and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc_rate|exact_chain|envelope_full \\
        --seed N --seconds S --trace 0|1

Each run performs a fixed amount of work: seconds / (the workload's nominal
job time) repetitions of the workload's fixed job, so every commit is
measured on the same ops.  One client, one thread: a single worker process
(fresh for every run, so its peak RSS belongs to one workload) issues each
op after the previous one has returned.  Ops are `qtvd.cli.main(argv)` calls
or public library calls; the workload seed only generates their inputs.
Thread pools of numpy's BLAS are pinned to one thread.

Times are scaled to a reference speed of the host, measured by a fixed
kernel run around every op and every set-up step (see worker.py); the
unscaled wall time is printed too.

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json; --trace 1
prints its per-layer metrics, measured from spans the benchmark wraps around
the public functions, plus the tracing overhead against untraced jobs of the
same run.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The run exits non-zero, without that
line, when the checkout has no src/qtvd or a check cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKER_TIMEOUT_S = 165
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qtvd" / "__init__.py").is_file():
        return fail(f"no qtvd sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = {**os.environ, **PINS}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = WORK / f"{tag}.json"
    out.unlink(missing_ok=True)

    try:
        worker = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(ROOT),
             "--workdir", str(workdir), "--out", str(out)],
            cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return fail(f"worker exceeded {WORKER_TIMEOUT_S}s")
    if worker.returncode != 0 or not out.is_file():
        return fail(f"worker exited with status {worker.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))
    raw = result["metrics"]
    raw["failed_frac"] = result["failed"] / result["attempted"]

    missing = [m["name"] for m in wanted if m["name"] not in raw]
    if missing:
        return fail(f"worker did not measure {missing}")
    print(f"# {tag}  env {json.dumps(result['env'], sort_keys=True)}")
    if not args.trace:
        print(f"# op_tail_ms is the p{raw['op_tail_percentile']:.1f} latency of {raw['op_count']} ops; unscaled wall "
              f"times: job {raw['job_wall_s']:.4f} s, setup {result['setup_wall_s']:.4f} s; "
              f"median speed factor {raw['speed']:.4f}")
        print(f"{'failed_frac':<44} {raw['failed_frac']:>14.6g} ratio")
    for m in wanted:
        print(f"{m['name']:<44} {raw[m['name']]:>14.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"# FAILED {problem}", file=sys.stderr)
    doc = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
