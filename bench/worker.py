"""One workload run in a fresh process: set up, run the job repeatedly, check, measure.

Started by run.py, never by hand; it writes its raw result as JSON to --out.
A run performs a fixed number of job repetitions, derived from --seconds and
the workload's nominal job time at the commit that defined the benchmark, so
that every commit measures the same work.  With --trace 1 it alternates an
untraced and a traced job and reports per-layer numbers from the traced ones.

Speed normalisation.  On a shared host the speed at which this process runs
Python swings by half or more over stretches of several seconds, because of
other tenants.  So a fixed pure-Python kernel runs before the first op and
right after every op, and each op's wall time is scaled by its speed factor,
KERNEL_REFERENCE_S / (mean of the kernel times just before and just after
it).  Reported times are thus seconds at the reference speed (about the
host's quiet-phase speed when the benchmark was defined); the raw wall times
and the speed factors are kept in the result too.  The kernel runs with the garbage collector off
and touches a few thousand small ints, so nothing the program leaves on
the heap changes its speed.  setup_s (median of fresh-process `import qtvd.cli`
times plus median input-generation time, five of each) is scaled the same
way by the kernel runs around it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing

SETUP_REPEATS = 5
KERNEL_ITERATIONS = 5_000
KERNEL_REFERENCE_S = 0.0024
IMPORT_PROBE = "import sys,time;sys.path.insert(0,'src');t=time.perf_counter();import qtvd.cli;print(time.perf_counter()-t)"


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def import_qtvd(root: Path) -> None:
    """Import the package from the checkout's src/, never from an installed copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import qtvd.cli  # noqa: F401

    if Path(sys.modules["qtvd"].__file__).resolve().parent != (src / "qtvd").resolve():
        raise SystemExit(f"qtvd was imported from {sys.modules['qtvd'].__file__}, not from {src}")


def kernel_s() -> float:
    """Seconds for a fixed pure-Python heap-and-dict loop: how fast this host runs Python right now.

    Of the kernels tried (dict updates, pointer chasing, Fraction sums, this
    one), this one's time tracked the slow and fast stretches of the host
    one-to-one for the float solver, the exact solver and the envelope alike.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        heap = []
        for i in range(KERNEL_ITERATIONS):
            heapq.heappush(heap, i * 7919 % 1009)
        counts = {}
        while heap:
            key = heapq.heappop(heap)
            counts[key] = counts.get(key, 0) + 1
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def run_job(workload, tracer=None) -> dict:
    """Run one job; every op is timed on its own, between two kernel runs, and checked afterwards."""
    ops = []
    kernels = [kernel_s()]
    gen = workload.job()
    artifact = None
    while True:
        try:
            op = gen.send(artifact)
        except StopIteration:
            break
        op_id = len(ops)
        stderr = io.StringIO()
        scope = tracer.op(op_id, op.kind) if tracer else contextlib.nullcontext()
        error = result = artifact = None
        with contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                with scope:
                    result = op.call()
            except Exception:
                error = traceback.format_exc() + stderr.getvalue()
            wall = perf_counter() - start
            kernels.append(kernel_s())
        if error is None:
            try:
                artifact = op.check(result)
            except Exception:
                error = traceback.format_exc() + stderr.getvalue()
        speed = KERNEL_REFERENCE_S / ((kernels[-2] + kernels[-1]) / 2)
        ops.append({
            "kind": op.kind,
            "wall_s": wall,
            "speed": speed,
            "latency_s": wall * speed,
            "error": error,
            "digest": None if artifact is None else hashlib.sha256(artifact).hexdigest(),
            "cli_bytes": len(artifact) if artifact is not None and op.kind.startswith("cli.") else 0,
        })
    return {"ops": ops, "wall_s": sum(op["wall_s"] for op in ops)}


def mark_digest_failures(jobs: list[dict], recorded) -> None:
    """Fail ops whose artifact differs from the first job's or from the recorded digest."""
    reference = [op["digest"] for op in jobs[0]["ops"]]
    for job in jobs:
        for idx, op in enumerate(job["ops"]):
            if op["error"] is not None:
                continue
            if op["digest"] != reference[idx]:
                op["error"] = "artifact differs from the first job of this run"
            elif recorded is not None and op["digest"] != recorded[idx]:
                op["error"] = f"artifact SHA-256 {op['digest']} differs from the recorded {recorded[idx]}"


def tail_rank(count: int) -> int:
    """0-based rank of the highest percentile with at least ten ops beyond it."""
    return max(count - 11, 0)


def op_medians(jobs: list[dict]) -> list[float]:
    """Each op's median latency over the jobs of a run."""
    return [statistics.median(job["ops"][idx]["latency_s"] for job in jobs) for idx in range(len(jobs[0]["ops"]))]


def end_to_end(jobs: list[dict]) -> dict:
    """job_s sums each op's median over the jobs, which damps a burst of host noise in one job."""
    latencies = sorted(op["latency_s"] for job in jobs for op in job["ops"])
    rank = tail_rank(len(latencies))
    return {
        "job_s": sum(op_medians(jobs)),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": latencies[rank] * 1e3,
        "op_tail_percentile": 100.0 * (rank + 1) / len(latencies),
        "op_count": len(latencies),
        "job_wall_s": statistics.median(job["wall_s"] for job in jobs),
        "speed": statistics.median(op["speed"] for job in jobs for op in job["ops"]),
    }


# Which span counts its input as points (or locations), and which outcome it flags.
POINTS = {
    "solver.fit_float": "points",
    "solver.certify_float": "points",
    "solver.fit": "points",
    "solver.certify": "points",
    "envelope.envelope": "locations",
}
FLAGGED = {"solver.certify_float": "failed", "solver.certify": "rejected"}


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics: counts from the traced jobs (which must agree), times as medians."""

    def counts(layers, job):
        out = {}
        for name, rec in layers.items():
            out[f"{name}.calls"] = rec["calls"]
            if name in POINTS:
                out[f"{name}.{POINTS[name]}"] = rec["points"]
            if name in FLAGGED:
                out[f"{name}.{FLAGGED[name]}"] = rec["flagged"]
        out["cli.bytes_out"] = sum(op["cli_bytes"] for op in job["ops"])
        return out

    per_job = [tracing.layer_metrics(job["spans"], [op["speed"] for op in job["ops"]]) for job in traced]
    all_counts = [counts(layers, job) for layers, job in zip(per_job, traced)]
    problems = [f"traced job {k} counts differ from traced job 0" for k, c in enumerate(all_counts) if c != all_counts[0]]
    metrics = dict(all_counts[0])
    for name in tracing.SPAN_NAMES:
        self_s = statistics.median(layers[name]["self_s"] for layers in per_job)
        metrics[f"{name}.self_s"] = self_s
        if name in POINTS:
            points = per_job[0][name]["points"]
            scale = 1e6 if POINTS[name] == "points" else 1e3
            unit = "us_per_point" if POINTS[name] == "points" else "ms_per_location"
            metrics[f"{name}.{unit}"] = scale * self_s / points if points else 0.0
    metrics["trace.overhead_pct"] = 100.0 * (sum(op_medians(traced)) / sum(op_medians(untraced)) - 1.0)
    return metrics, problems


def environment(root: Path, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = _args(argv)
    root = Path(args.root)
    import_qtvd(root)
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = Path(args.workdir)
    kernels, imports, gens = [], [], []
    for _ in range(SETUP_REPEATS):
        kernels.append(kernel_s())
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, capture_output=True, text=True,
                               timeout=60, check=True)
        imports.append(float(probe.stdout))
        kernels.append(kernel_s())
        start = perf_counter()
        workload.setup(workdir, args.seed)
        gens.append(perf_counter() - start)
    kernels.append(kernel_s())
    setup_wall = statistics.median(imports) + statistics.median(gens)

    recorded = json.loads((Path(__file__).parent / "digests.json").read_text()).get(args.workload, {})
    result = {"env": environment(root, args.seed), "setup_wall_s": setup_wall}
    problems = []
    if args.trace:
        pairs = max(1, round(args.seconds / (2 * workload.nominal_job_s)))
        untraced, traced = [], []
        for _ in range(pairs):
            untraced.append(run_job(workload))
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            problems += [f"untraced binding {name}" for name in tracing.unwrapped_bindings()]
            try:
                job = run_job(workload, tracer)
            finally:
                uninstall()
            job["spans"] = tracer.spans
            traced.append(job)
        jobs = untraced + traced
        mark_digest_failures(jobs, recorded.get(str(args.seed)))
        result["metrics"], count_problems = per_layer(traced, untraced)
        problems += count_problems
        fired = {span.name for span in traced[0]["spans"]}
        problems += [f"span {name} never fired" for name in workload.spans if name not in fired]
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as handle:
            for k, job in enumerate(traced):
                for span in job["spans"]:
                    handle.write(json.dumps({"job": k, **span.as_dict()}) + "\n")
    else:
        repeats = max(2, round(args.seconds / workload.nominal_job_s))
        jobs = [run_job(workload) for _ in range(repeats)]
        mark_digest_failures(jobs, recorded.get(str(args.seed)))
        result["metrics"] = end_to_end(jobs)
    result["metrics"]["setup_s"] = setup_wall * KERNEL_REFERENCE_S / statistics.median(kernels)
    result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = [f"job {k} op {i} ({op['kind']}): {op['error']}"
              for k, job in enumerate(jobs) for i, op in enumerate(job["ops"]) if op["error"] is not None]
    result["attempted"] = sum(len(job["ops"]) for job in jobs)
    result["failed"] = len(errors)
    result["problems"] = problems + errors
    result["digests"] = [op["digest"] for op in jobs[0]["ops"]]
    result["op_ms"] = [[op["kind"], ms * 1e3] for op, ms in zip(jobs[0]["ops"], op_medians(jobs))]
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
