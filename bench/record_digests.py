"""Record the SHA-256 of every op artifact per workload and seed into bench/digests.json.

    python3 bench/record_digests.py FIRST LAST [WORKLOAD ...]

Runs one untraced job of each named workload (default: all) for each seed
FIRST..LAST.  Seeded artifacts must never change, so later runs with a
recorded seed fail any op whose artifact differs.  Re-record only when a
change of output is intended and reviewed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import worker

BENCH = Path(__file__).resolve().parent


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    worker.import_qtvd(BENCH.parent)
    import workloads

    names = argv[2:] or list(workloads.WORKLOADS)
    path = BENCH / "digests.json"
    digests = json.loads(path.read_text(encoding="utf-8"))
    workdir = BENCH.parent / ".bench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        for seed in range(first, last + 1):
            workload = workloads.WORKLOADS[name]()
            workload.setup(workdir, seed)
            ops = worker.run_job(workload)["ops"]
            errors = [op["error"] for op in ops if op["error"] is not None]
            if errors:
                print(f"{name} seed {seed}: {len(errors)} ops failed; nothing recorded\n{errors[0]}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = [op["digest"] for op in ops]
            print(f"{name} seed {seed}: {len(ops)} digests", flush=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
