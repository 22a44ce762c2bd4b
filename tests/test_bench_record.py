"""The benchmark trajectory recorder's statistics and diff rule, on synthetic records."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

SPEC = {"end_to_end": [{"name": "job_s", "unit": "s", "better": "lower", "bound": 0.2}]}


def _record(job_s, wall_s, correct=True, failed_frac=0.0):
    stat = bench_record.summarise
    return {
        "machine": {"cpu": "x", "nproc": 2},
        "python": "3",
        "numpy": "2",
        "cases": {
            "exact_chain": {"correct": correct, "failed_frac": failed_frac,
                            "metrics": {"job_s": {"unit": "s", **stat(job_s)}}},
            "tier1": {"correct": True, "failed_frac": 0.0, "metrics": {"wall_s": {"unit": "s", **stat(wall_s)}}},
        },
    }


def test_summarise_median_and_quartiles():
    s = bench_record.summarise([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (s["median"], s["q1"], s["q3"], s["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert s["values"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert bench_record.summarise([7.0])["iqr"] == 0.0


@pytest.mark.parametrize("new_job, flagged", [(1.19, 0), (0.5, 0), (1.21, 1)])
def test_flags_only_moves_past_the_bound(new_job, flagged):
    lines, count = bench_record.diff(_record([1.0] * 5, [40.0] * 3), _record([new_job] * 5, [80.0] * 3), SPEC)
    assert count == flagged
    assert any(line.startswith("tier1.wall_s") and "no bound" in line for line in lines)  # reported, never flagged


def test_flags_incorrect_or_more_failed_runs():
    old = _record([1.0] * 5, [40.0] * 3)
    assert bench_record.diff(old, _record([1.0] * 5, [40.0] * 3, correct=False), SPEC)[1] == 1
    assert bench_record.diff(old, _record([1.0] * 5, [40.0] * 3, failed_frac=0.01), SPEC)[1] == 1
