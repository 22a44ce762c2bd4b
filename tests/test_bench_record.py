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


def _run(**values):
    return {"correct": True, "failed": 0, "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


AB_METRICS = [{"name": "job_s", "unit": "s", "better": "lower", "bound": 0.2},
              {"name": "hits", "unit": "count", "better": "higher", "bound": 0.2}]


def test_pairs_report_ratios_wins_and_gain():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    pairs = [(seed, _run(job_s=b, hits=5), _run(job_s=0.8 * b, hits=5)) for seed, b in enumerate(base)]
    lines, out = bench_record.compare_pairs(pairs, AB_METRICS)
    job = out["job_s"]
    assert (job["pairs"], job["wins"], job["gain"]) == (10, 10, True)
    assert job["median_ratio"] == pytest.approx(0.8)
    assert job["base"]["median"] == pytest.approx(1.0) and job["change"]["median"] == pytest.approx(0.8)
    assert (out["hits"]["wins"], out["hits"]["gain"]) == (0, False)  # ties count for neither side
    assert any(line.startswith("job_s [s]:") and "wins 10/10; GAIN" in line for line in lines)
    assert any(line.startswith("  pair ratios: s0 0.8, s1 0.8,") for line in lines)


@pytest.mark.parametrize("change, wins, gain", [
    ([0.8] * 8 + [1.2] * 2, 8, False),  # 8/10 wins is short of 9/10
    ([0.99] * 10, 10, False),  # every pair won, but by less than the base IQR
    ([0.8] * 9 + [1.2], 9, True),
])
def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_base_iqr(change, wins, gain):
    base = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.1, 0.9, 1.05, 0.95]
    pairs = [(s, _run(job_s=b), _run(job_s=c * b)) for s, (b, c) in enumerate(zip(base, change))]
    out = bench_record.compare_pairs(pairs, AB_METRICS[:1])[1]["job_s"]
    assert (out["wins"], out["gain"]) == (wins, gain)


def test_higher_is_better_and_too_few_pairs_claim_nothing():
    pairs = [(s, _run(job_s=1.0, hits=10), _run(job_s=0.5, hits=20)) for s in range(3)]
    out = bench_record.compare_pairs(pairs, AB_METRICS)[1]
    assert out["hits"]["wins"] == 3 and out["job_s"]["wins"] == 3
    assert not out["hits"]["gain"] and not out["job_s"]["gain"]  # fewer than MIN_PAIRS pairs


def test_metric_that_is_not_always_positive_reports_differences():
    pairs = [(0, _run(job_s=-2.0), _run(job_s=1.0)), (1, _run(job_s=2.0), _run(job_s=1.0))]
    lines, out = bench_record.compare_pairs(pairs, AB_METRICS[:1])
    assert out["job_s"]["median_diff"] == 1.0 and "median_ratio" not in out["job_s"]
    assert lines[1] == "  pair diffs: s0 3, s1 -1"


@pytest.mark.parametrize("fails", [False, True])
def test_against_removes_its_export(tmp_path, monkeypatch, fails):
    tree = tmp_path / "against-base"

    def export(rev):
        (tree / ".bench_work").mkdir(parents=True)
        return tree

    def run_bench(workload, seed, seconds, tree, trace):
        if fails:
            raise RuntimeError("bench crashed")
        return {}, _run(job_s=1.0)

    monkeypatch.setattr(bench_record, "export", export)
    monkeypatch.setattr(bench_record, "run_bench", run_bench)
    spec = {"run_seconds": 1, "end_to_end": AB_METRICS[:1]}
    if fails:
        with pytest.raises(RuntimeError):
            bench_record.against("HEAD", 2, ["exact_chain"], spec, 0)
    else:
        assert bench_record.against("HEAD", 2, ["exact_chain"], spec, 0) == 0
    assert not tree.exists()
