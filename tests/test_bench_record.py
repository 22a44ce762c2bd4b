"""The paired benchmark recorder's statistics, bound rule, exit status and record, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def test_summarise_median_and_quartiles():
    s = bench_record.summarise([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (s["median"], s["q1"], s["q3"], s["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert s["values"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert bench_record.summarise([7.0])["iqr"] == 0.0


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


def test_gain_needs_a_tenth_of_the_bound():
    # 10/10 wins by 0.3 % of a tight peak_rss_mb, whose bound is 10 %: past the IQR, short of a tenth of the bound
    rss = {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}
    base = [37.40, 37.41, 37.40, 37.39, 37.40, 37.41, 37.40, 37.39, 37.40, 37.40]
    for ratio, gain in ((0.997, False), (0.98, True)):
        pairs = [(s, _run(peak_rss_mb=b), _run(peak_rss_mb=ratio * b)) for s, b in enumerate(base)]
        lines, out = bench_record.compare_pairs(pairs, [rss])
        rec = out["peak_rss_mb"]
        assert rec["wins"] == 10 and rec["base"]["median"] - rec["change"]["median"] > rec["base"]["iqr"]
        assert rec["gain"] == gain and lines[0].endswith("; GAIN") == gain


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


@pytest.mark.parametrize("new_job, flagged", [(1.19, 0), (0.5, 0), (1.21, 1)])
def test_flags_only_moves_past_the_bound(new_job, flagged):
    # hits (higher is better) moves by the same fraction in its own worse direction
    pairs = [(s, _run(job_s=1.0, hits=1.0, calls=1.0), _run(job_s=new_job, hits=2 - new_job, calls=10.0))
             for s in range(3)]
    unbounded = {"name": "calls", "unit": "count", "better": "lower"}  # a per-layer metric has no bound
    lines, out = bench_record.compare_pairs(pairs, [*AB_METRICS, unbounded])
    assert out["job_s"]["worse"] == out["hits"]["worse"] == bool(flagged) and not out["calls"]["worse"]
    assert sum(line.endswith("; WORSE") for line in lines) == 2 * flagged


WIDE = [0.7, 1.3] * 5  # median 1.0, IQR 0.6: three times job_s's 20 % bound


@pytest.mark.parametrize("base, change, unresolved", [
    (WIDE, WIDE[::-1], True),  # no move, but a spread wider than the bound cannot show that
    (WIDE, [0.69] * 10, False),  # every change run beats every base run (no GAIN: 0.31 < IQR)
    ([1.0, 1.01] * 5, [1.01, 1.0] * 5, False),  # a spread inside the bound resolves "unchanged"
    (WIDE, [1.3] * 10, False),  # WORSE, not unresolved
])
def test_unresolved_when_the_base_spread_exceeds_the_bound(base, change, unresolved):
    unbounded = {"name": "calls", "unit": "count", "better": "lower"}
    pairs = [(s, _run(job_s=b, calls=b), _run(job_s=c, calls=c)) for s, (b, c) in enumerate(zip(base, change))]
    lines, out = bench_record.compare_pairs(pairs, [AB_METRICS[0], unbounded])
    assert out["job_s"]["unresolved"] == unresolved and not out["job_s"]["gain"]
    assert not out["calls"]["unresolved"]  # a metric without a bound is never unresolved
    assert lines[0].endswith("; UNRESOLVED") == unresolved


SPEC = {"run_seconds": 1, "workloads": [{"name": "exact_chain"}, {"name": "mc_rate"}], "end_to_end": AB_METRICS[:1]}
TIER1_SIDE = {"wall_s": {"unit": "s", **bench_record.summarise([60.0, 61.0, 62.0])}, "summary": "3 passed in 1s",
              "failed_runs": 0}
TIER1 = {"base": TIER1_SIDE, "change": TIER1_SIDE, "pair_diff_s": {"unit": "s", **bench_record.summarise([0.0] * 3)}}


@pytest.fixture
def fake_bench(tmp_path, monkeypatch):
    """`main` on a checkout at tmp_path whose bench reads job_s 1.0 on REV and `change[seed]` (default 0.9) here."""
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    monkeypatch.setattr(bench_record, "export", lambda rev: ("c0ffee" * 6 + "c0ff", tmp_path / "base"))
    monkeypatch.setattr(bench_record, "run_tier1", lambda base_tree: TIER1)
    change = {}

    def run_bench(workload, seed, seconds, tree, trace):
        if tree != tmp_path:
            return {"git_commit": "base"}, _run(job_s=1.0)
        return {"git_commit": "head", "python": "3"}, change.get(seed, _run(job_s=0.9))

    monkeypatch.setattr(bench_record, "run_bench", run_bench)
    return change


def test_record_holds_both_sides_against_and_tier1(fake_bench, tmp_path):
    assert bench_record.main(["--against", "HEAD~1", "--pairs", "2", "--pr", "99"]) == 0
    record = json.loads((tmp_path / "BENCH_99.json").read_text(encoding="utf-8"))
    assert record["schema"] == "qtvd.bench-record/3" and record["pr"] == 99 and record["pairs"] == 2
    assert record["against"] == "c0ffee" * 6 + "c0ff"  # the resolved commit, not the REV text
    assert (record["git_commit"], record["python"]) == ("head", "3")  # from this checkout's runs
    assert record["tier1"] == TIER1
    assert set(record["cases"]) == {"exact_chain", "mc_rate"}
    case = record["cases"]["mc_rate"]
    job = case["metrics"]["job_s"]
    assert case["correct"] and (job["pairs"], job["wins"], job["worse"], job["unresolved"]) == (2, 2, False, False)
    assert job["base"]["values"] == [1.0, 1.0] and job["change"]["values"] == [0.9, 0.9]


def test_flags_incorrect_or_more_failed_runs(fake_bench, tmp_path):
    fake_bench[1] = {**_run(job_s=0.9), "correct": False}
    assert bench_record.main(["--against", "HEAD~1", "--pairs", "2", "--pr", "99"]) == 1
    record = json.loads((tmp_path / "BENCH_99.json").read_text(encoding="utf-8"))
    assert not any(case["correct"] for case in record["cases"].values())
    fake_bench[1] = {**_run(job_s=0.9), "failed": 1}
    assert bench_record.main(["--against", "HEAD~1", "--pairs", "2"]) == 1
    fake_bench[1] = None  # the run printed no result line
    assert bench_record.main(["--against", "HEAD~1", "--pairs", "2"]) == 1


@pytest.mark.parametrize("change, status", [(1.19, 0), (1.21, 1)])
def test_main_exits_1_when_a_metric_is_worse(fake_bench, change, status, capsys):
    fake_bench.update({seed: _run(job_s=change) for seed in range(2)})
    assert bench_record.main(["--against", "HEAD~1", "--pairs", "2", "--workload", "mc_rate"]) == status
    assert ("; WORSE" in capsys.readouterr().out) == bool(status)


@pytest.mark.parametrize("side, status", [("change", 1), ("base", 0)])
def test_main_exits_1_only_when_a_tier1_run_of_the_change_fails(fake_bench, monkeypatch, side, status):
    monkeypatch.setattr(bench_record, "run_tier1", lambda base_tree: {**TIER1, side: {**TIER1_SIDE, "failed_runs": 1}})
    assert bench_record.main(["--against", "HEAD~1", "--pairs", "2", "--pr", "99"]) == status


def test_tier1_runs_both_trees_in_alternating_pairs(tmp_path, monkeypatch):
    base, head = tmp_path / "base", tmp_path / "head"
    calls = []

    def run(argv, cwd, env, **kwargs):
        calls.append((cwd, env["PYTHONPATH"]))
        failed = cwd == base and len(calls) == 1  # REV's first run fails
        return bench_record.subprocess.CompletedProcess(argv, int(failed), stdout=f"{len(calls)} passed in 1s\n")

    monkeypatch.setattr(bench_record, "ROOT", head)
    monkeypatch.setattr(bench_record, "TIER1_RUNS", 3)
    monkeypatch.setattr(bench_record.subprocess, "run", run)
    times = bench_record.run_tier1(base)
    assert [cwd for cwd, _ in calls] == [base, head, head, base, base, head]
    assert all(path == str(cwd / "src") for cwd, path in calls)
    assert (times["base"]["failed_runs"], times["change"]["failed_runs"]) == (1, 0)
    assert (times["base"]["summary"], times["change"]["summary"]) == ("5 passed in 1s", "6 passed in 1s")
    assert len(times["change"]["wall_s"]["values"]) == len(times["pair_diff_s"]["values"]) == 3


@pytest.mark.parametrize("argv", [["--pr", "99"], ["--against", "HEAD", "--pr", "99", "--workload", "mc_rate"],
                                  ["--against", "HEAD", "--pr", "99", "--trace", "1"]])
def test_pr_records_one_untraced_run_over_every_workload(fake_bench, argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "BENCH_99.json").exists()


@pytest.mark.parametrize("fails", [None, "bench", "tier1"])
def test_main_removes_its_export_after_tier1(fake_bench, tmp_path, monkeypatch, fails):
    tree = tmp_path / "against-base"
    seen = []

    def export(rev):
        (tree / ".bench_work").mkdir(parents=True)
        return "c" * 40, tree

    def run_bench(workload, seed, seconds, tree, trace):
        if fails == "bench":
            raise RuntimeError("bench crashed")
        return {}, _run(job_s=1.0)

    def run_tier1(base_tree):
        seen.append(base_tree.exists())
        if fails == "tier1":
            raise RuntimeError("pytest crashed")
        return TIER1

    monkeypatch.setattr(bench_record, "export", export)
    monkeypatch.setattr(bench_record, "compile_tree", lambda tree: None)
    monkeypatch.setattr(bench_record, "run_bench", run_bench)
    monkeypatch.setattr(bench_record, "run_tier1", run_tier1)
    argv = ["--against", "HEAD", "--pairs", "2", "--pr", "99"]
    if fails:
        with pytest.raises(RuntimeError):
            bench_record.main(argv)
    else:
        assert bench_record.main(argv) == 0
    assert seen == ([] if fails == "bench" else [True])  # Tier-1 runs on the export before it goes
    assert not tree.exists()


def test_both_trees_are_byte_compiled_before_the_first_run(tmp_path, monkeypatch):
    # The export starts without __pycache__ and PYTHONDONTWRITEBYTECODE=1 keeps it so, while a checkout may
    # hold .pyc files: both trees get them before any run, so setup_s compares the same bytecode state.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_record.sys, "dont_write_bytecode", True)
    base, head = tmp_path / "base", tmp_path / "head"
    sources = [tree / part / "pkg" / "mod.py" for tree in (base, head) for part in ("src", "bench")]
    for source in sources:
        source.parent.mkdir(parents=True)
        source.write_text("X = 1\n", encoding="utf-8")
    compiled = []

    def run_bench(workload, seed, seconds, tree, trace):
        compiled.append(all(Path(importlib.util.cache_from_source(str(s))).is_file() for s in sources))
        return {}, _run(job_s=1.0)

    monkeypatch.setattr(bench_record, "ROOT", head)
    monkeypatch.setattr(bench_record, "run_bench", run_bench)
    bench_record.against("HEAD", base, 2, ["exact_chain"], {"run_seconds": 1, "end_to_end": AB_METRICS[:1]}, 0)
    assert compiled == [True] * 4
