"""Tests of the benchmark itself, on tiny inputs.

Run with: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import trace_child  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY_ROWS = 300

# Runs the real CLI, then breaks one invariant of the report it wrote.
CORRUPTING_CLI = """
import json, sys
from pathlib import Path
from triage_miner.cli import main
code = main(sys.argv[1:])
path = Path(sys.argv[sys.argv.index("--output") + 1]) / "report" / "summary.json"
summary = json.loads(path.read_text(encoding="utf-8"))
summary["totals"]["rules"] += 1
path.write_text(json.dumps(summary), encoding="utf-8")
sys.exit(code)
"""


@pytest.fixture(autouse=True)
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], rows=TINY_ROWS)


def deadline() -> float:
    return time.monotonic() + 120


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    benchmarked = [name for name in run.WORKLOADS if name not in run.EXTRA_WORKLOADS]
    assert [w["name"] for w in spec["workloads"]] == benchmarked
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.REPORTED_LAYER


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name):
    result = run.run_workload(tiny(name), seed=3, seconds=0, trace=True)

    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] == 3  # warm-up, sample, traced
    assert result["input"]["rows"] == TINY_ROWS
    assert len(result["input"]["sha256"]) == 64 and result["input"]["bytes"] > 0
    assert result["absent"] == [] and result["trace_hook_errors"] == []

    end_to_end = run.metrics_record(result, trace=False)
    assert {key: value["unit"] for key, value in end_to_end.items()} == run.END_TO_END
    assert all(value["value"] > 0 for value in end_to_end.values())
    assert set(result["per_layer"]) == set(run.PER_LAYER)
    per_layer = run.metrics_record(result, trace=True)
    assert {key: value["unit"] for key, value in per_layer.items()} == run.REPORTED_LAYER
    assert per_layer["ingest.rows"]["value"] == TINY_ROWS
    times = [value["value"] for value in per_layer.values() if value["unit"] == "s"]
    assert all(value != 0 for value in times)
    if result["workload"] == "verify-20k":
        assert per_layer["verify.clusters_checked"]["value"] == 5
        assert result["per_layer"]["oracle.enumerate_frequent_itemsets.cpu_s"] > 0
    else:
        assert per_layer["pipeline.files_written"]["value"] > 0
        assert per_layer["report.render_rule.calls"]["value"] > 0
        assert result["per_layer"]["pipeline.execute.wall_s"] > 0
        assert 0 < per_layer["trace.attributed_share"]["value"] <= 1.05


def test_missing_wrapper_target_is_reported_absent():
    targets = (
        trace_child.Target("triage_miner.pipeline", "no_such_function", "mine.gone"),
        trace_child.Target("triage_miner_no_such_module", "apriori", "mine.apriori"),
    )
    assert trace_child.install(trace_child.Tracer(), targets) == ["mine.gone", "mine.apriori"]

    record = {"absent": ["mine.apriori"], "spans": [], "counts": {}, "main_thread": 1}
    metrics = run.layer_metrics(record, None, "")
    assert set(metrics) == set(run.PER_LAYER) - {"cli.import_s", "trace.overhead"}
    assert metrics["mine.apriori.wall_s"] == 0 and metrics["mine.itemsets.size3"] == 0
    absent = run.absent_metrics(record)
    assert "mine.apriori.cpu_s" in absent and "mine.itemsets" in absent
    assert "mine.to_transactions.cpu_s" not in absent


def test_corrupted_report_counts_as_failure(tmp_path):
    workload = tiny("rule-dense-5k")
    source = run.generate_input(workload, 5, tmp_path, deadline())
    cli = [sys.executable, "-m", "triage_miner.cli"]
    tally = run.Tally()

    good = run.invoke(cli, workload, source["path"], TINY_ROWS, tmp_path, None, deadline())
    tally.record("good", good.problems)
    bad = run.invoke(
        [sys.executable, "-c", CORRUPTING_CLI],
        workload,
        source["path"],
        TINY_ROWS,
        tmp_path,
        good.tree[0],
        deadline(),
    )
    tally.record("corrupted", bad.problems)

    assert good.problems == []
    assert bad.sample.exit_code == 0
    assert any("essential + redundant" in problem for problem in bad.problems)
    assert any("differs from the first" in problem for problem in bad.problems)
    assert (tally.attempted, tally.failed, tally.error_rate) == (2, 1, 0.5)


def test_skipped_verify_cluster_counts_as_failure(tmp_path):
    workload = dataclasses.replace(
        tiny("verify-20k"), command=("verify", "--max-transactions", "1")
    )
    source = run.generate_input(workload, 5, tmp_path, deadline())
    done = run.invoke(
        [sys.executable, "-m", "triage_miner.cli"],
        workload,
        source["path"],
        TINY_ROWS,
        tmp_path,
        None,
        deadline(),
    )
    assert done.sample.exit_code == 0
    assert any("skipped" in problem for problem in done.problems)


def test_union_length_merges_overlapping_children():
    assert run.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert run.union_length([]) == 0.0
