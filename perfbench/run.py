#!/usr/bin/env python3
"""Benchmark of the triage-miner CLI.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The load is a closed loop with one client: this process spawns one
``python -m triage_miner.cli`` invocation at a time and starts the next only
after the previous one has exited. Each workload's CSV is generated from
``(shape, seed)`` with the CLI's ``synthesize`` command before any timing
starts. One warm-up invocation is discarded; then invocations repeat until
``--seconds`` have passed. Every invocation is checked for correctness.

With ``--trace 1`` one more invocation runs under ``trace_child.py``, which
times the calls into each module from outside the program, and the last line
reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
including the input's rows, bytes and sha256, is written to
``perfbench/.work/results/``. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
TRACE_CHILD = BENCH_DIR / "trace_child.py"

SETUP_SAMPLES = 9
# Every child is killed once this much time has passed since the start of a
# workload, so that one workload always ends within 180 seconds.
WORKLOAD_DEADLINE_S = 170.0
# The trace must explain at least this share of pipeline.execute's CPU time.
MIN_ATTRIBUTED_SHARE = 0.9

_RULE_SHAPE = ("--components", "40", "--operating-systems", "8", "--assignees", "60", "--skew", "1.0")


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    shape: tuple[str, ...]  # synthesize flags besides --rows and --seed
    command: tuple[str, ...]  # CLI subcommand and flags besides --input/--output
    why: str

    @property
    def writes_report(self) -> bool:
        return self.command[0] == "run"


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "bulk-100k",
            100_000,
            _RULE_SHAPE,
            ("run",),
            "The ROADMAP headline input: `mine` does about 58% of the CPU, `ingest` 14% and"
            " `cluster` 7%, so columnar mining, columnar ingest and k-means changes show here.",
        ),
        Workload(
            "rule-dense-5k",
            5_000,
            _RULE_SHAPE,
            ("run", "--min-support", "1", "--min-confidence", "0.01", "--top-assignees", "60"),
            "About 22k rules, 14k essential: `rules` does about 47% of the CPU, `report` and"
            " writing 26%, ingest and cluster under 5%, so render-once, redundancy and write"
            " changes show here.",
        ),
        Workload(
            "verify-20k",
            20_000,
            (),
            ("verify", "--max-transactions", "1000000", "--max-rules", "1000000"),
            "The `oracle` module does about 78% of the CPU and `mine` and `rules` feed the"
            " check instead of reports, so changes to verify's path show here. No cluster is"
            " skipped.",
        ),
    )
}
# Runnable with --workload, but not one of BENCHMARK.json's workloads: on a
# shared 2-core host its times follow the host's speed, which drifts over
# minutes, and moved by up to half between runs of the same code, past any
# regression bound the benchmark can set.
EXTRA_WORKLOADS = ("verify-20k",)

END_TO_END = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Per-layer metrics of the traced run: "<span>.<stat>" metrics come from the
# spans of that name, the others from counts or from the derivations in
# layer_metrics().
SPAN_METRICS = {
    "ingest.parse_csv": ("wall_s", "cpu_s"),
    "ingest.build_codebooks_and_encode": ("wall_s", "cpu_s"),
    "cluster.kmeans_fit": ("wall_s", "cpu_s"),
    "cluster.split_by_cluster": ("cpu_s",),
    "mine.to_transactions": ("wall_s", "cpu_s", "wait_s"),
    "mine.apriori": ("wall_s", "cpu_s", "wait_s"),
    "rules.top_assignees": ("cpu_s",),
    "rules.generate_class_rules": ("cpu_s", "wait_s"),
    "rules.eliminate_redundant": ("cpu_s", "wait_s"),
    "report.build_cluster_report": ("cpu_s",),
    "report.render_rule": ("calls", "cpu_s"),
    "pipeline.execute": ("wall_s", "cpu_s"),
    "pipeline.audit_result": ("cpu_s",),
    "pipeline.write_outputs": ("wall_s",),
    "oracle.enumerate_frequent_itemsets": ("cpu_s",),
    "oracle.essential_rules_naive": ("cpu_s",),
    "oracle.witness_is_valid": ("calls",),
}
# Counts taken by trace_child.py from the result of the named span's call.
COUNT_METRICS = {
    "ingest.rows": ("ingest.parse_csv", "count"),
    "ingest.bytes": ("ingest.parse_csv", "bytes"),
    "cluster.iterations": ("cluster.kmeans_fit", "count"),
    "cluster.inertia": ("cluster.kmeans_fit", "sumsq"),
    "cluster.sizes.max": ("cluster.kmeans_fit", "count"),
    "cluster.sizes.min": ("cluster.kmeans_fit", "count"),
    "mine.transactions": ("mine.to_transactions", "count"),
    "mine.itemsets": ("mine.apriori", "count"),
    **{f"mine.itemsets.size{size}": ("mine.apriori", "count") for size in range(1, 6)},
    "rules.count": ("rules.generate_class_rules", "count"),
    "rules.essential": ("rules.eliminate_redundant", "count"),
    "rules.redundant": ("rules.eliminate_redundant", "count"),
    "rules.subset_probes": ("rules.generate_class_rules", "count"),
}
DERIVED_METRICS = {
    "rules.yield": "ratio",
    "report.renders_per_rule": "ratio",
    "pipeline.self_s": "s",
    "pipeline.bytes_written": "bytes",
    "pipeline.files_written": "count",
    "pipeline.pool.wait_s": "s",
    "verify.clusters_checked": "count",
    "verify.clusters_skipped": "count",
    "cli.import_s": "s",
    "trace.overhead": "ratio",
    "trace.attributed_share": "ratio",
}
PER_LAYER = {
    **{
        f"{span}.{stat}": "count" if stat == "calls" else "s"
        for span, stats in SPAN_METRICS.items()
        for stat in stats
    },
    **{name: unit for name, (_, unit) in COUNT_METRICS.items()},
    **DERIVED_METRICS,
}
# Times of layers that only one subcommand reaches: `run` never calls the
# oracle and `verify` never calls execute, report or write. They read 0 on
# the other subcommand's workloads, so they are printed and saved but left
# out of the JSON line, which carries the times every workload measures.
ONE_COMMAND_TIMES = {
    "report.build_cluster_report.cpu_s",
    "report.render_rule.cpu_s",
    "pipeline.execute.wall_s",
    "pipeline.execute.cpu_s",
    "pipeline.audit_result.cpu_s",
    "pipeline.write_outputs.wall_s",
    "pipeline.self_s",
    "pipeline.pool.wait_s",
    "oracle.enumerate_frequent_itemsets.cpu_s",
    "oracle.essential_rules_naive.cpu_s",
}
REPORTED_LAYER = {name: unit for name, unit in PER_LAYER.items() if name not in ONE_COMMAND_TIMES}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    """One CLI invocation as seen from outside: exit status, times, memory."""

    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Invocations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {problem}" for problem in problems]

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def child_env() -> dict[str, str]:
    """The caller's environment with this checkout's sources first on the path
    and logging at the CLI's default level."""
    env = dict(os.environ)
    env.pop("TRIAGE_MINER_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _on_alarm(signum, frame):
    raise TimeoutError


def spawn(argv: list[str], log_dir: Path, deadline: float) -> Sample:
    """Run one child to completion; its CPU time and peak RSS come from wait4."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            wall_s = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        exit_code=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli_argv(workload: Workload, csv_path: Path, out_dir: Path) -> list[str]:
    argv = [*workload.command, "--input", str(csv_path)]
    if workload.writes_report:
        argv += ["--output", str(out_dir)]
    return argv


def tree_digest(root: Path) -> tuple[str, int, int]:
    """sha256 over the sorted relative paths and bytes of every file, plus the
    file and byte counts."""
    digest = hashlib.sha256()
    files = total_bytes = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        payload = path.read_bytes()
        relative = path.relative_to(root).as_posix().encode()
        digest.update(b"%d:%s%d:" % (len(relative), relative, len(payload)))
        digest.update(payload)
        files += 1
        total_bytes += len(payload)
    return digest.hexdigest(), files, total_bytes


def check_report(tree: Path, rows: int) -> list[str]:
    """The invariants every report must satisfy, read from summary.json."""
    try:
        summary = json.loads((tree / "report" / "summary.json").read_text(encoding="utf-8"))
        totals, clusters = summary["totals"], summary["clusters"]
        problems = []
        if totals["rules"] != totals["essential"] + totals["redundant"]:
            problems.append(f"summary totals: rules {totals['rules']} != essential + redundant")
        for cluster in clusters:
            if cluster["rules"] != cluster["essential"] + cluster["redundant"]:
                problems.append(f"cluster {cluster['cluster']}: rules != essential + redundant")
        size_sum = sum(cluster["size"] for cluster in clusters)
        if size_sum != rows or summary["records"] != rows:
            problems.append(f"cluster sizes sum to {size_sum}, input has {rows} rows")
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable summary.json: {type(exc).__name__}: {exc}"]


def verify_counts(stdout: str) -> tuple[int, int]:
    """(clusters fully checked, clusters skipped) from verify's report lines."""
    lines = stdout.splitlines()
    checked = sum("redundancy OK" in line for line in lines)
    skipped = sum("skipped" in line for line in lines)
    return checked, skipped


def check_verify(stdout: str) -> list[str]:
    problems = []
    if "verification passed" not in stdout.splitlines():
        problems.append("no 'verification passed' line")
    checked, skipped = verify_counts(stdout)
    if skipped:
        problems.append(f"{skipped} cluster checks skipped")
    if not checked:
        problems.append("no cluster was checked")
    return problems


@dataclass
class Invocation:
    sample: Sample
    problems: list[str]
    tree: tuple[str, int, int] | None  # digest, files, bytes of the report tree


def invoke(
    prefix: list[str],
    workload: Workload,
    csv_path: Path,
    rows: int,
    work: Path,
    reference: str | None,
    deadline: float,
) -> Invocation:
    """One checked invocation; its report tree is removed afterwards."""
    out_dir = work / "out"  # does not exist yet: each run writes a fresh tree
    sample = spawn([*prefix, *cli_argv(workload, csv_path, out_dir)], work, deadline)
    problems, tree = [], None
    if sample.exit_code != 0:
        problems.append(f"exit code {sample.exit_code}: {sample.stderr.strip()[-500:]}")
    elif workload.writes_report:
        tree = tree_digest(out_dir)
        problems += check_report(out_dir, rows)
        if reference is not None and tree[0] != reference:
            problems.append("report tree differs from the first invocation's")
    else:
        problems += check_verify(sample.stdout)
    shutil.rmtree(out_dir, ignore_errors=True)
    return Invocation(sample, problems, tree)


def generate_input(workload: Workload, seed: int, work: Path, deadline: float) -> dict:
    csv_path = work / "input.csv"
    sample = spawn(
        [
            sys.executable, "-m", "triage_miner.cli", "synthesize", "--output", str(csv_path),
            "--rows", str(workload.rows), *workload.shape, "--seed", str(seed),
        ],
        work,
        deadline,
    )
    if sample.exit_code != 0:
        raise BenchmarkError(f"synthesize failed ({sample.exit_code}): {sample.stderr.strip()}")
    payload = csv_path.read_bytes()
    return {
        "path": csv_path,
        "rows": payload.count(b"\n") - 1,
        "bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }


def measure_setup(work: Path, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and exit. The first
    import, which may compile bytecode, is discarded."""
    argv = [sys.executable, "-c", "import triage_miner.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        sample = spawn(argv, work, deadline)
        if sample.exit_code != 0:
            raise BenchmarkError(f"cannot import triage_miner.cli: {sample.stderr.strip()}")
        samples.append(sample.wall_s)
    return samples[1:]


def union_length(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def layer_metrics(trace: dict, tree: tuple[str, int, int] | None, stdout: str) -> dict[str, float]:
    """Per-layer metrics from one traced invocation. A span that never ran,
    because the workload does not reach it or its wrapper target no longer
    exists, gives 0 for its metrics and counts."""
    spans = trace["spans"]
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def stat(name: str, which: str) -> float:
        group = by_name.get(name, [])
        if which == "calls":
            return len(group)
        return sum(_span_stat(span, which) for span in group)

    metrics: dict[str, float] = {}
    for name, stats in SPAN_METRICS.items():
        for which in stats:
            metrics[f"{name}.{which}"] = stat(name, which)
    counts = trace["counts"]
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)

    executes = {span["id"]: span for span in by_name.get("pipeline.execute", [])}
    children = [span for span in spans if span["parent"] in executes]
    self_s = 0.0
    for span_id, execute in executes.items():
        covered = [
            (max(child["start"], execute["start"]), min(child["end"], execute["end"]))
            for child in children
            if child["parent"] == span_id
        ]
        self_s += execute["end"] - execute["start"] - union_length(covered)
    execute_cpu = metrics["pipeline.execute.cpu_s"]
    checked, skipped = verify_counts(stdout)
    metrics.update(
        {
            "rules.yield": _ratio(metrics["rules.count"], metrics["mine.itemsets"]),
            "report.renders_per_rule": _ratio(
                metrics["report.render_rule.calls"], metrics["rules.count"]
            ),
            "pipeline.self_s": self_s,
            "pipeline.files_written": tree[1] if tree else 0,
            "pipeline.bytes_written": tree[2] if tree else 0,
            "pipeline.pool.wait_s": sum(
                _span_stat(child, "wait_s")
                for child in children
                if child["thread"] != trace["main_thread"]
            ),
            "verify.clusters_checked": checked,
            "verify.clusters_skipped": skipped,
            "trace.attributed_share": _ratio(sum(child["cpu"] for child in children), execute_cpu),
        }
    )
    return metrics


def _span_stat(span: dict, which: str) -> float:
    wall = span["end"] - span["start"]
    # wait_s is not clamped: the two clocks tick at different granularity, so
    # a span that never waited reads within microseconds of 0, either side.
    return {"wall_s": wall, "cpu_s": span["cpu"], "wait_s": wall - span["cpu"]}[which]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _source_span(metric: str) -> str | None:
    if metric in COUNT_METRICS:
        return COUNT_METRICS[metric][0]
    span, _, _ = metric.rpartition(".")
    return span if span in SPAN_METRICS else None


def absent_metrics(trace: dict) -> list[str]:
    absent = set(trace["absent"])
    return [name for name in PER_LAYER if _source_span(name) in absent]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Generate the input, then measure; returns the full result record."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    work = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        source = generate_input(workload, seed, work, deadline)
        setup = measure_setup(work, deadline)
        cli = [sys.executable, "-m", "triage_miner.cli"]
        tally = Tally()

        def checked(prefix: list[str], label: str, reference: str | None) -> Invocation:
            done = invoke(prefix, workload, source["path"], source["rows"], work, reference, deadline)
            tally.record(label, done.problems)
            return done

        warm_up = checked(cli, "warm-up", None)
        reference = warm_up.tree[0] if warm_up.tree else None
        samples: list[Sample] = []
        loop_start = time.monotonic()
        while not samples or time.monotonic() - loop_start < seconds:
            done = checked(cli, f"sample {len(samples) + 1}", reference)
            samples.append(done.sample)

        wall_s = statistics.median(s.wall_s for s in samples)
        result = {
            "workload": workload.name,
            "why": workload.why,
            "seed": seed,
            "seconds": seconds,
            "command": cli_argv(workload, Path("input.csv"), Path("out")),
            "input": {key: source[key] for key in ("rows", "bytes", "sha256")},
            "report_sha256": reference,
            "samples": len(samples),
            "setup_samples": len(setup),
            "end_to_end": {
                "wall_s": wall_s,
                "rows_per_s": source["rows"] / wall_s,
                "cpu_s": statistics.median(s.cpu_s for s in samples),
                "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
                "setup_s": statistics.median(setup),
            },
            "wall_s_all": [s.wall_s for s in samples],
        }
        if trace:
            spans_path = work / "spans.json"
            traced = checked(
                [sys.executable, str(TRACE_CHILD), str(spans_path)], "traced", reference
            )
            if not spans_path.is_file():
                raise BenchmarkError(f"the traced run wrote no spans: {tally.problems}")
            trace_record = json.loads(spans_path.read_text(encoding="utf-8"))
            layers = layer_metrics(trace_record, traced.tree, traced.sample.stdout)
            layers["cli.import_s"] = result["end_to_end"]["setup_s"]
            layers["trace.overhead"] = traced.sample.wall_s / wall_s
            result["per_layer"] = layers
            result["absent"] = absent_metrics(trace_record)
            result["trace_hook_errors"] = trace_record["hook_errors"]
            result["trace_run_id"] = trace_record["run_id"]
        result.update(
            attempted=tally.attempted,
            failed=tally.failed,
            error_rate=tally.error_rate,
            problems=tally.problems,
        )
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(result: dict) -> None:
    source = result["input"]
    print(f"== {result['workload']} (seed {result['seed']}): {' '.join(result['command'])}")
    print(f"   why: {result['why']}")
    print(f"   input: {source['rows']} rows, {source['bytes']} bytes, sha256 {source['sha256']}")
    for name, value in result["end_to_end"].items():
        n = result["setup_samples"] if name == "setup_s" else result["samples"]
        print(f"   {name:<12} {value:>14.4f} {END_TO_END[name]:<7} (median, n={n})")
    print(f"   {'error_rate':<12} {result['error_rate']:>14.4f} {'ratio':<7}"
          f" ({result['failed']}/{result['attempted']} invocations failed)")
    for name, value in result.get("per_layer", {}).items():
        note = " (printed only)" if name in ONE_COMMAND_TIMES else ""
        print(f"   {name:<44} {value:>14.6g} {PER_LAYER[name]}{note}")
    for name in result.get("absent", []):
        print(f"   absent: {name} (its wrapper target no longer exists)")
    for error in result.get("trace_hook_errors", []):
        print(f"   count not taken: {error}")
    layers = result.get("per_layer", {})
    share = layers.get("trace.attributed_share", 1.0)
    if layers.get("pipeline.execute.cpu_s") and share < MIN_ATTRIBUTED_SHARE:
        print(f"   warning: spans explain only {share:.1%} of pipeline.execute CPU time")
    for problem in result["problems"]:
        print(f"   FAILED {problem}")


def save(result: dict) -> Path:
    path = WORK / "results" / f"{result['workload']}-seed{result['seed']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return path


def metrics_record(result: dict, trace: bool, prefix: str = "") -> dict:
    values, units = (
        (result["per_layer"], REPORTED_LAYER) if trace else (result["end_to_end"], END_TO_END)
    )
    return {prefix + name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=11, help="workload seed (default 11)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "triage_miner" / "cli.py").is_file():
        print(f"error: no triage_miner sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print_report(result)
            print(f"   saved {save(result).relative_to(ROOT)}")
            results.append(result)
    except (BenchmarkError, TimeoutError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    failed = sum(result["failed"] for result in results)
    if len(results) == 1:
        metrics = metrics_record(results[0], bool(args.trace))
    else:
        metrics = {}
        for result in results:
            metrics.update(metrics_record(result, bool(args.trace), f"{result['workload']}/"))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(result["attempted"] for result in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
