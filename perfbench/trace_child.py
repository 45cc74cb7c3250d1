"""Run one triage-miner CLI invocation with timing wrappers on each layer.

Usage: python trace_child.py SPANS_JSON CLI_ARG...

The wrappers are installed from outside the program: each public function is
replaced at the place where its caller looks the name up at call time
(``pipeline.py`` imports ``parse_csv``, ``apriori`` and friends into its own
namespace, so those wrappers go on ``triage_miner.pipeline``). Then
``triage_miner.cli.main`` runs with the given arguments, so the traced run
takes the same path as ``python -m triage_miner.cli``.

Each call records one span: name, start, end, CPU time, parent span and the
thread it ran on. The parent is the innermost open span of the same thread;
a span opened on a worker thread with no open span of its own takes the
main thread's innermost span (``pipeline.execute``) as parent. Spans stay in
memory and are written to SPANS_JSON, with the counts taken from each
call's result, when the CLI returns. A target that no longer exists is
listed as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, NamedTuple

Hook = Callable[[tuple, dict, Any, Counter], None]


def _count_parse_csv(args, kwargs, rows, counts):
    counts["ingest.rows"] += len(rows)
    with (args[0] if args else kwargs["source"]).getbuffer() as view:
        counts["ingest.bytes"] += view.nbytes


def _count_kmeans_fit(args, kwargs, model, counts):
    sizes = model.cluster_sizes()
    counts["cluster.iterations"] = model.iterations_run
    counts["cluster.inertia"] = model.inertia
    counts["cluster.sizes.max"] = max(sizes)
    counts["cluster.sizes.min"] = min(sizes)


def _count_to_transactions(args, kwargs, transactions, counts):
    counts["mine.transactions"] += len(transactions)


def _count_apriori(args, kwargs, table, counts):
    counts["mine.itemsets"] += len(table)
    for size, number in Counter(len(itemset) for itemset in table.itemsets()).items():
        counts[f"mine.itemsets.size{size}"] += number


def _count_generate_class_rules(args, kwargs, rules, counts):
    counts["rules.count"] += len(rules)
    counts["rules.subset_probes"] += sum(2 ** len(rule.antecedent) - 2 for rule in rules)


def _count_eliminate_redundant(args, kwargs, partition, counts):
    counts["rules.essential"] += len(partition.essential)
    counts["rules.redundant"] += len(partition.redundant)


class Target(NamedTuple):
    module: str  # where the caller looks the name up
    attribute: str
    span: str
    hook: Hook | None = None
    # A span whose work fans out to pool threads takes process CPU time;
    # every other span takes the CPU time of its own thread.
    process_cpu: bool = False


TARGETS = (
    Target("triage_miner.pipeline", "execute", "pipeline.execute", process_cpu=True),
    Target("triage_miner.pipeline", "audit_result", "pipeline.audit_result"),
    Target("triage_miner.pipeline", "write_outputs", "pipeline.write_outputs"),
    Target("triage_miner.pipeline", "parse_csv", "ingest.parse_csv", _count_parse_csv),
    Target("triage_miner.pipeline", "build_codebooks_and_encode", "ingest.build_codebooks_and_encode"),
    Target("triage_miner.pipeline", "kmeans_fit", "cluster.kmeans_fit", _count_kmeans_fit),
    Target("triage_miner.pipeline", "split_by_cluster", "cluster.split_by_cluster"),
    Target("triage_miner.pipeline", "to_transactions", "mine.to_transactions", _count_to_transactions),
    Target("triage_miner.pipeline", "apriori", "mine.apriori", _count_apriori),
    Target("triage_miner.pipeline", "top_assignees", "rules.top_assignees"),
    Target(
        "triage_miner.pipeline",
        "generate_class_rules",
        "rules.generate_class_rules",
        _count_generate_class_rules,
    ),
    Target(
        "triage_miner.pipeline",
        "eliminate_redundant",
        "rules.eliminate_redundant",
        _count_eliminate_redundant,
    ),
    Target("triage_miner.pipeline", "build_cluster_report", "report.build_cluster_report"),
    Target("triage_miner.report", "render_rule", "report.render_rule"),
    Target(
        "triage_miner.pipeline", "enumerate_frequent_itemsets", "oracle.enumerate_frequent_itemsets"
    ),
    Target("triage_miner.pipeline", "essential_rules_naive", "oracle.essential_rules_naive"),
    Target("triage_miner.pipeline", "witness_is_valid", "oracle.witness_is_valid"),
)


class Tracer:
    """In-memory span recorder shared by the main thread and pool threads."""

    def __init__(self) -> None:
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.hook_errors: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._counts_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, fn: Callable) -> Callable:
        clock = time.process_time if target.process_cpu else time.thread_time
        perf_counter = time.perf_counter
        name, hook = target.span, target.hook

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = (stack or self._main_stack or [None])[-1]
            span_id = next(self._ids)
            stack.append(span_id)
            cpu_start = clock()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                cpu = clock() - cpu_start
                stack.pop()
                self.spans.append((span_id, parent, name, threading.get_ident(), start, end, cpu))
            if hook is not None:
                self._count(name, hook, args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, hook: Hook, args: tuple, kwargs: dict, result: Any) -> None:
        with self._counts_lock:
            try:
                hook(args, kwargs, result, self.counts)
            except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
                self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def to_json(self, absent: list[str], exit_code: int) -> dict:
        return {
            "run_id": self.run_id,
            "main_thread": threading.main_thread().ident,
            "exit_code": exit_code,
            "absent": absent,
            "hook_errors": self.hook_errors,
            "counts": dict(self.counts),
            "spans": [
                {
                    "run": self.run_id,
                    **dict(zip(("id", "parent", "name", "thread", "start", "end", "cpu"), span)),
                }
                for span in self.spans
            ],
        }


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target that exists; return the span names of those that do not."""
    absent = []
    for target in targets:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            absent.append(target.span)
            continue
        fn = getattr(module, target.attribute, None)
        if not callable(fn):
            absent.append(target.span)
            continue
        setattr(module, target.attribute, tracer.wrap(target, fn))
    return absent


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from triage_miner import cli

    tracer = Tracer()
    absent = install(tracer)
    exit_code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(absent, exit_code), fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
