"""Acceptance suite: one test per release criterion, each printing a PASS
line on success (run with ``pytest tests/test_acceptance.py -v -s``).

Oracle-equivalence criteria compare the fast paths against brute force at
fixed tolerances (exact equality); formatting criteria pin rendered strings
character for character; the trend harness reports, but does not assert,
how redundancy moves with dataset size.
"""

import dataclasses
import json
import random
import time

import numpy as np
import pytest

from conftest import random_rows, random_rules, render_text, split_rules, tree_bytes
from triage_miner import cli
from triage_miner.cluster import kmeans_fit
from triage_miner.config import PipelineConfig
from triage_miner.errors import AuditError
from triage_miner.ingest import Attribute, Codebook
from triage_miner.mine import mine_frequent_itemsets
from triage_miner.oracle import (
    Item,
    Itemset,
    Rule,
    enumerate_frequent_itemsets,
    itemset_supports,
    essential_rules_naive,
    rule_objects,
    witness_is_valid,
)
from triage_miner.pipeline import audit_result, execute
from triage_miner.report import build_summary
from triage_miner.rules import generate_class_rules, top_assignees


def _pass(name: str) -> None:
    print(f"\nACCEPTANCE PASS: {name}")


def _random_codes(rnd: random.Random, n: int, max_codes: int) -> np.ndarray:
    return np.array(
        [
            (
                rnd.randint(1, min(7, max_codes)),
                rnd.randint(1, min(5, max_codes)),
                rnd.randint(1, max_codes),
                rnd.randint(1, max_codes),
                rnd.randint(1, max_codes),
            )
            for _ in range(n)
        ]
    )


def test_criterion_1_apriori_matches_brute_force_enumeration():
    """>= 100 randomized datasets; the frequent-itemset miner's itemsets and
    counts exactly equal brute-force enumeration."""
    rnd = random.Random(20_240_811)
    support_choices = (1, 2, 3, 5)
    start = time.perf_counter()
    datasets = 0
    for i in range(104):
        rows = random_rows(rnd, max_transactions=200, max_codes=12)
        min_support = support_choices[i % len(support_choices)]
        fast = mine_frequent_itemsets(np.array(rows), min_support)
        slow = enumerate_frequent_itemsets(rows, min_support)
        assert itemset_supports(fast) == slow, f"dataset {i} diverged"
        datasets += 1
    elapsed = time.perf_counter() - start
    assert datasets >= 100
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _pass(
        f"miner == brute force on {datasets} random datasets ({elapsed:.1f}s, 0 differences)"
    )


def test_criterion_2_rules_respect_default_thresholds():
    """Every emitted rule has support >= 3 and confidence >= 0.10 under the
    default parameters; zero violations across randomized datasets."""
    rnd = random.Random(97)
    violations = 0
    rules_seen = 0
    for _ in range(60):
        codes = _random_codes(rnd, rnd.randint(20, 200), rnd.choice((3, 4, 6, 10)))
        table = mine_frequent_itemsets(codes, min_support_count=3)
        top = top_assignees(codes[:, Attribute.ASSIGNEE], 5)
        for rule in rule_objects(generate_class_rules(table, 0.10, top)):
            rules_seen += 1
            if rule.support_count < 3 or rule.support_count / rule.antecedent_count < 0.10:
                violations += 1
            if not 1 <= len(rule.antecedent) <= 4:
                violations += 1
            if any(item.attribute == Attribute.ASSIGNEE for item in rule.antecedent):
                violations += 1
    assert rules_seen > 0
    assert violations == 0
    _pass(f"thresholds hold on {rules_seen} rules from 60 random datasets (0 violations)")


def test_criterion_3_redundancy_matches_naive_fixpoint():
    """>= 100 randomized rule sets; essential sets equal and every witness
    re-verified by exact rational comparison."""
    rnd = random.Random(31_337)
    checked = 0
    for _ in range(120):
        rules = random_rules(rnd, max_rules=50)
        partition = split_rules(rules)
        naive = essential_rules_naive(rules)
        assert {rule.key for rule in partition.essential} == naive
        for rule, witness in partition.redundant:
            assert witness_is_valid(rule, witness, naive)
        assert partition.rule_count == len(rules)
        checked += 1
    assert checked >= 100
    _pass(f"redundancy fixpoint and witnesses verified on {checked} rule sets (0 differences)")


def test_criterion_4_partition_accounting_is_self_audited(sample_csv, tmp_path):
    """Cluster sizes sum to the input; per cluster essential+redundant and
    the histogram both equal the rule count; audit rejects corruption."""
    config = PipelineConfig(input_path=str(sample_csv), output_dir=str(tmp_path / "out"))
    result = execute(config)
    clusters = build_summary(len(result.bug_ids), {}, result.outcomes)["clusters"]
    assert sum(cluster["size"] for cluster in clusters) == len(result.bug_ids)
    for cluster, outcome in zip(clusters, result.outcomes):
        assert cluster["essential"] + cluster["redundant"] == outcome.partition.rule_count
        assert sum(cluster["length_histogram"].values()) == outcome.partition.rule_count
    assert audit_result(result) == []

    # corrupt one cluster's partition, pointing a redundant rule's witness at
    # another redundant rule: the audit must flag it, and the resulting error
    # carries the internal-invariant exit code
    outcome = result.outcomes[0]
    row, other = outcome.partition.redundant[:2]
    witness = outcome.partition.witness.copy()
    witness[row] = other
    partition = dataclasses.replace(outcome.partition, witness=witness)
    outcomes = [dataclasses.replace(outcome, partition=partition), *result.outcomes[1:]]
    problems = audit_result(dataclasses.replace(result, outcomes=outcomes))
    assert problems == [f"cluster 0: invalid witness (1 rules, first row {row})"]
    assert AuditError(problems).exit_code == 3
    _pass("partition accounting holds and the self-audit flags corruption (exit code 3)")


def test_criterion_5_kmeans_invariants():
    """Monotone inertia, no empty clusters, bit-identical reruns, and the
    two-clump dataset recovered exactly with inertia 0."""
    rnd = random.Random(5150)
    for trial in range(12):
        points = [
            tuple(float(rnd.randint(1, 9)) for _ in range(4))
            for _ in range(rnd.randint(10, 150))
        ]
        k = rnd.randint(1, 5)
        first = kmeans_fit(points, k=k, seed=trial)
        second = kmeans_fit(points, k=k, seed=trial)
        assert np.array_equal(first.assignments, second.assignments)
        assert first.centroids == second.centroids
        history = first.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
        assert all(size > 0 for size in first.cluster_sizes())

    points = [(1, 1, 1, 1)] * 5 + [(9, 9, 9, 9)] * 5
    model = kmeans_fit(points, k=2, seed=0)
    assert model.inertia == 0.0
    assert len({model.assignments[i] for i in range(5)}) == 1
    assert len({model.assignments[i] for i in range(5, 10)}) == 1
    assert model.assignments[0] != model.assignments[9]
    _pass("k-means monotone/non-empty/deterministic; two-clump split exact with inertia 0")


def test_criterion_6_rendering_matches_pinned_strings():
    """Three pinned rule strings reproduced character for character."""

    def learned(attribute, labels):
        forward = {label: i for i, label in enumerate(labels, start=1)}
        return Codebook(attribute, forward, {c: l for l, c in forward.items()})

    from triage_miner.ingest import PRIORITY_CODEBOOK, SEVERITY_CODEBOOK

    books = {
        Attribute.SEVERITY: SEVERITY_CODEBOOK,
        Attribute.PRIORITY: PRIORITY_CODEBOOK,
        Attribute.COMPONENT: learned(
            Attribute.COMPONENT, ["Build Config", "User Interface", "Developer Tools: Debugger"]
        ),
        Attribute.OPERATING_SYSTEM: learned(
            Attribute.OPERATING_SYSTEM, ["Linux", "All", "Unspecified"]
        ),
        Attribute.ASSIGNEE: learned(
            Attribute.ASSIGNEE, ["Jon Granrose", "Ben Goodger", "Jason Laster"]
        ),
    }

    cases = [
        (
            Rule(
                Itemset(
                    [
                        Item(Attribute.SEVERITY, 4),
                        Item(Attribute.PRIORITY, 3),
                        Item(Attribute.OPERATING_SYSTEM, 1),
                        Item(Attribute.COMPONENT, 1),
                    ]
                ),
                Item(Attribute.ASSIGNEE, 1),
                9,
                17,
            ),
            "Severity {Normal} ∧ Priority {P3} ∧ Os {Linux} ∧ Component{Build Config}"
            " ⇒ Assignee {Jon Granrose} @ (9,52.94%)",
        ),
        (
            Rule(
                Itemset(
                    [Item(Attribute.OPERATING_SYSTEM, 2), Item(Attribute.COMPONENT, 2)]
                ),
                Item(Attribute.ASSIGNEE, 2),
                3,
                4,
            ),
            "Os {All} ∧ Component{User Interface} ⇒ Assignee {Ben Goodger} @ (3,75%)",
        ),
        (
            Rule(
                Itemset(
                    [
                        Item(Attribute.SEVERITY, 4),
                        Item(Attribute.PRIORITY, 3),
                        Item(Attribute.OPERATING_SYSTEM, 3),
                        Item(Attribute.COMPONENT, 3),
                    ]
                ),
                Item(Attribute.ASSIGNEE, 3),
                7,
                7,
            ),
            "Severity {Normal} ∧ Priority {P3} ∧ Os {Unspecified}"
            " ∧ Component{Developer Tools: Debugger}"
            " ⇒ Assignee {Jason Laster} @ (7,100%)",
        ),
    ]
    for rule, expected in cases:
        assert render_text(rule, books) == expected
    _pass("all three pinned rule strings rendered character for character")


def test_criterion_7_end_to_end_determinism(sample_csv, tmp_path):
    """Two identical runs on the bundled sample give byte-identical report
    directories, each in under 10 seconds."""
    first = tmp_path / "first"
    second = tmp_path / "second"
    for out in (first, second):
        start = time.perf_counter()
        assert cli.main(["run", "--input", str(sample_csv), "--output", str(out)]) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"run took {elapsed:.1f}s"
    assert tree_bytes(first) == tree_bytes(second)
    _pass("two runs on the bundled sample are byte-identical (< 10s each)")


def test_criterion_8_trend_harness_across_sizes(tmp_path):
    """synthesize + run completes at sizes 500/2000/8000 and emits the
    per-size essential/redundant counts; the direction of the trend is
    reported, not asserted."""
    observations = []
    for size in (500, 2000, 8000):
        csv_path = tmp_path / f"synth_{size}.csv"
        out_dir = tmp_path / f"out_{size}"
        assert cli.main(
            ["synthesize", "--output", str(csv_path), "--rows", str(size), "--seed", "11"]
        ) == 0
        assert cli.main(["run", "--input", str(csv_path), "--output", str(out_dir)]) == 0
        totals = json.loads((out_dir / "report" / "summary.json").read_text())["totals"]
        assert totals["essential"] + totals["redundant"] == totals["rules"]
        observations.append((size, totals["essential"], totals["redundant"]))

    shares = [red / (ess + red) for _, ess, red in observations if ess + red]
    direction = (
        "increases with dataset size"
        if shares == sorted(shares) and len(set(shares)) > 1
        else "does not increase monotonically on this generator"
    )
    table = "; ".join(f"{n} rows -> {e} essential / {r} redundant" for n, e, r in observations)
    _pass(f"trend harness complete: {table}; redundancy share {direction}")
