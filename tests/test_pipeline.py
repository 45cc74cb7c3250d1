"""The pipeline's self-checks on the bundled sample: the audit's witness
check, `run_verify` diffing the run's own tables, rendering a batch of rules
at a time, and rule objects built only for verification."""

import csv
import dataclasses
import enum
import json
import logging
import re
import sys

import numpy as np
import pytest

from conftest import render_all, rule_table

from triage_miner import cluster, mine, pipeline, report, rules
from triage_miner.config import PipelineConfig
from triage_miner.ingest import Attribute
from triage_miner.mine import Projection
from triage_miner.oracle import Item, Rule, rule_objects, witness_is_valid
from triage_miner.pipeline import (
    PipelineResult,
    _audit_rules,
    audit_result,
    execute,
    run_pipeline,
    run_verify,
    write_outputs,
)
from triage_miner.rules import RulePartition, RuleTable
from triage_miner.synth import synthesize_rows, write_csv


@pytest.fixture(scope="module")
def sample_result(sample_csv) -> PipelineResult:
    return execute(PipelineConfig(input_path=str(sample_csv)))


def _with_outcome(result: PipelineResult, index: int, **changes) -> PipelineResult:
    """A copy of ``result`` whose outcome ``index`` has ``changes`` applied."""
    outcomes = list(result.outcomes)
    outcomes[index] = dataclasses.replace(outcomes[index], **changes)
    return dataclasses.replace(result, outcomes=outcomes)


def _with_witness(result: PipelineResult, index: int, row: int, witness: int) -> PipelineResult:
    """A copy of ``result`` in which rule ``row`` of cluster ``index`` has
    ``witness`` as its witness row (-1: essential)."""
    partition = result.outcomes[index].partition
    witnesses = partition.witness.copy()
    witnesses[row] = witness
    return _with_outcome(
        result, index, partition=dataclasses.replace(partition, witness=witnesses)
    )


class TestAuditWitness:
    def test_non_essential_witness_is_reported(self, sample_result):
        partition = sample_result.outcomes[0].partition
        row, other = partition.redundant[:2]
        doctored = _with_witness(sample_result, 0, row, other)
        problems = audit_result(doctored)
        assert len(problems) == 1
        assert problems[0].startswith("cluster 0: invalid witness")

    def test_essential_witness_that_does_not_subsume_is_reported(self, sample_result):
        partition = sample_result.outcomes[0].partition
        rules = rule_objects(partition.rules)
        essential_keys = {rules[row].key for row in partition.essential}
        row = partition.redundant[0]
        stranger = next(
            candidate for candidate in partition.essential
            if not witness_is_valid(rules[row], rules[candidate], essential_keys)
        )
        doctored = _with_witness(sample_result, 0, row, stranger)
        assert [p for p in audit_result(doctored) if "invalid witness" in p]


class TestAuditRuleTable:
    """Each property of a rule or its witness, broken alone, is reported."""

    SEV4, SEV5 = Item(Attribute.SEVERITY, 4), Item(Attribute.SEVERITY, 5)
    PRI3, OS1 = Item(Attribute.PRIORITY, 3), Item(Attribute.OPERATING_SYSTEM, 1)
    CONFIG = PipelineConfig(input_path="bugs.csv", min_support_count=2, min_confidence=0.3)

    def _problems(self, witness_of_row_1=0, essential_row_0=True, extra=()) -> list[str]:
        rules = [
            Rule(frozenset([self.SEV4]), Item(Attribute.ASSIGNEE, 9), 6, 10),  # the witness
            Rule(frozenset([self.SEV4, self.PRI3]), Item(Attribute.ASSIGNEE, 9), 5, 10),
            Rule(frozenset([self.SEV4]), Item(Attribute.ASSIGNEE, 1), 6, 10),  # other assignee
            Rule(frozenset([self.SEV5]), Item(Attribute.ASSIGNEE, 9), 6, 10),  # other code
            Rule(frozenset([self.PRI3]), Item(Attribute.ASSIGNEE, 9), 4, 10),  # less confident
            Rule(frozenset([self.SEV4, self.OS1]), Item(Attribute.ASSIGNEE, 9), 7, 10),  # same size
            *extra,
        ]
        witness = np.full(len(rules), -1)
        witness[1] = witness_of_row_1
        if not essential_row_0:
            witness[0] = 5  # itself invalid: not smaller
        return _audit_rules(RulePartition(rule_table(rules), witness), self.CONFIG)

    def test_a_valid_table_passes(self):
        assert self._problems() == []

    @pytest.mark.parametrize("witness", [2, 3, 4, 5, 7])
    def test_each_broken_witness_property_is_reported(self, witness):
        assert self._problems(witness) == ["invalid witness (1 rules, first row 1)"]

    def test_an_out_of_range_witness_is_reported(self):
        rules = [
            Rule(frozenset([self.SEV4, self.PRI3]), Item(Attribute.ASSIGNEE, 9), 5, 10),
            Rule(frozenset([self.SEV4]), Item(Attribute.ASSIGNEE, 9), 6, 10),
        ]
        partition = RulePartition(rule_table(rules), np.array([2, -1]))
        assert _audit_rules(partition, self.CONFIG) == ["invalid witness (1 rules, first row 0)"]

    def test_a_redundant_witness_is_reported(self):
        assert self._problems(essential_row_0=False) == ["invalid witness (2 rules, first row 0)"]

    def test_thresholds_are_rechecked(self):
        low_support = Rule(frozenset([self.OS1]), Item(Attribute.ASSIGNEE, 9), 1, 2)
        low_confidence = Rule(frozenset([self.OS1]), Item(Attribute.ASSIGNEE, 1), 2, 10)
        assert self._problems(extra=[low_support, low_confidence]) == [
            "rules below min support (1 rules, first row 6)",
            "rules below min confidence (1 rules, first row 7)",
        ]


class TestAuditRows:
    def test_rows_that_are_not_the_assigned_rows_are_reported(self, sample_result):
        size = sample_result.outcomes[0].size
        doctored = _with_outcome(sample_result, 0, size=size - 1)
        assert audit_result(doctored) == [
            f"cluster 0: size {size - 1} is not the {size} records assigned to it"
        ]

    def test_a_missing_cluster_is_reported(self, sample_result):
        doctored = dataclasses.replace(sample_result, outcomes=sample_result.outcomes[:-1])
        assert "cluster outcomes do not match the model's clusters" in audit_result(doctored)


class TestAuditTable:
    UNMAPPED = "the record index does not map the records onto every table row"

    def test_the_runs_own_table_passes(self, sample_result):
        assert audit_result(sample_result) == []

    @pytest.mark.parametrize("outside", [-1, "rows"])
    def test_an_index_outside_the_table_is_reported(self, sample_result, outside):
        index = sample_result.index.copy()
        index[3] = len(sample_result.rows) if outside == "rows" else outside
        doctored = dataclasses.replace(sample_result, index=index)
        assert audit_result(doctored) == [self.UNMAPPED]

    def test_a_row_no_record_uses_is_reported(self, sample_result):
        # counted as no record's, as the index counts it; the model has no
        # label for the added row either
        rows = np.vstack([sample_result.rows, sample_result.rows[:1]])
        counts = np.append(sample_result.counts, 0)
        assert audit_result(dataclasses.replace(sample_result, rows=rows, counts=counts)) == [
            self.UNMAPPED, "some table row is not labelled with its nearest centroid"
        ]

    def test_doctored_record_counts_are_reported(self, sample_result):
        # one record's count moved between two rows: the counts still sum to
        # the records, but are not the index's
        counts = sample_result.counts.copy()
        counts[0], counts[1] = counts[0] - 1, counts[1] + 1
        doctored = dataclasses.replace(sample_result, counts=counts)
        assert audit_result(doctored) == ["the table's record counts are not the index's"]

    @pytest.mark.parametrize("row", [0, 6, 7, -1])
    def test_a_misassigned_row_is_reported(self, sample_result, row):
        labels = sample_result.model.labels.copy()
        labels[row] = (labels[row] + 1) % sample_result.model.k
        model = dataclasses.replace(sample_result.model, labels=labels)
        problems = audit_result(dataclasses.replace(sample_result, model=model))
        assert problems == ["some table row is not labelled with its nearest centroid"]

    def test_a_doctored_cluster_count_is_reported(self, sample_result):
        # one record moved between the model's counts: they still sum to the
        # records and leave no cluster empty, but disagree with the outcomes
        sizes = list(sample_result.model.sizes)
        sizes[0], sizes[1] = sizes[0] - 1, sizes[1] + 1
        model = dataclasses.replace(sample_result.model, sizes=tuple(sizes))
        assert audit_result(dataclasses.replace(sample_result, model=model)) == [
            f"cluster 0: size {sizes[0] + 1} is not the {sizes[0]} records assigned to it",
            f"cluster 1: size {sizes[1] - 1} is not the {sizes[1]} records assigned to it",
        ]

    def test_a_doctored_inertia_is_reported(self, sample_result):
        inertia = sample_result.model.inertia
        for doctored in (inertia * (1 + 1e-6), inertia - 1e-3, 0.0):
            model = dataclasses.replace(sample_result.model, inertia=doctored)
            problems = audit_result(dataclasses.replace(sample_result, model=model))
            assert len(problems) == 1 and problems[0].startswith(f"inertia {doctored} != recomputed ")


def _reachable(root, kind=np.ndarray) -> list:
    """Every ``kind`` reachable from ``root`` through the fields of the
    package's objects (cached properties included), mappings and sequences."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found.append(obj)
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple)):
            stack += obj
        elif type(obj).__module__.startswith("triage_miner.") and not isinstance(obj, enum.Enum):
            stack += vars(obj).values()
    return found


def test_the_run_holds_one_copy_of_the_records(tmp_path):
    """After ingest the records are the row table and the index: the only
    reachable array with one entry per record is the index (the bug ids are
    JSON text, and the model labels each table row), no (n, 5) array is
    reachable, and no cluster's itemset table is. Each kept
    rule table's columns, witnesses, pair index and confidence ranks are
    int32, as its counts fit, and its antecedent sizes int8."""
    source = tmp_path / "bugs.csv"
    write_csv(source, synthesize_rows(3000, seed=5))
    result = execute(PipelineConfig(input_path=str(source)))
    arrays = _reachable(result)
    per_record = [a for a in arrays if a.ndim and len(a) == 3000]
    assert len(per_record) == 1 and per_record[0] is result.index, per_record
    assert result.model.labels.shape == (len(result.rows),)
    assert not _reachable(result, Projection), "no itemset table outlives its cluster's rules"
    assert not [a.shape for a in arrays if a.shape == (3000, 5)]
    assert result.rows.shape == (len(np.unique(result.rows, axis=0)), 5)
    assert len(result.rows) < 3000
    for index, outcome in enumerate(result.outcomes):
        arrays = _reachable(outcome)
        assert arrays, "the walk reaches the rule tables"
        assert not [a.shape for a in arrays if a.ndim and len(a) == outcome.size], index
        rules, witness = outcome.partition.rules, outcome.partition.witness
        kept = (rules.codes, rules.consequent, rules.support, rules.antecedent_count, witness)
        ranks = (rules.pairs[1], rules.confidence_rank)
        assert {a.dtype for a in kept + ranks} == {np.dtype(np.int32)}, index
        assert rules.size.dtype == np.int8


def test_no_string_per_record_survives_ingest(tmp_path):
    """The bug ids are held as chunks of JSON text: no list or tuple holding
    a str per record is reachable from the result, and the ids read back in
    file order."""
    source = tmp_path / "bugs.csv"
    records = synthesize_rows(3000, seed=5)
    write_csv(source, records)
    result = execute(PipelineConfig(input_path=str(source)))
    sequences = _reachable(result, (list, tuple))
    assert sequences, "the walk reaches the codebooks"
    per_record = [len(s) for s in sequences if sum(isinstance(x, str) for x in s) >= 3000]
    assert not per_record, per_record
    assert len(result.bug_ids) == 3000
    assert list(result.bug_ids) == [record[0] for record in records]


def test_every_stage_after_ingest_runs_on_the_table(tmp_path, monkeypatch):
    """k-means, mining and the audit get no array with a row per record but
    the index, and distinct_rows never runs over the records."""
    source = tmp_path / "bugs.csv"
    write_csv(source, synthesize_rows(3000, seed=5))
    seen = []

    def spying(module, name):
        function = getattr(module, name)

        def spy(*args, **kwargs):
            seen.append((name, [a.shape for a in args if isinstance(a, np.ndarray)]))
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    for name in ("kmeans_fit", "mine_frequent_itemsets", "top_assignees", "audit_result"):
        spying(pipeline, name)
    spying(cluster, "distinct_rows")
    spying(rules, "distinct_rows")
    assert not hasattr(pipeline, "distinct_rows")
    execute(PipelineConfig(input_path=str(source)))
    assert {name for name, _ in seen} == {
        "kmeans_fit", "mine_frequent_itemsets", "top_assignees", "audit_result", "distinct_rows"
    }
    per_record = [(name, shape) for name, shapes in seen for shape in shapes if 3000 in shape]
    assert per_record == [("kmeans_fit", (3000,))], per_record


class TestRunVerify:
    def test_catches_a_doctored_count_given_to_the_miner(self, sample_csv, monkeypatch):
        """verify tallies the records themselves, so one table count off by
        one in every cluster shows as miscounted itemsets in every cluster."""
        mine_frequent_itemsets = pipeline.mine_frequent_itemsets

        def doctored(rows, counts, min_support_count):
            counts = counts.copy()
            counts[0] += 1
            return mine_frequent_itemsets(rows, counts, min_support_count)

        monkeypatch.setattr(pipeline, "mine_frequent_itemsets", doctored)
        result = execute(PipelineConfig(input_path=str(sample_csv)))
        ok, lines = run_verify(result)
        assert not ok
        mismatch = r"cluster (\d): FREQUENT-ITEMSET MISMATCH \(missing \d+, extra \d+,"
        clusters = [re.match(mismatch + r" miscounted [1-9]", line) for line in lines]
        assert [int(match[1]) for match in clusters if match] == list(range(result.model.k))

    def test_checks_the_runs_kept_rule_table(self, sample_result):
        """The run keeps no itemset table, so verify mines each cluster again
        and checks that the kept rule table is exactly what that table
        yields: one rule doctored in any column, or one rule dropped, fails."""
        partition = sample_result.outcomes[1].partition
        kept = partition.rules
        columns = {field.name: getattr(kept, field.name) for field in dataclasses.fields(kept)}
        doctored_tables = [RuleTable(**{name: values[:-1] for name, values in columns.items()})]
        for name, values in columns.items():
            values = values.copy()
            values[3] += 1
            doctored_tables.append(RuleTable(**{**columns, name: values}))
        for rules in doctored_tables:
            partition = dataclasses.replace(partition, rules=rules)
            ok, lines = run_verify(_with_outcome(sample_result, 1, partition=partition))
            assert not ok
            given = f"{len(rules)} rules kept, the verified itemsets give {len(kept)}"
            assert [line for line in lines if line.startswith("cluster 1:")] == [
                "cluster 1: itemsets OK (159 frequent itemsets)",
                f"cluster 1: RULE TABLE MISMATCH ({given})",
            ]
            assert sum("redundancy OK" in line for line in lines) == 4

    def test_checks_the_runs_own_partition(self, sample_result):
        partition = sample_result.outcomes[2].partition
        doctored = _with_witness(sample_result, 2, partition.redundant[0], -1)
        ok, lines = run_verify(doctored)
        assert not ok
        assert any(line.startswith("cluster 2: REDUNDANCY MISMATCH") for line in lines)


def test_rules_are_rendered_a_batch_at_a_time(sample_csv, tmp_path, monkeypatch):
    """execute and run_verify render nothing; write_outputs renders each
    cluster's rules at most WRITE_BATCH rows per call, each rule's own line
    once, essential rows first and in cluster order, and the run keeps none
    of it."""
    calls = []
    render_rules = report.render_rules

    def recording(strings, rows):
        calls.append([(id(strings.partition), row) for row in rows.tolist()])
        return render_rules(strings, rows)

    monkeypatch.setattr(report, "WRITE_BATCH", 3)
    monkeypatch.setattr(report, "render_rules", recording)
    assert not hasattr(pipeline, "render_rules")  # only the report writer renders
    config = PipelineConfig(input_path=str(sample_csv), output_dir=str(tmp_path / "out"))
    result = execute(config)
    assert run_verify(result)[0]
    assert calls == []
    write_outputs(result)
    assert {len(call) for call in calls} == {1, 2, 3}
    assert [rendered for call in calls for rendered in call] == [
        (id(outcome.partition), row)
        for outcome in result.outcomes
        for row in [*outcome.partition.essential.tolist(), *outcome.partition.redundant.tolist()]
    ]
    assert _reachable(result, report.ClusterStrings) == []
    assert not [text for text in _reachable(result, str) if "⇒" in text]


def test_run_builds_no_rule_objects(sample_csv, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("object built")

    monkeypatch.setattr(Rule, "__init__", forbidden)
    monkeypatch.setattr(Item, "__new__", forbidden)
    # the object view lives in the oracle only
    assert not hasattr(mine, "Item") and not hasattr(mine, "Itemset")
    config = PipelineConfig(input_path=str(sample_csv), output_dir=str(tmp_path / "out"))
    result = run_pipeline(config)
    assert sum(len(outcome.partition.rules) for outcome in result.outcomes) == 385
    # the oracles work on objects, so verify builds them
    with pytest.raises(AssertionError, match="object built"):
        run_verify(result)


def test_cluster_log_counts_the_itemsets_though_the_table_is_dropped(
    sample_csv, caplog, monkeypatch
):
    """Each cluster's INFO line counts the frequent itemsets the oracle
    finds, and the itemset table is no longer held while redundant rules are
    eliminated."""
    held = []

    def eliminating(table):
        held.append("table" in sys._getframe(1).f_locals)
        return rules.eliminate_redundant(table)

    monkeypatch.setattr(pipeline, "eliminate_redundant", eliminating)
    with caplog.at_level(logging.INFO, logger="triage_miner"):
        result = execute(PipelineConfig(input_path=str(sample_csv)))
    messages = [record.getMessage() for record in caplog.records]
    logged = [re.search(r"(\d+) frequent itemsets,", message) for message in messages]
    ok, lines = run_verify(result)
    verified = [re.search(r"itemsets OK \((\d+) frequent itemsets\)", line) for line in lines]
    assert ok and held == [False] * result.model.k
    counts = [int(match[1]) for match in logged if match]
    assert counts == [int(match[1]) for match in verified if match]
    assert len(counts) == result.model.k and counts[1] == 159


def test_rules_csv_reads_back_with_a_carriage_return_in_a_label(sample_csv, tmp_path):
    """A quoted cell keeps its bare \\r, so rules.csv must quote that label."""
    source = tmp_path / "bugs.csv"
    text = sample_csv.read_text(encoding="utf-8").replace(",Build Config,", ',"Build\rConfig",')
    source.write_text(text, encoding="utf-8", newline="")
    run_pipeline(PipelineConfig(input_path=str(source), output_dir=str(tmp_path / "out")))
    report_dir = tmp_path / "out" / "report"
    with open(report_dir / "rules.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    summary = json.loads((report_dir / "summary.json").read_text(encoding="utf-8"))
    assert {len(row) for row in [header, *rows]} == {7}
    assert len(rows) == summary["totals"]["rules"]
    assert any("Component{Build\rConfig}" in row[1] for row in rows)


@pytest.mark.parametrize("label", ["Build\rConfig", "Build\nConfig"])
def test_cluster_text_shows_a_line_break_in_a_label_and_keeps_each_rule_on_one_line(
    sample_csv, tmp_path, label
):
    """The text report prints a label's CR or LF as \\r or \\n, so every
    rule of the sample, and every witness, is one line of cluster_<i>.txt."""
    source = tmp_path / "bugs.csv"
    text = sample_csv.read_text(encoding="utf-8").replace(",Build Config,", f',"{label}",')
    source.write_text(text, encoding="utf-8", newline="")
    result = run_pipeline(PipelineConfig(input_path=str(source), output_dir=str(tmp_path / "out")))
    shown = label.replace("\r", "\\r").replace("\n", "\\n")
    prefix = "     subsumed by: "
    labelled = 0
    for index, outcome in enumerate(result.outcomes):
        path = tmp_path / "out" / "report" / f"cluster_{index}.txt"
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        assert not any("\r" in line for line in lines)
        rules = [line.split(". ", 1)[1] for line in lines if re.match(r"  \d+\. ", line)]
        witnesses = [line[len(prefix) :] for line in lines if line.startswith(prefix)]
        rendered = render_all(outcome.partition, result.codebooks)
        assert rules == [rule.replace(label, shown) for rule in rendered.text]
        assert witnesses == [w.replace(label, shown) for w in rendered.witness if w]
        labelled += sum(f"Component{{{shown}}}" in rule for rule in rules)
    assert labelled > 0


def _component_labels(source, out):
    """The Component labels the text report prints for a run on ``source``."""
    run_pipeline(PipelineConfig(input_path=str(source), output_dir=str(out)))
    text = "".join(
        path.read_text(encoding="utf-8") for path in sorted((out / "report").glob("cluster_*.txt"))
    )
    return set(re.findall(r"Component\{[^}]*\}", text))


def test_cluster_text_tells_a_backslash_from_a_line_break_escape(sample_csv, tmp_path):
    """Once some label holds CR, the text report doubles a backslash, so a
    label holding a literal backslash-r no longer prints like one holding a
    CR; with no CR or LF label a backslash prints as it is."""
    text = sample_csv.read_text(encoding="utf-8")
    cells = iter([",Build\\rConfig,", ',"Build\rConfig",'] * 17)
    mixed, backslash_only = tmp_path / "mixed.csv", tmp_path / "backslash.csv"
    mixed.write_text(
        re.sub(",Build Config,", lambda _: next(cells), text), encoding="utf-8", newline=""
    )
    labels = _component_labels(mixed, tmp_path / "mixed")
    assert {"Component{Build\\\\rConfig}", "Component{Build\\rConfig}"} <= labels

    backslash_only.write_text(text.replace(",Build Config,", ",Build\\rConfig,"), encoding="utf-8")
    assert "Component{Build\\rConfig}" in _component_labels(backslash_only, tmp_path / "plain")
