"""The pipeline's self-checks on the bundled sample: the audit's witness
check, `run_verify` diffing the run's own tables, rendering each rule once,
and rule objects built only for verification."""

import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import rule_table

from triage_miner import mine, pipeline
from triage_miner.config import PipelineConfig
from triage_miner.ingest import Attribute
from triage_miner.mine import Projection
from triage_miner.oracle import Item, Itemset, Rule, rule_objects, witness_is_valid
from triage_miner.pipeline import (
    PipelineResult,
    _audit_rules,
    audit_result,
    execute,
    run_pipeline,
    run_verify,
)
from triage_miner.rules import RulePartition


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
            Rule(Itemset([self.SEV4]), Item(Attribute.ASSIGNEE, 9), 6, 10),  # the witness
            Rule(Itemset([self.SEV4, self.PRI3]), Item(Attribute.ASSIGNEE, 9), 5, 10),
            Rule(Itemset([self.SEV4]), Item(Attribute.ASSIGNEE, 1), 6, 10),  # other assignee
            Rule(Itemset([self.SEV5]), Item(Attribute.ASSIGNEE, 9), 6, 10),  # other code
            Rule(Itemset([self.PRI3]), Item(Attribute.ASSIGNEE, 9), 4, 10),  # less confident
            Rule(Itemset([self.SEV4, self.OS1]), Item(Attribute.ASSIGNEE, 9), 7, 10),  # same size
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
            Rule(Itemset([self.SEV4, self.PRI3]), Item(Attribute.ASSIGNEE, 9), 5, 10),
            Rule(Itemset([self.SEV4]), Item(Attribute.ASSIGNEE, 9), 6, 10),
        ]
        partition = RulePartition(rule_table(rules), np.array([2, -1]))
        assert _audit_rules(partition, self.CONFIG) == ["invalid witness (1 rules, first row 0)"]

    def test_a_redundant_witness_is_reported(self):
        assert self._problems(essential_row_0=False) == ["invalid witness (2 rules, first row 0)"]

    def test_thresholds_are_rechecked(self):
        low_support = Rule(Itemset([self.OS1]), Item(Attribute.ASSIGNEE, 9), 1, 2)
        low_confidence = Rule(Itemset([self.OS1]), Item(Attribute.ASSIGNEE, 1), 2, 10)
        assert self._problems(extra=[low_support, low_confidence]) == [
            "rules below min support (1 rules, first row 6)",
            "rules below min confidence (1 rules, first row 7)",
        ]


class TestAuditRows:
    def test_rows_that_are_not_the_assigned_rows_are_reported(self, sample_result):
        rows = sample_result.outcomes[0].rows
        doctored = _with_outcome(sample_result, 0, rows=rows[::-1])
        assert audit_result(doctored) == [
            "cluster 0: rows are not the input rows assigned to it"
        ]

    def test_a_missing_cluster_is_reported(self, sample_result):
        doctored = dataclasses.replace(sample_result, outcomes=sample_result.outcomes[:-1])
        assert "cluster outcomes do not match the model's clusters" in audit_result(doctored)


class TestRunVerify:
    def test_checks_the_runs_own_itemset_table(self, sample_result):
        table = dict(sample_result.outcomes[1].table)
        subset, projection = next(iter(table.items()))
        table[subset] = Projection(*(column[1:] for column in projection))
        doctored = _with_outcome(sample_result, 1, table=table)
        ok, lines = run_verify(doctored)
        assert not ok
        assert "cluster 1: FREQUENT-ITEMSET MISMATCH (missing 1, extra 0, miscounted 0)" in lines

    def test_checks_the_runs_own_partition(self, sample_result):
        partition = sample_result.outcomes[2].partition
        doctored = _with_witness(sample_result, 2, partition.redundant[0], -1)
        ok, lines = run_verify(doctored)
        assert not ok
        assert any(line.startswith("cluster 2: REDUNDANCY MISMATCH") for line in lines)


def test_each_rule_is_rendered_once(sample_csv, monkeypatch):
    calls = []
    render_partition = pipeline.render_partition

    def counting(partition, codebooks):
        calls.append(partition)
        return render_partition(partition, codebooks)

    monkeypatch.setattr(pipeline, "render_partition", counting)
    result = execute(PipelineConfig(input_path=str(sample_csv)))
    assert [id(call) for call in calls] == [id(outcome.partition) for outcome in result.outcomes]
    for outcome in result.outcomes:
        assert len(outcome.rendered.text) == outcome.partition.rule_count


def test_run_builds_no_rule_objects(sample_csv, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("object built")

    monkeypatch.setattr(Rule, "__init__", forbidden)
    monkeypatch.setattr(Itemset, "__init__", forbidden)
    monkeypatch.setattr(Item, "__new__", forbidden)
    # the object view lives in the oracle only
    assert not hasattr(mine, "Item") and not hasattr(mine, "Itemset")
    config = PipelineConfig(input_path=str(sample_csv), output_dir=str(tmp_path / "out"))
    result = run_pipeline(config)
    assert sum(outcome.partition.rule_count for outcome in result.outcomes) == 385
    # the oracles work on objects, so verify builds them
    with pytest.raises(AssertionError, match="object built"):
        run_verify(result)


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
        rendered = outcome.rendered
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
