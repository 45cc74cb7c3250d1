"""The pipeline's self-checks on the bundled sample: the audit's witness
check, `run_verify` diffing the run's own tables, and rendering each rule
once."""

import dataclasses

import pytest

from triage_miner import report
from triage_miner.config import PipelineConfig
from triage_miner.mine import Projection
from triage_miner.oracle import witness_is_valid
from triage_miner.pipeline import PipelineResult, audit_result, execute, run_verify


@pytest.fixture(scope="module")
def sample_result(sample_csv) -> PipelineResult:
    return execute(PipelineConfig(input_path=str(sample_csv)))


def _with_outcome(result: PipelineResult, index: int, **changes) -> PipelineResult:
    """A copy of ``result`` whose outcome ``index`` has ``changes`` applied."""
    outcomes = list(result.outcomes)
    outcomes[index] = dataclasses.replace(outcomes[index], **changes)
    return dataclasses.replace(result, outcomes=outcomes)


def _with_partition(result: PipelineResult, index: int, **changes) -> PipelineResult:
    partition = dataclasses.replace(result.outcomes[index].partition, **changes)
    return _with_outcome(result, index, partition=partition)


class TestAuditWitness:
    def test_non_essential_witness_is_reported(self, sample_result):
        partition = sample_result.outcomes[0].partition
        (rule, _), (other, _) = partition.redundant[:2]
        doctored = _with_partition(
            sample_result, 0, redundant=((rule, other),) + partition.redundant[1:]
        )
        problems = audit_result(doctored)
        assert len(problems) == 1
        assert problems[0].startswith("cluster 0: invalid witness")

    def test_essential_witness_that_does_not_subsume_is_reported(self, sample_result):
        partition = sample_result.outcomes[0].partition
        essential_keys = {rule.key for rule in partition.essential}
        rule, _ = partition.redundant[0]
        stranger = next(
            candidate for candidate in partition.essential
            if not witness_is_valid(rule, candidate, essential_keys)
        )
        doctored = _with_partition(
            sample_result, 0, redundant=((rule, stranger),) + partition.redundant[1:]
        )
        assert [p for p in audit_result(doctored) if "invalid witness" in p]


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
        table = sample_result.outcomes[1].table
        projections = dict(table.projections)
        subset, projection = next(iter(projections.items()))
        projections[subset] = Projection(*(column[1:] for column in projection))
        doctored = _with_outcome(
            sample_result, 1, table=dataclasses.replace(table, projections=projections)
        )
        ok, lines = run_verify(doctored)
        assert not ok
        assert "cluster 1: FREQUENT-ITEMSET MISMATCH (missing 1, extra 0, miscounted 0)" in lines

    def test_checks_the_runs_own_partition(self, sample_result):
        partition = sample_result.outcomes[2].partition
        (rule, _), *rest = partition.redundant
        doctored = _with_partition(
            sample_result, 2, essential=partition.essential + (rule,), redundant=tuple(rest)
        )
        ok, lines = run_verify(doctored)
        assert not ok
        assert any(line.startswith("cluster 2: REDUNDANCY MISMATCH") for line in lines)


def test_each_rule_is_rendered_once(sample_csv, monkeypatch):
    calls = []
    render_rule = report.render_rule

    def counting(rule, codebooks):
        calls.append(rule.key)
        return render_rule(rule, codebooks)

    monkeypatch.setattr(report, "render_rule", counting)
    result = execute(PipelineConfig(input_path=str(sample_csv)))
    rule_keys = [rule.key for o in result.outcomes for rule in o.partition.all_rules()]
    assert sorted(calls) == sorted(rule_keys)
