"""Differential tests of the whole pipeline beyond the bundled sample: full
`execute()` runs over synthetic datasets of varied shape and parameters,
each cluster diffed against the brute-force oracles."""

import tempfile
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, reject, settings

from conftest import rule_split
from triage_miner.config import PipelineConfig
from triage_miner.errors import InfeasibleKError
from triage_miner.ingest import Attribute
from triage_miner.oracle import (
    Itemset,
    enumerate_frequent_itemsets,
    essential_rules_naive,
    itemset_supports,
)
from triage_miner.pipeline import execute
from triage_miner.synth import synthesize_rows, write_csv


def _reference_rules(reference: dict, allowed: set, min_confidence: float) -> set:
    """(antecedent items, consequent, support, antecedent count) of every
    class rule read straight off an oracle itemset table."""
    rules = set()
    for itemset, count in reference.items():
        consequents = [item for item in itemset if item.attribute == Attribute.ASSIGNEE]
        if len(itemset) < 2 or len(consequents) != 1 or consequents[0].code not in allowed:
            continue
        antecedent = Itemset(item for item in itemset if item != consequents[0])
        if count / reference[antecedent] >= min_confidence:
            rules.add((antecedent.items, consequents[0], count, reference[antecedent]))
    return rules


@given(
    rows=st.integers(1, 300),
    components=st.integers(1, 12),
    operating_systems=st.integers(1, 5),
    assignees=st.integers(1, 15),
    skew=st.sampled_from((0.0, 1.0, 2.0)),
    data_seed=st.integers(0, 2**16),
    k=st.integers(1, 5),
    min_support_count=st.integers(1, 6),
    min_confidence=st.sampled_from((0.05, 0.1, 0.3, 0.6, 1.0)),
    top_n=st.integers(1, 6),
)
@settings(max_examples=30, deadline=None)
def test_execute_matches_the_oracles_on_synthetic_data(
    rows,
    components,
    operating_systems,
    assignees,
    skew,
    data_seed,
    k,
    min_support_count,
    min_confidence,
    top_n,
):
    with tempfile.TemporaryDirectory() as workdir:
        csv_path = Path(workdir) / "bugs.csv"
        write_csv(
            csv_path,
            synthesize_rows(rows, components, operating_systems, assignees, skew, data_seed),
        )
        config = PipelineConfig(
            input_path=str(csv_path),
            k=k,
            min_support_count=min_support_count,
            min_confidence=min_confidence,
            top_n=top_n,
        )
        try:
            result = execute(config)
        except InfeasibleKError:
            reject()

    assert sum(len(outcome.rows) for outcome in result.outcomes) == rows
    for outcome in result.outcomes:
        code_rows = outcome.rows.tolist()
        reference = enumerate_frequent_itemsets(code_rows, min_support_count)
        assert itemset_supports(outcome.table) == reference

        tally = Counter(row[Attribute.ASSIGNEE] for row in code_rows)
        ranked = sorted(tally, key=lambda code: (-tally[code], code))[:top_n]
        assignees = result.codebooks[Attribute.ASSIGNEE]
        assert outcome.top_assignees == [assignees.decode(code) for code in ranked]

        split = rule_split(outcome.partition)
        rules = split.all_rules()
        assert {
            (rule.antecedent.items, rule.consequent, rule.support_count, rule.antecedent_count)
            for rule in rules
        } == _reference_rules(reference, set(ranked), min_confidence)
        assert {rule.key for rule in split.essential} == essential_rules_naive(rules)
