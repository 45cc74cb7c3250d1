"""Metamorphic tests of the whole pipeline at k=1, where clustering is fixed:
a known change to the input or the parameters must change the rule tables
in a known way (Zaki, KDD 2000, on the subsumption properties pinned here)."""

import random
import re
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from conftest import rule_split
from triage_miner.config import PipelineConfig
from triage_miner.ingest import Attribute
from triage_miner.pipeline import PipelineResult, execute
from triage_miner.report import ClusterOutcome, build_summary
from triage_miner.synth import synthesize_rows, write_csv

SHAPES = dict(
    rows=st.integers(1, 250),
    components=st.integers(1, 10),
    operating_systems=st.integers(1, 5),
    assignees=st.integers(1, 12),
    skew=st.sampled_from((0.0, 1.0, 2.0)),
    data_seed=st.integers(0, 2**16),
    min_support_count=st.integers(1, 4),
    top_n=st.integers(1, 6),
)


def _run(rows, **parameters) -> PipelineResult:
    with tempfile.TemporaryDirectory() as workdir:
        csv_path = Path(workdir) / "bugs.csv"
        write_csv(csv_path, rows)
        return execute(PipelineConfig(input_path=str(csv_path), k=1, **parameters))


def _single_cluster(rows, **parameters) -> ClusterOutcome:
    [outcome] = _run(rows, **parameters).outcomes
    return outcome


def _table(outcome: ClusterOutcome) -> dict:
    """Rule key -> (support, antecedent count, witness key or None), in the
    order the report lists the rules."""
    partition = rule_split(outcome.partition)
    table = {
        rule.key: (rule.support_count, rule.antecedent_count, None)
        for rule in partition.essential
    }
    for rule, witness in partition.redundant:
        table[rule.key] = (rule.support_count, rule.antecedent_count, witness.key)
    return table


@given(
    **SHAPES,
    confidences=st.lists(
        st.sampled_from((0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0)), min_size=2, max_size=2, unique=True
    ),
)
@settings(max_examples=25, deadline=None)
def test_raising_min_confidence_only_removes_rules(
    rows, components, operating_systems, assignees, skew, data_seed, min_support_count, top_n,
    confidences,
):
    low, high = sorted(confidences)
    data = synthesize_rows(rows, components, operating_systems, assignees, skew, data_seed)
    shared = dict(min_support_count=min_support_count, top_n=top_n)
    before = _table(_single_cluster(data, min_confidence=low, **shared))
    after = _table(_single_cluster(data, min_confidence=high, **shared))
    # the survivors are exactly the rules at or above the new threshold, each
    # with its counts, its status and its witness: a witness is never less
    # confident than the rule it subsumes, so it survives too
    assert after == {
        key: entry for key, entry in before.items() if entry[0] / entry[1] >= high
    }
    assert list(after) == [key for key in before if key in after]


@given(**SHAPES, min_confidence=st.sampled_from((0.05, 0.1, 0.3, 0.6, 1.0)))
@settings(max_examples=25, deadline=None)
def test_duplicating_rows_and_doubling_support_doubles_every_count(
    rows, components, operating_systems, assignees, skew, data_seed, min_support_count, top_n,
    min_confidence,
):
    data = synthesize_rows(rows, components, operating_systems, assignees, skew, data_seed)
    copies = [(f"{bug_id}-copy", *cells) for bug_id, *cells in data]
    shared = dict(min_confidence=min_confidence, top_n=top_n)
    once = _single_cluster(data, min_support_count=min_support_count, **shared)
    twice = _single_cluster(data + copies, min_support_count=2 * min_support_count, **shared)
    assert twice.top_assignees == once.top_assignees
    doubled = {
        key: (2 * support, 2 * antecedent_count, witness)
        for key, (support, antecedent_count, witness) in _table(once).items()
    }
    # same rules in the same order, same confidences, same split and witnesses
    assert list(_table(twice).items()) == list(doubled.items())



# synthesized row column -> relabelled attribute
_RELABELLED_COLUMNS = {3: Attribute.COMPONENT, 4: Attribute.OPERATING_SYSTEM, 5: Attribute.ASSIGNEE}
# a relabelled attribute's label in a rendered rule, after its prefix
_RENDERED_LABEL = re.compile(r"(Component|Os |Assignee )\{([^{}]*)\}")
_PREFIXES = {"Component": Attribute.COMPONENT, "Os ": Attribute.OPERATING_SYSTEM,
             "Assignee ": Attribute.ASSIGNEE}


@given(
    **SHAPES,
    min_confidence=st.sampled_from((0.05, 0.1, 0.3, 0.6, 1.0)),
    shuffle_seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_relabelling_categories_changes_only_rendered_labels(
    rows, components, operating_systems, assignees, skew, data_seed, min_support_count, top_n,
    min_confidence, shuffle_seed,
):
    data = synthesize_rows(rows, components, operating_systems, assignees, skew, data_seed)
    # a bijection per attribute: the labels trade places among themselves, so
    # their sorted order changes, and some of them change case
    shuffle = random.Random(shuffle_seed)
    mappings = {}
    for column, attribute in _RELABELLED_COLUMNS.items():
        labels = sorted({row[column] for row in data})
        targets = shuffle.sample(labels, len(labels))
        mappings[attribute] = {
            label: target.upper() if shuffle.random() < 0.5 else target
            for label, target in zip(labels, targets)
        }
    relabelled_data = [
        tuple(
            mappings[_RELABELLED_COLUMNS[column]][cell] if column in _RELABELLED_COLUMNS else cell
            for column, cell in enumerate(row)
        )
        for row in data
    ]
    parameters = dict(
        min_support_count=min_support_count, min_confidence=min_confidence, top_n=top_n
    )
    original = _run(data, **parameters)
    relabelled = _run(relabelled_data, **parameters)

    # applied row by row, a bijection keeps first-appearance order, so every
    # code, count, rule, status and witness is unchanged, in the same order
    assert np.array_equal(relabelled.codes, original.codes)
    [before], [after] = original.outcomes, relabelled.outcomes
    renamed = mappings[Attribute.ASSIGNEE]
    assert after.top_assignees == [renamed[label] for label in before.top_assignees]
    assert list(_table(after).items()) == list(_table(before).items())
    for attribute, mapping in mappings.items():
        assert relabelled.codebooks[attribute].forward == {
            mapping[label]: code for label, code in original.codebooks[attribute].forward.items()
        }

    # the rendered report differs from the original exactly by the mapping
    def relabel(text: str) -> str:
        return _RENDERED_LABEL.sub(
            lambda match: f"{match[1]}{{{mappings[_PREFIXES[match[1]]][match[2]]}}}", text
        )

    assert after.top_assignees == [
        mappings[Attribute.ASSIGNEE][label] for label in before.top_assignees
    ]
    [summary], [expected] = (
        build_summary(len(data), {}, [outcome])["clusters"] for outcome in (after, before)
    )
    assert summary == {**expected, "top_assignees": after.top_assignees}
    assert after.rendered.text == [relabel(text) for text in before.rendered.text]
    assert after.rendered.witness == [relabel(text) for text in before.rendered.witness]
