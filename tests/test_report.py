import csv
import json
import math
import tempfile
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    cluster_outcome,
    render_text,
    rule_lists,
    rule_table,
    simple_codebooks,
    split_rules,
)
from triage_miner.cluster import ClusterModel
from triage_miner.errors import ConsistencyError, UnknownCategoryError
from triage_miner.ingest import Attribute, Codebook
from triage_miner.oracle import Item, Itemset, Rule
from triage_miner.report import (
    build_summary,
    confidence_percents,
    length_histogram,
    render_partition,
    write_cluster_text,
    write_clusters_json,
    write_rules_csv,
)
from triage_miner.rules import eliminate_redundant


def _fraction_percent(support: int, antecedent: int) -> str:
    """Half-up percentage computed with Fractions, the reference for the
    integer arithmetic of format_confidence_percent."""
    hundredths = math.floor(Fraction(support * 10000, antecedent) + Fraction(1, 2))
    whole, cents = divmod(hundredths, 100)
    return str(whole) if cents == 0 else f"{whole}.{cents:02d}"


def _codebooks_for(component_labels, os_labels, assignee_labels):
    from triage_miner.ingest import PRIORITY_CODEBOOK, SEVERITY_CODEBOOK

    def learned(attribute, labels):
        forward = {label: i for i, label in enumerate(labels, start=1)}
        return Codebook(attribute, forward, {c: l for l, c in forward.items()})

    return {
        Attribute.SEVERITY: SEVERITY_CODEBOOK,
        Attribute.PRIORITY: PRIORITY_CODEBOOK,
        Attribute.COMPONENT: learned(Attribute.COMPONENT, component_labels),
        Attribute.OPERATING_SYSTEM: learned(Attribute.OPERATING_SYSTEM, os_labels),
        Attribute.ASSIGNEE: learned(Attribute.ASSIGNEE, assignee_labels),
    }


def _rule(items, consequent_code, support, antecedent_count) -> Rule:
    return Rule(Itemset(items), Item(Attribute.ASSIGNEE, consequent_code), support, antecedent_count)


def format_confidence_percent(support: int, antecedent_count: int) -> str:
    """confidence_percents of one pair."""
    [percent] = confidence_percents([support], [antecedent_count])
    return percent


class TestConfidencePercent:
    @pytest.mark.parametrize(
        "support,antecedent,expected",
        [
            (9, 17, "52.94"),
            (3, 4, "75"),
            (7, 7, "100"),
            (4, 6, "66.67"),
            (2, 3, "66.67"),
            (13, 47, "27.66"),
            (7, 9, "77.78"),
            (3, 13, "23.08"),
            (3, 10, "30"),
            (3, 18, "16.67"),
            (3, 5, "60"),
            (1, 2, "50"),
            (1, 10, "10"),
        ],
    )
    def test_paper_table_values(self, support, antecedent, expected):
        assert format_confidence_percent(support, antecedent) == expected

    def test_half_up_at_exact_tie(self):
        # 423/800 = 52.875% rounds up, not to even
        assert format_confidence_percent(423, 800) == "52.88"

    def test_two_decimals_kept_unless_all_zero(self):
        # 333/500 = 66.60% exactly: only an all-zero fraction is trimmed
        assert format_confidence_percent(333, 500) == "66.60"

    @given(st.integers(1, 2**70), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_formula(self, antecedent, data):
        support = data.draw(st.integers(0, antecedent))
        assert format_confidence_percent(support, antecedent) == _fraction_percent(
            support, antecedent
        )

    @given(st.integers(0, 9999), st.integers(1, 2**40))
    @settings(max_examples=300, deadline=None)
    def test_half_up_at_every_x_xx5_boundary(self, hundredths, scale):
        # (2h + 1) / 20000 is exactly h + 1/2 hundredths of a percent
        support, antecedent = (2 * hundredths + 1) * scale, 20000 * scale
        expected = _fraction_percent(support, antecedent)
        assert format_confidence_percent(support, antecedent) == expected
        assert expected == _fraction_percent(hundredths + 1, 10000)


class TestRenderRule:
    def test_four_antecedent_rule_matches_the_house_grammar(self):
        books = _codebooks_for(["Build Config"], ["Linux"], ["Jon Granrose"])
        rule = _rule(
            [
                Item(Attribute.SEVERITY, 4),
                Item(Attribute.PRIORITY, 3),
                Item(Attribute.OPERATING_SYSTEM, 1),
                Item(Attribute.COMPONENT, 1),
            ],
            1, 9, 17,
        )
        assert render_text(rule, books) == (
            "Severity {Normal} ∧ Priority {P3} ∧ Os {Linux} ∧ Component{Build Config}"
            " ⇒ Assignee {Jon Granrose} @ (9,52.94%)"
        )

    def test_two_antecedent_rule_with_integral_confidence(self):
        books = _codebooks_for(["User Interface"], ["All"], ["Ben Goodger"])
        rule = _rule(
            [Item(Attribute.OPERATING_SYSTEM, 1), Item(Attribute.COMPONENT, 1)], 1, 3, 4
        )
        assert render_text(rule, books) == (
            "Os {All} ∧ Component{User Interface} ⇒ Assignee {Ben Goodger} @ (3,75%)"
        )

    def test_attribute_print_order_is_severity_priority_os_component(self):
        books = _codebooks_for(["General"], ["All"], ["x"])
        rule = _rule(
            [Item(Attribute.COMPONENT, 1), Item(Attribute.SEVERITY, 6)], 1, 3, 13
        )
        assert render_text(rule, books) == (
            "Severity {Trivial} ∧ Component{General} ⇒ Assignee {x} @ (3,23.08%)"
        )

    def test_absent_attributes_are_omitted(self):
        books = _codebooks_for(["General"], ["All"], ["x"])
        rule = _rule([Item(Attribute.PRIORITY, 2)], 1, 3, 6)
        assert render_text(rule, books) == "Priority {P2} ⇒ Assignee {x} @ (3,50%)"

    def test_undecodable_code_raises(self):
        books = _codebooks_for(["General"], ["All"], ["x"])
        rule = _rule([Item(Attribute.COMPONENT, 99)], 1, 3, 6)
        with pytest.raises(UnknownCategoryError):
            render_text(rule, books)

    def test_render_antecedent_fragment(self):
        books = _codebooks_for(["General"], ["All"], ["x"])
        rule = _rule([Item(Attribute.OPERATING_SYSTEM, 1), Item(Attribute.PRIORITY, 1)], 1, 1, 2)
        partition = eliminate_redundant(rule_table([rule]))
        assert render_partition(partition, books).antecedent == ["Priority {P1} ∧ Os {All}"]

    @given(rule_lists(max_rules=25))
    @settings(max_examples=40, deadline=None)
    def test_injective_on_distinct_rules(self, rules):
        books = simple_codebooks()
        rendered = render_partition(eliminate_redundant(rule_table(rules)), books).text
        assert len(set(rendered)) == len(rules)


class TestPairStrings:
    """Percentages and confidences are built once per distinct (support,
    antecedent count) pair of the rule table, in Python ints for counts of any
    size; every rule must still get its own pair's strings."""

    @pytest.mark.parametrize("m", [2**31 - 1, 2**31, 2**62])
    def test_each_rule_gets_its_pairs_strings(self, m):
        pairs = [(m - 2, m - 1), (m - 2, m), (m - 1, m), (1, m), (1, 3), (m - 2, m - 1)]
        rules = [
            _rule([Item(Attribute.COMPONENT, code)], 1, support, antecedent)
            for code, (support, antecedent) in enumerate(pairs, start=1)
        ]
        rendered = render_partition(eliminate_redundant(rule_table(rules)), simple_codebooks())
        assert rendered.support == [support for support, _ in pairs]
        assert rendered.confidence == [repr(s / a) for s, a in pairs]
        assert [text.split(" @ ")[1] for text in rendered.text] == [
            f"({s},{_fraction_percent(s, a)}%)" for s, a in pairs
        ]


class TestLengthHistogram:
    def test_empty(self):
        assert length_histogram(rule_table([])) == {1: 0, 2: 0, 3: 0, 4: 0}

    def test_single_four_antecedent_rule(self):
        rule = _rule(
            [
                Item(Attribute.SEVERITY, 1),
                Item(Attribute.PRIORITY, 1),
                Item(Attribute.COMPONENT, 1),
                Item(Attribute.OPERATING_SYSTEM, 1),
            ],
            1, 1, 1,
        )
        assert length_histogram(rule_table([rule])) == {1: 0, 2: 0, 3: 0, 4: 1}

    def test_mixed_sizes_tally(self):
        attrs = (
            Attribute.SEVERITY,
            Attribute.PRIORITY,
            Attribute.COMPONENT,
            Attribute.OPERATING_SYSTEM,
        )
        def of_size(n, code):
            return _rule([Item(a, code) for a in attrs[:n]], 1, 1, 1)

        rules = [of_size(1, 1), of_size(2, 1), of_size(2, 2), of_size(2, 3),
                 of_size(3, 1), of_size(4, 1), of_size(4, 2)]
        assert length_histogram(rule_table(rules)) == {1: 1, 2: 3, 3: 1, 4: 2}


class TestClusterOutcome:
    def test_empty_partition(self, tmp_path):
        books = simple_codebooks()
        outcomes = [cluster_outcome([], books, size=1)] * 2 + [cluster_outcome([], books, size=9)]
        summary = build_summary(11, {}, outcomes)
        assert summary["clusters"][2] == {
            "cluster": 2,
            "size": 9,
            "top_assignees": ["Dev 1"],
            "rules": 0,
            "essential": 0,
            "redundant": 0,
            "length_histogram": {"1": 0, "2": 0, "3": 0, "4": 0},
        }
        assert outcomes[2].rendered.text == outcomes[2].rendered.witness == []
        write_cluster_text(tmp_path / "cluster_2.txt", 2, outcomes[2])
        assert (tmp_path / "cluster_2.txt").read_text(encoding="utf-8").split("\n")[:6] == [
            "Cluster 2",
            "=========",
            "Records: 9",
            "Top assignees: Dev 1",
            "Rules: 0 (essential 0, redundant 0)",
            "Antecedent length histogram: 1=0 2=0 3=0 4=0",
        ]

    def test_counts_and_histogram_are_consistent(self):
        books = simple_codebooks()
        rules = [
            _rule([Item(Attribute.SEVERITY, 1)], 1, 8, 10),
            _rule([Item(Attribute.PRIORITY, 1)], 1, 6, 10),
            _rule([Item(Attribute.COMPONENT, 1)], 2, 5, 10),
            _rule([Item(Attribute.SEVERITY, 1), Item(Attribute.PRIORITY, 1)], 1, 7, 10),
            _rule([Item(Attribute.SEVERITY, 1), Item(Attribute.COMPONENT, 1)], 2, 3, 10),
        ]
        outcome = cluster_outcome(rules, books, top_codes=[1, 2])
        [cluster] = build_summary(10, {}, [outcome])["clusters"]
        assert cluster["essential"] + cluster["redundant"] == cluster["rules"] == 5
        assert sum(cluster["length_histogram"].values()) == 5
        assert cluster["top_assignees"] == ["Dev 1", "Dev 2"]
        rendered = outcome.rendered
        assert len(rendered.text) == len(rendered.witness) == 5
        assert rendered.text[: cluster["essential"]] == [
            render_text(r, books) for r in split_rules(rules).essential
        ]


_HEADER = "cluster,antecedent,consequent,support_count,confidence,status,witness".split(",")

# labels holding every character that needs CSV quoting, the rule grammar's
# own symbols and non-ASCII text
_labels_text = st.text(
    st.sampled_from([",", '"', "\r", "\n", "∧", "⇒", "{", "}", "@", " ", "é", "漢", "a"]),
    min_size=1,
    max_size=6,
)


@st.composite
def label_codebooks(draw):
    """simple_codebooks with the learned labels of codes 1..3 drawn from
    ``_labels_text``."""
    books = simple_codebooks()
    for attribute in (Attribute.COMPONENT, Attribute.OPERATING_SYSTEM, Attribute.ASSIGNEE):
        labels = draw(st.lists(_labels_text, min_size=3, max_size=3, unique=True))
        forward = {label: code for code, label in enumerate(labels, start=1)}
        books[attribute] = Codebook(attribute, forward, {c: l for l, c in forward.items()})
    return books


def _outcomes(clusters, books):
    return [cluster_outcome(rules, books) for rules in clusters]


def _csv_writer_rules_csv(path: Path, outcomes) -> None:
    """rules.csv as csv.writer writes it, as it was written before the
    rendered rows; before Python 3.13 it leaves a bare \\r unquoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER)
        for index, outcome in enumerate(outcomes):
            rendered, partition = outcome.rendered, outcome.partition
            status = ["essential"] * len(partition.essential) + ["redundant"] * len(
                partition.redundant
            )
            writer.writerows(
                zip(
                    repeat(index),
                    rendered.antecedent,
                    rendered.assignee,
                    rendered.support,
                    rendered.confidence,
                    status,
                    rendered.witness,
                )
            )


def _rendered_rows(outcomes) -> list[list[str]]:
    rows = [_HEADER]
    for index, outcome in enumerate(outcomes):
        rendered, essential = outcome.rendered, len(outcome.partition.essential)
        for row, columns in enumerate(zip(*rendered[1:6])):
            antecedent, assignee, support, confidence, witness = columns
            status = "essential" if row < essential else "redundant"
            fields = [antecedent, assignee, str(support), confidence, status, witness]
            rows.append([str(index), *fields])
    return rows


class TestRulesCsv:
    @given(st.lists(rule_lists(max_rules=12), min_size=1, max_size=3), label_codebooks())
    @settings(max_examples=80, deadline=None)
    def test_reads_back_to_the_rendered_columns(self, clusters, books):
        outcomes = _outcomes(clusters, books)
        with tempfile.TemporaryDirectory() as scratch:
            path, reference = Path(scratch) / "rules.csv", Path(scratch) / "reference.csv"
            write_rules_csv(path, outcomes)
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows == _rendered_rows(outcomes)
            assert {len(row) for row in rows} == {7}
            if not any("\r" in label for book in books.values() for label in book.forward):
                _csv_writer_rules_csv(reference, outcomes)
                assert path.read_bytes() == reference.read_bytes()

    def test_a_label_holding_a_carriage_return_is_quoted(self):
        books = _codebooks_for(["Build\rConfig"], ["All"], ["Frank Moreau"])
        rule = _rule([Item(Attribute.COMPONENT, 1)], 1, 3, 4)
        outcomes = _outcomes([[rule]], books)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "rules.csv"
            write_rules_csv(path, outcomes)
            assert path.read_bytes().decode("utf-8").split("\n")[1] == (
                '0,"Component{Build\rConfig}",Frank Moreau,3,0.75,essential,'
            )
            with open(path, newline="", encoding="utf-8") as fh:
                assert list(csv.reader(fh)) == _rendered_rows(outcomes)


def _model_to_json(model: ClusterModel, bug_ids) -> dict:
    """clusters.json's payload as a dict, keyed by bug_id."""
    return {
        "k": model.k,
        "seed": model.seed,
        "iterations_run": model.iterations_run,
        "inertia": model.inertia,
        "centroids": [list(c) for c in model.centroids],
        "assignments": dict(zip(bug_ids, model.assignments.tolist())),
        "cluster_sizes": model.cluster_sizes(),
    }


# bug ids holding what JSON escapes or passes through: quotes, backslashes,
# control characters, non-ASCII text and the line/paragraph separators
_bug_ids = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\r", "\t", "\u2028", "\u2029", "😀"]),
        st.characters(exclude_categories=("Cs",)),
    ),
    min_size=1,
    max_size=8,
)
_coordinates = st.floats(allow_nan=False, allow_infinity=False)
_centroids = st.lists(_coordinates, min_size=4, max_size=4)


class TestClustersJson:
    @given(st.data(), st.integers(1, 4), st.lists(_bug_ids, min_size=1, max_size=20, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_bytes_match_the_indented_encoder(self, data, k, bug_ids):
        n = len(bug_ids)
        model = ClusterModel(
            k=k,
            centroids=tuple(tuple(data.draw(_centroids)) for _ in range(k)),
            assignments=np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))),
            inertia=data.draw(_coordinates),
            seed=data.draw(st.integers(0, 2**32)),
            iterations_run=data.draw(st.integers(0, 300)),
            inertia_history=(0.0,),
        )
        expected = json.dumps(_model_to_json(model, bug_ids), indent=2, ensure_ascii=False) + "\n"
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "clusters.json"
            write_clusters_json(path, model, bug_ids)
            assert path.read_bytes() == expected.encode("utf-8")

    def test_a_record_count_mismatch_is_a_consistency_error(self, tmp_path):
        model = ClusterModel(1, ((0.0,) * 4,), np.zeros(2, dtype=np.int64), 0.0, 0, 1, (0.0,))
        with pytest.raises(ConsistencyError):
            write_clusters_json(tmp_path / "clusters.json", model, ["b0"])
