import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import render_text, rule_lists, rule_table, simple_codebooks, split_rules
from triage_miner.errors import UnknownCategoryError
from triage_miner.ingest import Attribute, Codebook
from triage_miner.mine import Item, Itemset
from triage_miner.oracle import Rule
from triage_miner.report import (
    build_cluster_report,
    confidence_percents,
    length_histogram,
    render_antecedents,
    render_partition,
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
    """confidence_percents of one pair (arrays of Python ints above int64)."""
    [percent] = confidence_percents(np.array([support]), np.array([antecedent_count]))
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
        assert render_antecedents(rule_table([rule]), books) == ["Priority {P1} ∧ Os {All}"]

    @given(rule_lists(max_rules=25))
    @settings(max_examples=40, deadline=None)
    def test_injective_on_distinct_rules(self, rules):
        books = simple_codebooks()
        rendered = render_partition(eliminate_redundant(rule_table(rules)), books).text
        assert len(set(rendered)) == len(rules)


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


class TestBuildClusterReport:
    def test_empty_partition(self):
        books = simple_codebooks()
        partition = eliminate_redundant(rule_table([]))
        report = build_cluster_report(2, 9, partition, books, [1])
        assert report.cluster_index == 2
        assert report.size == 9
        assert (report.essential_count, report.redundant_count) == (0, 0)
        assert report.length_histogram == {1: 0, 2: 0, 3: 0, 4: 0}
        assert report.rendered.text == []
        assert report.rendered.witness == []
        assert report.top_assignees == ("Dev 1",)

    def test_counts_and_histogram_are_consistent(self):
        books = simple_codebooks()
        rules = [
            _rule([Item(Attribute.SEVERITY, 1)], 1, 8, 10),
            _rule([Item(Attribute.PRIORITY, 1)], 1, 6, 10),
            _rule([Item(Attribute.COMPONENT, 1)], 2, 5, 10),
            _rule([Item(Attribute.SEVERITY, 1), Item(Attribute.PRIORITY, 1)], 1, 7, 10),
            _rule([Item(Attribute.SEVERITY, 1), Item(Attribute.COMPONENT, 1)], 2, 3, 10),
        ]
        partition = eliminate_redundant(rule_table(rules))
        report = build_cluster_report(0, 10, partition, books, [1, 2])
        assert report.essential_count + report.redundant_count == 5
        assert sum(report.length_histogram.values()) == 5
        assert len(report.rendered.text) == len(report.rendered.witness) == 5
        assert report.rendered.text[: report.essential_count] == [
            render_text(r, books) for r in split_rules(rules).essential
        ]
