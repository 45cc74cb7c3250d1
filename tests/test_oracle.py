"""The oracles against their plainest forms: one tally per row, and one
all-pairs fixpoint over every rule. Kept here as references only."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import row_lists, rule_lists
from triage_miner.ingest import Attribute
from triage_miner.oracle import (
    Item,
    _naive_subsumes,
    enumerate_frequent_itemsets,
    essential_rules_naive,
)


def reference_frequent_itemsets(rows, min_support_count):
    counts = Counter()
    for row in rows:
        items = [Item(attribute, code) for attribute, code in zip(Attribute, row)]
        for size in range(1, len(items) + 1):
            for combo in combinations(items, size):
                counts[combo] += 1
    return {itemset: count for itemset, count in counts.items() if count >= min_support_count}


def reference_essential_rules(rules):
    cache = {}

    def essential(rule):
        if rule.key not in cache:
            cache[rule.key] = not any(
                _naive_subsumes(other, rule) and essential(other)
                for other in rules
                if other.key != rule.key
            )
        return cache[rule.key]

    return {rule.key for rule in rules if essential(rule)}


@settings(deadline=None)
@given(row_lists(max_transactions=60, max_codes=3), st.integers(1, 6))
def test_weighted_tally_matches_one_tally_per_row(rows, min_support_count):
    assert enumerate_frequent_itemsets(rows, min_support_count) == reference_frequent_itemsets(
        rows, min_support_count
    )


@settings(deadline=None)
@given(rule_lists(max_rules=40, max_count=12))
def test_per_consequent_fixpoint_matches_the_all_rules_fixpoint(rules):
    assert essential_rules_naive(rules) == reference_essential_rules(rules)


@settings(deadline=None)
@given(rule_lists(max_rules=40, max_count=12))
def test_no_rule_subsumes_itself(rules):
    """Why the fixpoint needs no self-filter: containment is strict."""
    assert not any(_naive_subsumes(rule, rule) for rule in rules)


def test_duplicate_rows_weigh_their_count():
    rows = [(1, 1, 1, 1, 1)] * 3 + [(1, 2, 1, 1, 2)]
    table = enumerate_frequent_itemsets(rows, 3)
    assert table[(Item(Attribute.SEVERITY, 1),)] == 4
    assert table[tuple(Item(attribute, 1) for attribute in Attribute)] == 3
    assert (Item(Attribute.ASSIGNEE, 2),) not in table
