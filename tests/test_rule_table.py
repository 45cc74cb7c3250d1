"""Differential tests of the columnar rule stage against an object-based
reference: a test-local copy of the per-rule `Rule` implementation
of generate -> eliminate -> render that the rule table replaced. Rule order,
the essential set, every witness and every rendered string must agree."""

from itertools import combinations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from conftest import (
    render_all,
    row_lists,
    row_table,
    rule_lists,
    rule_split,
    rule_table,
    simple_codebooks,
)
from triage_miner.ingest import Attribute, decode
from triage_miner.mine import Projection, Subset, mine_frequent_itemsets
from triage_miner.oracle import Item, Rule, rule_objects
from triage_miner.report import RENDER_ORDER
from triage_miner.rules import eliminate_redundant, generate_class_rules

_PREFIX = {
    Attribute.SEVERITY: "Severity ",
    Attribute.PRIORITY: "Priority ",
    Attribute.OPERATING_SYSTEM: "Os ",
    Attribute.COMPONENT: "Component",
}


def reference_generate(
    table: dict[Subset, Projection], min_confidence: float, allowed
) -> list[Rule]:
    """One Rule per passing projection group, sorted by (size, exact
    confidence key desc, support desc, antecedent items, consequent code)."""
    allowed = np.array(sorted(set(allowed)), dtype=np.int64)
    rules = []
    for subset, (values, support, antecedent_counts) in table.items():
        if len(subset) < 2 or subset[-1] != Attribute.ASSIGNEE:
            continue
        passing = np.isin(values[:, -1], allowed) & (support / antecedent_counts >= min_confidence)
        rows, counts = values[passing].tolist(), support[passing].tolist()
        rules += [
            Rule(frozenset(map(Item, subset, row[:-1])), Item(Attribute.ASSIGNEE, row[-1]), s, a)
            for row, s, a in zip(rows, counts, antecedent_counts[passing].tolist())
        ]
    shift = 2 * max((rule.antecedent_count for rule in rules), default=0).bit_length()
    rules.sort(
        key=lambda rule: (
            len(rule.antecedent),
            -((rule.support_count << shift) // rule.antecedent_count),
            -rule.support_count,
            tuple(sorted(rule.antecedent)),
            rule.consequent.code,
        )
    )
    return rules


def reference_eliminate(rules: list[Rule]) -> tuple[list[Rule], list[tuple[Rule, Rule]]]:
    """Scan by antecedent size; each rule's witness is the most confident
    essential subset rule of the smallest size that has one, the first in
    ``combinations`` order among equals."""
    essential, redundant, by_key = [], [], {}
    for rule in sorted(rules, key=lambda rule: len(rule.antecedent)):
        items, witness = tuple(sorted(rule.antecedent)), None
        for size in range(1, len(items)):
            for subset in combinations(items, size):
                candidate = by_key.get((subset, rule.consequent))
                if (
                    candidate is not None
                    and candidate.support_count * rule.antecedent_count
                    >= rule.support_count * candidate.antecedent_count
                    and (
                        witness is None
                        or candidate.support_count * witness.antecedent_count
                        > witness.support_count * candidate.antecedent_count
                    )
                ):
                    witness = candidate
            if witness is not None:
                break
        if witness is None:
            essential.append(rule)
            by_key[(items, rule.consequent)] = rule
        else:
            redundant.append((rule, witness))
    return essential, redundant


def reference_render(rule: Rule, codebooks) -> tuple[str, str, str, int, str]:
    """(text, antecedent, assignee, support, confidence repr) of one rule."""
    by_attribute = {item.attribute: item for item in rule.antecedent}
    antecedent = " ∧ ".join(
        f"{_PREFIX[attribute]}{{{decode(codebooks[attribute], [by_attribute[attribute].code])[0]}}}"
        for attribute in RENDER_ORDER
        if attribute in by_attribute
    )
    [assignee] = decode(codebooks[Attribute.ASSIGNEE], [rule.consequent.code])
    s, a = rule.support_count, rule.antecedent_count
    hundredths = (20000 * s + a) // (2 * a)
    whole, cents = divmod(hundredths, 100)
    percent = str(whole) if cents == 0 else f"{whole}.{cents:02d}"
    text = f"{antecedent} ⇒ Assignee {{{assignee}}} @ ({s},{percent}%)"
    return text, antecedent, assignee, s, repr(s / a)


def assert_matches_reference(rules: list[Rule], partition, codebooks, ordered=True) -> None:
    """The partition's split, witnesses and rendered columns are the
    reference's; in the same order unless ``ordered`` is false (the
    reference lists rules stably sorted by size, the table in row order)."""
    essential, redundant = reference_eliminate(rules)
    split = rule_split(partition)
    rendered = render_all(partition, codebooks)
    # no label of ``codebooks`` needs quoting, so rules.csv's fields are the
    # reference's antecedent and assignee themselves
    columns = list(zip(*rendered))

    def row(rule, witness=""):
        text, antecedent, assignee, support, confidence = reference_render(rule, codebooks)
        return text, support, confidence, witness, antecedent, assignee

    expected = [row(rule) for rule in essential]
    expected += [row(rule, reference_render(witness, codebooks)[0]) for rule, witness in redundant]
    if ordered:
        assert list(split.essential) == essential
        assert list(split.redundant) == redundant
        assert columns == expected
    else:
        assert set(split.essential) == set(essential)
        assert set(split.redundant) == set(redundant)
        assert sorted(columns) == sorted(expected)


@given(
    rows=row_lists(max_transactions=60, max_codes=4),
    min_support_count=st.integers(1, 3),
    min_confidence=st.sampled_from((0.0, 0.05, 0.3, 0.5, 1.0)),
    allowed=st.sets(st.integers(1, 4), min_size=1),
)
@settings(max_examples=150, deadline=None)
def test_rule_stage_matches_the_object_reference(rows, min_support_count, min_confidence, allowed):
    table = mine_frequent_itemsets(*row_table(rows), min_support_count)
    rules = generate_class_rules(table, min_confidence, allowed)
    expected = reference_generate(table, min_confidence, allowed)
    assert rule_objects(rules) == expected
    assert_matches_reference(expected, eliminate_redundant(rules), simple_codebooks())


@given(rule_lists(max_rules=40))
@settings(max_examples=150, deadline=None)
def test_any_row_order_matches_the_object_reference(rules):
    # rules in arbitrary order, with confidences that tie often
    partition = eliminate_redundant(rule_table(rules))
    assert_matches_reference(rules, partition, simple_codebooks(), ordered=False)
