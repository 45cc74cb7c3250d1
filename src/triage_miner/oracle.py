"""Brute-force reference implementations used to cross-check the fast paths.

These deliberately avoid the algorithms they validate: frequent itemsets are
tallied by enumerating every subset of each distinct report's five items,
and redundancy is decided by a declarative recursion over the pairs of rules
of one consequent, the first with the smaller antecedent, not by ranking a
table of each rule's sub-antecedent probes. Their cost grows with the
distinct rows (31 subsets each) and with the square of the rules per
consequent, not with the rows or the square of all rules, which lets
``verify`` check every cluster by default.
Items and Rules live here, built from a run's arrays only for them. An
itemset is a plain tuple of Items in attribute order, as every caller builds
it; a rule's antecedent is a frozenset, so containment is a set comparison.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from .ingest import Attribute
from .mine import Projection, Subset
from .rules import RuleTable


class Item(NamedTuple):
    """One (attribute, code) pair; sorts in canonical attribute-then-code order."""

    attribute: Attribute
    code: int


Itemset = tuple[Item, ...]  # in attribute order, at most one Item per attribute


@dataclass(frozen=True)
class Rule:
    """antecedent => consequent with exact support/antecedent counts.

    ``support_count`` counts transactions holding antecedent plus consequent;
    ``antecedent_count`` counts those holding the antecedent alone, so
    confidence is the exact ratio of the two.
    """

    antecedent: frozenset[Item]
    consequent: Item
    support_count: int
    antecedent_count: int

    @property
    def confidence_fraction(self) -> Fraction:
        return Fraction(self.support_count, self.antecedent_count)

    @property
    def key(self) -> tuple:
        """Identity: antecedent plus consequent."""
        return (self.antecedent, self.consequent)


def rule_objects(table: RuleTable) -> list[Rule]:
    """The Rule object of every row of a rule table, in row order."""
    columns = (table.codes, table.consequent, table.support, table.antecedent_count)
    return [
        Rule(
            frozenset(Item(Attribute(a), code) for a, code in enumerate(codes) if code >= 0),
            Item(Attribute.ASSIGNEE, consequent),
            support,
            antecedent_count,
        )
        for codes, consequent, support, antecedent_count in zip(*(c.tolist() for c in columns))
    ]


def itemset_supports(projections: Mapping[Subset, Projection]) -> dict[Itemset, int]:
    """Itemset -> support count of every group of a mined projection table."""
    return {
        tuple(map(Item, subset, row)): count
        for subset, (values, counts, _) in projections.items()
        for row, count in zip(values.tolist(), counts.tolist())
    }


def enumerate_frequent_itemsets(
    rows: Iterable[Sequence[int]], min_support_count: int
) -> dict[Itemset, int]:
    """Exact frequent-itemset counts by tallying every subset of every
    distinct row of five codes, one per Attribute, weighted by how often the
    row occurs in the stream ``rows`` (every positive support shows up so)."""
    counts: Counter[Itemset] = Counter()
    for row, weight in Counter(map(tuple, rows)).items():
        items = [Item(attribute, code) for attribute, code in zip(Attribute, row)]
        for size in range(1, len(items) + 1):
            for combo in combinations(items, size):
                counts[combo] += weight
    return {
        itemset: count for itemset, count in counts.items() if count >= min_support_count
    }


def _naive_subsumes(witness: Rule, rule: Rule) -> bool:
    # deliberately restated, not shared with the fast path: set containment
    # plus Fraction comparison instead of cross-multiplied counts
    return (
        witness.consequent == rule.consequent
        and witness.antecedent < rule.antecedent
        and witness.confidence_fraction >= rule.confidence_fraction
    )


def essential_rules_naive(rules: Sequence[Rule]) -> set[tuple]:
    """Keys of the essential rules as the fixpoint of subsumption. A rule is
    tested only against the rules of its own consequent with a smaller
    antecedent, indexed by (consequent, antecedent size): strict containment
    rejects every other pair anyway.

    A rule is essential iff no essential rule subsumes it; the recursion is
    well-founded, and no rule is its own witness, because subsumption
    strictly shrinks the antecedent.
    """
    by_shape: dict[tuple[Item, int], list[Rule]] = {}
    for rule in rules:
        by_shape.setdefault((rule.consequent, len(rule.antecedent)), []).append(rule)
    cache: dict[tuple, bool] = {}

    def essential(rule: Rule) -> bool:
        if rule.key not in cache:
            cache[rule.key] = not any(
                _naive_subsumes(other, rule) and essential(other)
                for size in range(len(rule.antecedent))
                for other in by_shape.get((rule.consequent, size), ())
            )
        return cache[rule.key]

    return {rule.key for rule in rules if essential(rule)}


def witness_is_valid(rule: Rule, witness: Rule, essential_keys: set[tuple]) -> bool:
    """Re-check a recorded witness from first principles: essential, same
    consequent, strict-subset antecedent, confidence no lower (exact)."""
    return (
        witness.key in essential_keys
        and witness.consequent == rule.consequent
        and len(witness.antecedent) < len(rule.antecedent)
        and witness.antecedent < rule.antecedent
        and witness.confidence_fraction >= rule.confidence_fraction
    )
