"""Brute-force reference implementations used to cross-check the fast paths.

These deliberately avoid the algorithms they validate: frequent itemsets are
tallied by enumerating every subset of every report's five items, and
redundancy is decided by a declarative recursion over all rules rather than
the level-wise sweep. Quadratic or exponential cost is fine at verification scale.
Items, Itemsets and Rules live here, built from a run's arrays only for them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .ingest import Attribute
from .mine import Projection, Subset
from .rules import RuleTable


class Item(NamedTuple):
    """One (attribute, code) pair; sorts in canonical attribute-then-code order."""

    attribute: Attribute
    code: int


@dataclass(frozen=True, init=False)
class Itemset:
    """An immutable set of Items with canonical ordering for hashing/equality."""

    items: tuple[Item, ...]

    def __init__(self, items: Iterable[Item] = ()):
        object.__setattr__(self, "items", tuple(sorted(set(items))))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)


@dataclass(frozen=True)
class Rule:
    """antecedent => consequent with exact support/antecedent counts.

    ``support_count`` counts transactions holding antecedent plus consequent;
    ``antecedent_count`` counts those holding the antecedent alone, so
    confidence is the exact ratio of the two.
    """

    antecedent: Itemset
    consequent: Item
    support_count: int
    antecedent_count: int

    @property
    def confidence_fraction(self) -> Fraction:
        return Fraction(self.support_count, self.antecedent_count)

    @property
    def key(self) -> tuple:
        """Identity: antecedent plus consequent."""
        return (self.antecedent.items, self.consequent)


def rule_objects(table: RuleTable) -> list[Rule]:
    """The Rule object of every row of a rule table, in row order."""
    columns = (table.codes, table.consequent, table.support, table.antecedent_count)
    return [
        Rule(
            Itemset(Item(Attribute(a), code) for a, code in enumerate(codes) if code >= 0),
            Item(Attribute.ASSIGNEE, consequent),
            support,
            antecedent_count,
        )
        for codes, consequent, support, antecedent_count in zip(*(c.tolist() for c in columns))
    ]


def itemset_supports(projections: Mapping[Subset, Projection]) -> dict[Itemset, int]:
    """Itemset -> support count of every group of a mined projection table."""
    return {
        Itemset(map(Item, subset, row)): count
        for subset, (values, counts, _) in projections.items()
        for row, count in zip(values.tolist(), counts.tolist())
    }


def enumerate_frequent_itemsets(
    rows: Sequence[Sequence[int]], min_support_count: int
) -> dict[Itemset, int]:
    """Exact frequent-itemset counts by tallying every subset of every row of
    five codes, one per Attribute (any itemset with positive support shows
    up this way)."""
    counts: Counter[Itemset] = Counter()
    for row in rows:
        items = [Item(attribute, code) for attribute, code in zip(Attribute, row)]
        for size in range(1, len(items) + 1):
            for combo in combinations(items, size):
                counts[Itemset(combo)] += 1
    return {
        itemset: count for itemset, count in counts.items() if count >= min_support_count
    }


def _naive_subsumes(witness: Rule, rule: Rule) -> bool:
    # deliberately restated, not shared with the fast path: set containment
    # plus Fraction comparison instead of cross-multiplied counts
    return (
        witness.consequent == rule.consequent
        and set(witness.antecedent.items) < set(rule.antecedent.items)
        and witness.confidence_fraction >= rule.confidence_fraction
    )


def essential_rules_naive(rules: Sequence[Rule]) -> set[tuple]:
    """Keys of the essential rules as the fixpoint of all-pairs subsumption.

    A rule is essential iff no essential rule subsumes it; the recursion is
    well-founded because subsumption strictly shrinks the antecedent.
    """
    cache: dict[tuple, bool] = {}

    def essential(rule: Rule) -> bool:
        if rule.key not in cache:
            cache[rule.key] = not any(
                _naive_subsumes(other, rule) and essential(other)
                for other in rules
                if other.key != rule.key
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
        and set(witness.antecedent.items) < set(rule.antecedent.items)
        and witness.confidence_fraction >= rule.confidence_fraction
    )
