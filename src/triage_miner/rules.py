"""Class association rules: assignee consequents, confidence thresholds, and
elimination of redundant rules.

A rule is redundant when some essential rule with the same consequent, a
strictly smaller antecedent and confidence at least as high already carries
its meaning. Confidences are compared exactly, in integers: the witness probe
cross-multiplies counts, and rules sort by ``(support_count << shift) //
antecedent_count`` with ``2**shift >= M**2``, M the largest antecedent count.
Distinct ratios with denominators up to M differ by at least 1/M**2, so their
keys differ and order as the ratios do; equal ratios give equal keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import DuplicateRuleError, ParameterError
from .ingest import Attribute
from .mine import FrequentItemsetTable, Item, Itemset


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
    def confidence(self) -> float:
        return self.support_count / self.antecedent_count

    @property
    def confidence_fraction(self) -> Fraction:
        return Fraction(self.support_count, self.antecedent_count)

    @property
    def key(self) -> tuple:
        """Identity: antecedent plus consequent."""
        return (self.antecedent.items, self.consequent)


@dataclass(frozen=True)
class RulePartition:
    """Disjoint split of a rule set into essential rules and redundant rules,
    each redundant rule paired with the essential witness that subsumes it."""

    essential: tuple[Rule, ...]
    redundant: tuple[tuple[Rule, Rule], ...]

    @property
    def rule_count(self) -> int:
        return len(self.essential) + len(self.redundant)

    def all_rules(self) -> list[Rule]:
        return list(self.essential) + [rule for rule, _ in self.redundant]


def top_assignees(assignee_codes: np.ndarray, n: int) -> list[int]:
    """The n assignee codes with the most bugs, count desc then code asc."""
    if len(assignee_codes) == 0:
        raise ParameterError("top_assignees requires at least one record")
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    codes, counts = np.unique(assignee_codes, return_counts=True)
    return codes[np.argsort(-counts, kind="stable")][:n].tolist()


def generate_class_rules(
    table: FrequentItemsetTable,
    min_confidence: float,
    allowed_consequents: Iterable[int],
) -> list[Rule]:
    """All rules A => assignee with A non-empty, A u {assignee} frequent and
    confidence >= min_confidence, for the allowed assignee codes only.

    Rules are read off the table's projections: in each subset holding the
    assignee (its last attribute) and another attribute, a group with an
    allowed assignee is a candidate whose parent count is its antecedent
    count. Rule objects are built only for candidates that pass the threshold.
    """
    allowed = np.array(sorted(set(allowed_consequents)), dtype=np.int64)
    if not len(allowed):
        raise ParameterError("allowed_consequents must be non-empty")

    rules = []
    for subset, projection in table.projections.items():
        if len(subset) < 2 or subset[-1] != Attribute.ASSIGNEE:
            continue
        values, support, antecedent_counts = projection
        # float division of counts below 2**53 is exact-then-rounded, as in Python
        passing = np.isin(values[:, -1], allowed) & (support / antecedent_counts >= min_confidence)
        rules += [
            Rule(
                antecedent=Itemset(map(Item, subset, row[:-1])),
                consequent=Item(Attribute.ASSIGNEE, row[-1]),
                support_count=support_count,
                antecedent_count=antecedent_count,
            )
            for row, support_count, antecedent_count in zip(
                *(column[passing].tolist() for column in projection)
            )
        ]
    # size asc, confidence desc (the exact integer key of the module
    # docstring), support desc, canonical antecedent, consequent code
    shift = 2 * max((rule.antecedent_count for rule in rules), default=0).bit_length()
    rules.sort(
        key=lambda rule: (
            len(rule.antecedent),
            -((rule.support_count << shift) // rule.antecedent_count),
            -rule.support_count,
            rule.antecedent.items,
            rule.consequent.code,
        )
    )
    return rules


def eliminate_redundant(rules: Sequence[Rule]) -> RulePartition:
    """Partition rules into essential and redundant sets, keeping their order.

    Rules are scanned by ascending antecedent size (a stable sort), so every
    witness is known to be essential before a larger rule is tested against
    it. The probe tries the antecedent's subsets smallest size first and stops
    at the first size with an essential rule of the same consequent and
    confidence no lower; the witness is that size's most confident such rule,
    the first in canonical (``combinations``) order among equals.
    """
    seen: set[tuple] = set()
    for rule in rules:
        if rule.key in seen:
            raise DuplicateRuleError(f"duplicate rule: {rule.antecedent} => {rule.consequent}")
        seen.add(rule.key)

    essential: list[Rule] = []
    redundant: list[tuple[Rule, Rule]] = []
    # essential rules indexed by (antecedent items, consequent) for subset probes
    by_key: dict[tuple, Rule] = {}
    for rule in sorted(rules, key=lambda rule: len(rule.antecedent)):
        items = rule.antecedent.items
        support, antecedent_count = rule.support_count, rule.antecedent_count
        witness = None
        for size in range(1, len(items)):
            for subset in combinations(items, size):
                candidate = by_key.get((subset, rule.consequent))
                # cross-multiplied: at least the rule's confidence, above the best so far
                if (
                    candidate is not None
                    and candidate.support_count * antecedent_count
                    >= support * candidate.antecedent_count
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

    return RulePartition(essential=tuple(essential), redundant=tuple(redundant))
