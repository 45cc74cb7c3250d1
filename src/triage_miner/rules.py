"""Class association rules as one columnar table per cluster: assignee
consequents, confidence thresholds, ordering and elimination of redundant
rules, with no per-rule objects.

A rule is redundant when some essential rule with the same consequent, a
strictly smaller antecedent and confidence at least as high already carries
its meaning. One ranking of each rule's row and of its probes, the row cut
down to each smaller antecedent subset, finds every candidate. Confidences
are compared exactly and in one place: each rule table keys its distinct
(support, antecedent count) pairs by ``(support << shift) //
antecedent_count`` in Python ints, with ``2**shift >= M**2`` for M the
largest antecedent count. Distinct ratios with denominators up to M differ
by at least 1/M**2, so their keys differ and order as the ratios do, and
equal ratios get equal keys. Rules sort and are compared on the dense rank
of their pair's key, for counts of any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import DuplicateRuleError, ParameterError
from .ingest import Attribute
from .mine import Projection, Subset, distinct_rows

ANTECEDENT_ATTRIBUTES = tuple(Attribute)[:-1]  # the assignee is the consequent

# The non-empty antecedent attribute subsets as bit masks (bit a for
# attribute a), by size and then in ``combinations`` order, which is not mask
# order: {Severity, OperatingSystem} (9) comes before {Priority, Component}
# (6). Of two equally confident witnesses of one size, the earlier one wins.
SUBSETS = np.array([1, 2, 4, 8, 3, 5, 9, 6, 10, 12, 7, 11, 13, 14, 15])


@dataclass(frozen=True, eq=False)
class RuleTable:
    """Rules ``antecedent => assignee``, one row each: ``codes[i, a]`` is the
    code of Attribute ``a`` in rule i's antecedent, or -1 where it lacks
    ``a``. ``support`` counts the records holding antecedent and consequent,
    ``antecedent_count`` those holding the antecedent, so confidence is the
    exact ratio of the two."""

    codes: np.ndarray  # (m, 4), one column per antecedent attribute
    consequent: np.ndarray  # assignee codes
    support: np.ndarray
    antecedent_count: np.ndarray

    def __len__(self) -> int:
        return len(self.support)

    @cached_property
    def present(self) -> np.ndarray:
        return self.codes >= 0

    @cached_property
    def size(self) -> np.ndarray:
        return self.present.sum(axis=1)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct (support, antecedent count) pairs, one row each, and
        each rule's row among them."""
        return distinct_rows(np.column_stack([self.support, self.antecedent_count]))[:2]

    @cached_property
    def confidence_rank(self) -> np.ndarray:
        """Each rule's dense confidence rank, from the exact key of the module
        docstring: equal ratios share a rank, a higher ratio has a higher one."""
        pairs, pair = self.pairs
        support, antecedent_count = pairs.T.tolist()
        shift = 2 * max(antecedent_count, default=0).bit_length()
        keys = [(s << shift) // a for s, a in zip(support, antecedent_count)]
        rank_of = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        return np.array([rank_of[key] for key in keys], dtype=np.int64)[pair]


@dataclass(frozen=True, eq=False)
class RulePartition:
    """A rule table split into essential and redundant rules: ``witness[i]``
    is the row of the essential rule that subsumes rule i, or -1 when rule i
    is essential."""

    rules: RuleTable
    witness: np.ndarray

    @property
    def essential(self) -> np.ndarray:
        return np.flatnonzero(self.witness < 0)

    @property
    def redundant(self) -> np.ndarray:
        return np.flatnonzero(self.witness >= 0)


def top_assignees(assignee_codes: np.ndarray, counts: np.ndarray, n: int) -> list[int]:
    """The n assignee codes with the most bugs (``counts[i]`` at row i), ties to the lower code."""
    if len(assignee_codes) == 0:
        raise ParameterError("top_assignees requires at least one record")
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    codes, rank = np.unique(assignee_codes, return_inverse=True)
    return codes[np.argsort(-np.bincount(rank, counts), kind="stable")][:n].tolist()


def generate_class_rules(
    projections: Mapping[Subset, Projection],
    min_confidence: float,
    allowed_consequents: Iterable[int],
) -> RuleTable:
    """All rules A => assignee with A non-empty, A u {assignee} frequent and
    confidence >= min_confidence, for the allowed assignee codes only.

    Rows are read off the mined projections: in each subset holding the
    assignee (its last attribute) and another attribute, a group with an
    allowed assignee is a candidate whose parent count is its antecedent
    count. Rows are ordered by antecedent size asc, confidence desc (the
    table's confidence rank), support desc, canonical antecedent items, then
    consequent code.
    """
    allowed = np.array(sorted(set(allowed_consequents)), dtype=np.int64)
    if not len(allowed):
        raise ParameterError("allowed_consequents must be non-empty")

    # an empty part first, so that a table without rules still concatenates
    parts = [(np.empty((0, len(ANTECEDENT_ATTRIBUTES)), np.int64), *[np.empty(0, np.int64)] * 3)]
    for subset, (values, support, antecedent_count) in projections.items():
        if len(subset) < 2 or subset[-1] != Attribute.ASSIGNEE:
            continue
        # float division of counts below 2**53 is exact-then-rounded, as in Python
        passing = np.isin(values[:, -1], allowed) & (support / antecedent_count >= min_confidence)
        codes = np.full((np.count_nonzero(passing), len(ANTECEDENT_ATTRIBUTES)), -1)
        codes[:, list(subset[:-1])] = values[passing, :-1]
        parts.append((codes, values[passing, -1], support[passing], antecedent_count[passing]))
    columns = [np.concatenate(column) for column in zip(*parts)]
    rules = RuleTable(*columns)
    # within one size, an absent attribute sorts after every code of it, as
    # the canonical item sequences compare
    items = np.where(rules.present, rules.codes, np.iinfo(np.int64).max)
    order = np.lexsort(
        (rules.consequent, *items.T[::-1], -rules.support, -rules.confidence_rank, rules.size)
    )
    return RuleTable(*(column[order] for column in columns))


def eliminate_redundant(rules: RuleTable) -> RulePartition:
    """Split a rule table into essential and redundant rules, keeping its row
    order in both.

    Each rule is probed by every proper non-empty subset T of its antecedent:
    its row again with the codes outside T set to -1. One ranking of the
    rules' rows and the probes matches each probe to the rule with exactly
    that antecedent and consequent, if there is one, and finds duplicate
    rules. A match no less confident than the rule subsumes it if the match
    is essential, so rules are decided by antecedent size, smallest first. A
    rule's witness is its essential match of the smallest size, then the
    highest confidence, then the first subset in ``SUBSETS`` order.
    """
    n, width = len(rules), len(ANTECEDENT_ATTRIBUTES)
    antecedent = rules.present @ (1 << np.arange(width))
    proper = (antecedent[:, None] & SUBSETS == SUBSETS) & (antecedent[:, None] != SUBSETS)
    rule, position = np.nonzero(proper)
    # the rules' own rows, then the probes, rule by rule
    table = np.column_stack([rules.codes, rules.consequent])[np.concatenate([np.arange(n), rule])]
    outside = (SUBSETS[:, None] >> np.arange(width) & 1) == 0
    table[n:, :width][outside[position]] = -1
    _, rank, counts = distinct_rows(table)
    del table

    _, first = np.unique(rank[:n], return_index=True)
    if len(first) < n:
        raise DuplicateRuleError(f"duplicate rule at row {np.setdiff1d(np.arange(n), first)[0]}")
    row_of = np.full(len(counts), -1)
    row_of[rank[:n]] = np.arange(n)
    match = row_of[rank[n:]]

    confidence = rules.confidence_rank
    kept = (match >= 0) & (confidence[match] >= confidence[rule])
    rule, match, position = rule[kept], match[kept], position[kept]
    order = np.lexsort((position, -confidence[match], rules.size[match], rule))
    rule, match = rule[order], match[order]
    witness = np.full(n, -1)
    for size in range(2, width + 1):
        probing = (rules.size[rule] == size) & (witness[match] < 0)
        _, first = np.unique(rule[probing], return_index=True)
        witness[rule[probing][first]] = match[probing][first]
    return RulePartition(rules=rules, witness=witness)
