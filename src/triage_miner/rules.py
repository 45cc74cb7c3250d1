"""Class association rules as one columnar table per cluster: assignee
consequents, confidence thresholds, ordering and elimination of redundant
rules, with no per-rule objects.

A rule is redundant when some essential rule with the same consequent, a
strictly smaller antecedent and confidence at least as high already carries
its meaning. Confidences are compared exactly and in one place: each rule
table keys its distinct (support, antecedent count) pairs by ``(support <<
shift) // antecedent_count`` in Python ints, with ``2**shift >= M**2`` for M
the largest antecedent count. Distinct ratios with denominators up to M
differ by at least 1/M**2, so their keys differ and order as the ratios do,
and equal ratios get equal keys. Rules sort and are compared on the dense
rank of their pair's key, for counts of any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .errors import DuplicateRuleError, ParameterError
from .ingest import Attribute
from .mine import Projection, Subset, distinct_rows, group_keys

ANTECEDENT_ATTRIBUTES = tuple(Attribute)[:-1]  # the assignee is the consequent


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

    def take(self, rows: np.ndarray) -> RuleTable:
        """The rules at ``rows``, in that order, keeping this table's pairs and
        ranks (a cached_property's value lives in the instance dict)."""
        columns = (self.codes, self.consequent, self.support, self.antecedent_count)
        taken = RuleTable(*(column[rows] for column in columns))
        (pairs, pair), rank = self.pairs, self.confidence_rank
        vars(taken).update(pairs=(pairs, pair[rows]), confidence_rank=rank[rows])
        return taken


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

    @property
    def rule_count(self) -> int:
        return len(self.rules)


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
    rules = RuleTable(*(np.concatenate(column) for column in zip(*parts)))
    # within one size, an absent attribute sorts after every code of it, as
    # the canonical item sequences compare
    items = np.where(rules.present, rules.codes, np.iinfo(np.int64).max)
    order = np.lexsort(
        (rules.consequent, *items.T[::-1], -rules.support, -rules.confidence_rank, rules.size)
    )
    return rules.take(order)


def eliminate_redundant(rules: RuleTable) -> RulePartition:
    """Split a rule table into essential and redundant rules, keeping its row
    order in both.

    Rules are decided level by level over the antecedent size, so every
    witness is known to be essential before a larger rule is tested against
    it. For the rules over one attribute subset S, each proper subset T of S
    (smallest size first, ``combinations`` order within a size) looks up the
    essential rule over the same T codes and consequent for all of them at
    once. A rule's witness is the most confident such rule of the first size
    that has one with confidence no lower, the first in that order among
    equals.
    """
    # every column's codes (the consequent last) as dense ranks, so the rows
    # of any projection rank on keys below n² for any codebook size
    ranked = [np.unique(c, return_inverse=True) for c in (*rules.codes.T, rules.consequent)]
    radices, code_ranks = [len(distinct) for distinct, _ in ranked], [r for _, r in ranked]

    def projection_ranks(rows: np.ndarray, attributes: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """Each row's rank among the distinct (codes on attributes, consequent)."""
        rank, groups = np.zeros(len(rows), dtype=np.int64), 1
        for column in (*attributes, -1):
            radix = radices[column]
            _, counts, rank = group_keys(rank * radix + code_ranks[column][rows], groups * radix)
            groups = len(counts)
        return rank, groups

    everything = np.arange(len(rules))
    rank, groups = projection_ranks(everything, tuple(range(len(ANTECEDENT_ATTRIBUTES))))
    if groups < len(rules):
        _, first = np.unique(rank, return_index=True)
        raise DuplicateRuleError(f"duplicate rule at row {np.setdiff1d(everything, first)[0]}")

    confidence = rules.confidence_rank
    witness = np.full(len(rules), -1)
    subset_of = rules.present @ (1 << np.arange(len(ANTECEDENT_ATTRIBUTES)))
    essential: dict[tuple[int, ...], np.ndarray] = {}  # attribute subset -> essential rows
    for mask in sorted(np.flatnonzero(np.bincount(subset_of)).tolist(), key=int.bit_count):
        attributes = tuple(a for a in range(len(ANTECEDENT_ATTRIBUTES)) if mask >> a & 1)
        rows = np.flatnonzero(subset_of == mask)
        for size in range(1, len(attributes)):
            best = np.full(len(rows), -1)
            for subset in combinations(attributes, size):
                candidates = essential.get(subset)
                if candidates is None:
                    continue  # no rule has this antecedent subset
                rank, groups = projection_ranks(np.concatenate([candidates, rows]), subset)
                row_of = np.full(groups, -1)
                row_of[rank[: len(candidates)]] = candidates
                found = row_of[rank[len(candidates) :]]
                probed = found >= 0
                rule, candidate, current = rows[probed], found[probed], best[probed]
                # at least the rule's confidence, and above the best so far
                better = (confidence[candidate] >= confidence[rule]) & (
                    (current < 0) | (confidence[candidate] > confidence[current])
                )
                best[probed] = np.where(better, candidate, current)
            subsumed = best >= 0
            witness[rows[subsumed]] = best[subsumed]
            rows = rows[~subsumed]
        essential[attributes] = rows
    return RulePartition(rules=rules, witness=witness)
