"""Class association rules as one columnar table per cluster: assignee
consequents, confidence thresholds, ordering and elimination of redundant
rules, with no per-rule objects.

A rule is redundant when some essential rule with the same consequent, a
strictly smaller antecedent and confidence at least as high already carries
its meaning. Confidences are compared exactly, in integers: the witness probe
cross-multiplies counts, and rules sort by ``(support_count << shift) //
antecedent_count`` with ``2**shift >= M**2``, M the largest antecedent count.
Distinct ratios with denominators up to M differ by at least 1/M**2, so their
keys differ and order as the ratios do; equal ratios give equal keys. Both
run in int64 while they cannot overflow (the key while M < 2**21, products
while M < 2**31) and on Python ints above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import DuplicateRuleError, ParameterError
from .ingest import Attribute
from .mine import FrequentItemsetTable, group_keys

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


def exact_counts(
    support: np.ndarray, antecedent_count: np.ndarray, limit: int
) -> tuple[np.ndarray, np.ndarray]:
    """The two count columns as they are while every count is below
    ``limit``, else as arrays of Python ints, so that the caller's shifts and
    products of counts below ``limit`` fit int64 and all others are exact."""
    if max(support.max(initial=0), antecedent_count.max(initial=0)) < limit:
        return support, antecedent_count
    return support.astype(object), antecedent_count.astype(object)


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
) -> RuleTable:
    """All rules A => assignee with A non-empty, A u {assignee} frequent and
    confidence >= min_confidence, for the allowed assignee codes only.

    Rows are read off the table's projections: in each subset holding the
    assignee (its last attribute) and another attribute, a group with an
    allowed assignee is a candidate whose parent count is its antecedent
    count. Rows are ordered by antecedent size asc, confidence desc (the
    exact integer key of the module docstring), support desc, canonical
    antecedent items, then consequent code.
    """
    allowed = np.array(sorted(set(allowed_consequents)), dtype=np.int64)
    if not len(allowed):
        raise ParameterError("allowed_consequents must be non-empty")

    # an empty part first, so that a table without rules still concatenates
    parts = [(np.empty((0, len(ANTECEDENT_ATTRIBUTES)), np.int64), *[np.empty(0, np.int64)] * 3)]
    for subset, (values, support, antecedent_count) in table.projections.items():
        if len(subset) < 2 or subset[-1] != Attribute.ASSIGNEE:
            continue
        # float division of counts below 2**53 is exact-then-rounded, as in Python
        passing = np.isin(values[:, -1], allowed) & (support / antecedent_count >= min_confidence)
        codes = np.full((np.count_nonzero(passing), len(ANTECEDENT_ATTRIBUTES)), -1)
        codes[:, list(subset[:-1])] = values[passing, :-1]
        parts.append((codes, values[passing, -1], support[passing], antecedent_count[passing]))
    rules = RuleTable(*(np.concatenate(column) for column in zip(*parts)))

    support, antecedent_count = exact_counts(rules.support, rules.antecedent_count, 2**21)
    shift = 2 * int(antecedent_count.max(initial=0)).bit_length()
    confidence = (support << shift) // antecedent_count
    if confidence.dtype == object:  # Python ints: sort by their dense rank
        confidence = np.unique(confidence, return_inverse=True)[1]
    # within one size, an absent attribute sorts after every code of it, as
    # the canonical item sequences compare
    items = np.where(rules.present, rules.codes, np.iinfo(np.int64).max)
    order = np.lexsort(
        (rules.consequent, *items.T[::-1], -rules.support, -confidence, rules.size)
    )
    return RuleTable(
        rules.codes[order],
        rules.consequent[order],
        rules.support[order],
        rules.antecedent_count[order],
    )


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

    support, antecedent_count = exact_counts(rules.support, rules.antecedent_count, 2**31)

    def compare(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Cross-multiplied: positive, zero or negative as confidence(a) is
        above, equal to or below confidence(b)."""
        return support[a] * antecedent_count[b] - support[b] * antecedent_count[a]

    witness = np.full(len(rules), -1)
    subset_of = rules.present @ (1 << np.arange(len(ANTECEDENT_ATTRIBUTES)))
    essential: dict[tuple[int, ...], np.ndarray] = {}  # attribute subset -> essential rows
    for mask in sorted(np.unique(subset_of).tolist(), key=int.bit_count):
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
                better = (compare(candidate, rule) >= 0) & (
                    (current < 0) | (compare(candidate, current) > 0)
                )
                best[probed] = np.where(better, candidate, current)
            subsumed = best >= 0
            witness[rows[subsumed]] = best[subsumed]
            rows = rows[~subsumed]
        essential[attributes] = rows
    return RulePartition(rules=rules, witness=witness)
