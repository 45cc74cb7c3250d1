"""Class association rules as one columnar table per cluster: assignee
consequents, confidence thresholds, ordering and elimination of redundant
rules, with no per-rule objects.

A rule is redundant when some essential rule with the same consequent, a
strictly smaller antecedent and confidence at least as high already carries
its meaning. Its candidates are its probes, its row cut down to each smaller
antecedent subset, made one subset at a time. Each rule's row is one int64
key in mixed radix: a digit per antecedent attribute, an absent attribute's
digit one past that attribute's largest code among the table's rules, and
the consequent. A probe's key is its rule's key plus what setting the
dropped digits to absent adds, so probes are matched by a search among the
sorted rule keys. Where the product of the radices, taken in Python ints,
would pass ``KEY_BOUND``, the rows are ranked by ``distinct_rows`` instead,
and each subset's probes with the rows they can match. Confidences are
compared exactly and in one place: each rule table ranks its distinct
(support, antecedent count) pairs with ``distinct_rows`` and keys them by
``(support << shift) // antecedent_count`` in Python ints, with
``2**shift >= M**2`` for M the largest antecedent count. Distinct ratios with
denominators up to M differ by at least 1/M**2, so their keys differ and
order as the ratios do, and equal ratios get equal keys. Rules sort and are
compared on the dense rank of their pair's key, for counts of any size.

A rule table is stored in int32 when all its codes and counts are below
2**31, in int64 otherwise; witnesses, pair indices and confidence ranks are
int32 and antecedent sizes int8. Packed keys, their digits and weights and
products of counts are computed in int64 or Python ints, never in int32.
"""

from __future__ import annotations

import math
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
# each subset's complement: OUTSIDE[s, a] is 1 where SUBSETS[s] lacks attribute a
OUTSIDE = 1 - (SUBSETS[:, None] >> np.arange(len(ANTECEDENT_ATTRIBUTES)) & 1)
# PROPER[mask, s] is True where SUBSETS[s] is a proper subset of the antecedent ``mask``
PROPER = (np.arange(16)[:, None] & SUBSETS == SUBSETS) & (np.arange(16)[:, None] != SUBSETS)
KEY_BOUND = 2**62  # packed row keys must stay below this; past it rows are ranked


@dataclass(frozen=True, eq=False)
class RuleTable:
    """Rules ``antecedent => assignee``, one row each: ``codes[i, a]`` is the
    code of Attribute ``a`` in rule i's antecedent, or -1 where it lacks
    ``a``. ``support`` counts the records holding antecedent and consequent,
    ``antecedent_count`` those holding the antecedent, so confidence is the
    exact ratio of the two. The four columns share one dtype, int32 or int64
    (see the module docstring)."""

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
        return self.present.sum(axis=1, dtype=np.int8)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct (support, antecedent count) pairs in lexicographic
        order, one row each, and each rule's row among them, ranked by
        ``distinct_rows`` for counts of any size."""
        pairs, pair = distinct_rows(np.column_stack([self.support, self.antecedent_count]))[:2]
        return pairs, pair.astype(np.int32)

    @cached_property
    def confidence_rank(self) -> np.ndarray:
        """Each rule's dense confidence rank, from the exact key of the module
        docstring: equal ratios share a rank, a higher ratio has a higher one."""
        pairs, pair = self.pairs
        support, antecedent_count = pairs.T.tolist()
        shift = 2 * max(antecedent_count, default=0).bit_length()
        keys = [(s << shift) // a for s, a in zip(support, antecedent_count)]
        rank_of = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        return np.array([rank_of[key] for key in keys], dtype=np.int32)[pair]


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
    largest = max(int(column.max(initial=0)) for part in parts for column in part)
    width = np.int32 if largest < 2**31 else np.int64  # codes and counts are >= -1
    columns = [np.concatenate(column, dtype=width) for column in zip(*parts)]
    rules = RuleTable(*columns)
    # within one size, an absent attribute sorts after every code of it, as
    # the canonical item sequences compare
    items = np.where(rules.present, rules.codes, np.iinfo(width).max)
    order = np.lexsort(
        (rules.consequent, *items.T[::-1], -rules.support, -rules.confidence_rank, rules.size)
    )
    ordered = RuleTable(*(column[order] for column in columns))
    # the ranks the sort used, cached where cached_property keeps them (a
    # frozen dataclass still has a writable instance dict)
    pairs, pair = rules.pairs
    vars(ordered).update(pairs=(pairs, pair[order]), confidence_rank=rules.confidence_rank[order])
    return ordered


def eliminate_redundant(rules: RuleTable) -> RulePartition:
    """Split a rule table into essential and redundant rules, keeping its row
    order in both.

    A rule's witness is the essential rule, no less confident, whose row is
    the rule's own cut to a proper subset T of its antecedent: of the
    smallest size, then the highest confidence, then the first T in
    ``SUBSETS`` order. Witnesses of size t are decided at the sizes below t,
    so sizes go smallest first, and each T, in ``SUBSETS`` order, probes only
    the still essential rules that contain it strictly. Rows and probes are
    keyed as the module docstring says; one stable argsort of the rules'
    keys finds duplicate rules, and one search among them matches a
    subset's sorted probes.
    """
    n, width = len(rules), len(ANTECEDENT_ATTRIBUTES)
    antecedent = rules.present @ (1 << np.arange(width))
    top = rules.codes.max(axis=0, initial=-1).astype(np.int64) + 1  # each attribute's absent digit
    radices = [*(top + 1).tolist(), int(rules.consequent.max(initial=0)) + 1]
    packed = math.prod(radices) <= KEY_BOUND
    if packed:
        weights = np.cumprod(radices[-1:] + radices[:-2])  # the consequent is the lowest digit
        digits = np.where(rules.present, rules.codes, top)
        keys = digits @ weights + rules.consequent
    else:
        table = np.column_stack([rules.codes, rules.consequent])
        keys = distinct_rows(table)[1]
    by_key = np.argsort(keys, kind="stable")  # equal keys in row order
    ranked = keys[by_key]
    repeated = ranked[1:] == ranked[:-1]
    if repeated.any():
        raise DuplicateRuleError(f"duplicate rule at row {by_key[1:][repeated].min()}")

    confidence = rules.confidence_rank
    witness = np.full(n, -1, dtype=np.int32)
    for size in range(1, width):
        best = np.full(n, -1, dtype=np.int32)  # each rule's witness of this size, if any
        for position in np.flatnonzero(OUTSIDE.sum(axis=1) == width - size):
            rule = np.flatnonzero(PROPER[antecedent, position] & (witness < 0))
            if packed:  # the rule's key plus what turning the digits outside T absent adds
                probes = keys[rule] + (top - digits[rule]) @ (weights * OUTSIDE[position])
                order = np.argsort(probes)
                rule, probes = rule[order], probes[order]
                at = np.minimum(np.searchsorted(ranked, probes), n - 1)
                match = np.where(ranked[at] == probes, by_key[at], -1)
            else:  # ranked with the rows of antecedent T, on T's columns and the consequent
                target = np.flatnonzero(antecedent == SUBSETS[position])
                columns = [*np.flatnonzero(OUTSIDE[position] == 0), width]
                rank = distinct_rows(table[np.concatenate([target, rule])][:, columns])[1]
                row_of = np.full(len(rank), -1)
                row_of[rank[: len(target)]] = target
                match = row_of[rank[len(target) :]]
            hit = (match >= 0) & (witness[match] < 0) & (confidence[match] >= confidence[rule])
            hit &= (best[rule] < 0) | (confidence[match] > confidence[best[rule]])
            best[rule[hit]] = match[hit]
        witness = np.where(best >= 0, best, witness)
    return RulePartition(rules=rules, witness=witness)
