"""Class association rules as one columnar table per cluster: assignee
consequents, confidence thresholds, ordering and elimination of redundant
rules, with no per-rule objects.

A rule is redundant when some essential rule with the same consequent, a
strictly smaller antecedent and confidence at least as high already carries
its meaning. Its candidates are its probes, its row cut down to each smaller
antecedent subset. Each rule's row is one int64 key in mixed radix: a digit
per antecedent attribute, an absent attribute's digit one past that
attribute's largest code among the table's rules, and the consequent. A
probe's key is its rule's key plus what setting the dropped digits to absent
adds, so probes are matched by a search among the sorted rule keys. Where
the product of the radices, taken in Python ints, would pass ``KEY_BOUND``,
the rows and probes are ranked by ``distinct_rows`` instead. Confidences
are compared exactly and in one place: each rule table keys its distinct
(support, antecedent count) pairs by ``(support << shift) //
antecedent_count`` in Python ints, with ``2**shift >= M**2`` for M the
largest antecedent count. Distinct ratios with denominators up to M differ
by at least 1/M**2, so their keys differ and order as the ratios do, and
equal ratios get equal keys. Rules sort and are compared on the dense rank
of their pair's key, for counts of any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import DuplicateRuleError, ParameterError
from .ingest import Attribute
from .mine import Projection, Subset, distinct_rows, group_keys

ANTECEDENT_ATTRIBUTES = tuple(Attribute)[:-1]  # the assignee is the consequent

# The non-empty antecedent attribute subsets as bit masks (bit a for
# attribute a), by size and then in ``combinations`` order, which is not mask
# order: {Severity, OperatingSystem} (9) comes before {Priority, Component}
# (6). Of two equally confident witnesses of one size, the earlier one wins.
SUBSETS = np.array([1, 2, 4, 8, 3, 5, 9, 6, 10, 12, 7, 11, 13, 14, 15])
# each subset's complement: OUTSIDE[s, a] is 1 where SUBSETS[s] lacks attribute a
OUTSIDE = 1 - (SUBSETS[:, None] >> np.arange(len(ANTECEDENT_ATTRIBUTES)) & 1)
KEY_BOUND = 2**62  # packed row keys must stay below this; past it rows are ranked


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
        """The distinct (support, antecedent count) pairs in lexicographic
        order, one row each, and each rule's row among them, found from one
        packed key per rule unless its key space passes ``KEY_BOUND``."""
        radix = int(max(self.support.max(initial=0), self.antecedent_count.max(initial=0))) + 1
        if radix * radix > KEY_BOUND:
            return distinct_rows(np.column_stack([self.support, self.antecedent_count]))[:2]
        keys, _, pair = group_keys(self.support * radix + self.antecedent_count, radix * radix)
        return np.column_stack(np.divmod(keys, radix)), pair

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
    ordered = RuleTable(*(column[order] for column in columns))
    # the ranks the sort used, cached where cached_property keeps them (a
    # frozen dataclass still has a writable instance dict)
    pairs, pair = rules.pairs
    vars(ordered).update(pairs=(pairs, pair[order]), confidence_rank=rules.confidence_rank[order])
    return ordered


def _row_keys(
    rules: RuleTable, rule: np.ndarray, position: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Int64 keys of the rules' rows and of the probes, probe j being rule
    ``rule[j]``'s row without the attributes outside ``SUBSETS[position[j]]``;
    keys are equal exactly where the rows are."""
    top = rules.codes.max(axis=0, initial=-1) + 1  # each attribute's absent digit
    radices = [*(top + 1).tolist(), int(rules.consequent.max(initial=0)) + 1]
    if math.prod(radices) > KEY_BOUND:
        table = np.column_stack([rules.codes, rules.consequent])
        table = table[np.concatenate([np.arange(len(rules)), rule])]
        table[len(rules) :, :-1][OUTSIDE[position] == 1] = -1
        rank = distinct_rows(table)[1]
        return rank[: len(rules)], rank[len(rules) :]
    weights = np.cumprod(radices[-1:] + radices[:-2])  # the consequent is the lowest digit
    digits = np.where(rules.present, rules.codes, top)
    keys = digits @ weights + rules.consequent
    dropped = ((top - digits) * weights) @ OUTSIDE.T  # what each subset's probe adds
    return keys, keys[rule] + dropped[rule, position]


def eliminate_redundant(rules: RuleTable) -> RulePartition:
    """Split a rule table into essential and redundant rules, keeping its row
    order in both.

    Each rule is probed by every proper non-empty subset T of its antecedent:
    its row again without the codes outside T. Rows and probes are keyed as
    the module docstring says, by one packed int64 each while the product of
    the radices stays within ``KEY_BOUND`` and by their ``distinct_rows``
    ranks past it. One stable argsort of the rules' keys finds duplicate
    rules, and a search among them matches each probe to the rule with
    exactly that antecedent and consequent, if there is one. A match no less
    confident than the rule subsumes it if the match is essential, so rules
    are decided by antecedent size, smallest first. A rule's witness is its
    essential match of the smallest size, then the highest confidence, then
    the first subset in ``SUBSETS`` order.
    """
    n, width = len(rules), len(ANTECEDENT_ATTRIBUTES)
    antecedent = rules.present @ (1 << np.arange(width))
    proper = (antecedent[:, None] & SUBSETS == SUBSETS) & (antecedent[:, None] != SUBSETS)
    rule, position = np.nonzero(proper)
    keys, probes = _row_keys(rules, rule, position)
    by_key = np.argsort(keys, kind="stable")  # equal keys in row order
    ranked = keys[by_key]
    repeated = ranked[1:] == ranked[:-1]
    if repeated.any():
        raise DuplicateRuleError(f"duplicate rule at row {by_key[1:][repeated].min()}")
    at = np.minimum(np.searchsorted(ranked, probes), max(n - 1, 0))
    match = np.where(ranked[at] == probes, by_key[at], -1)

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
