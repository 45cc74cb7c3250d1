"""Frequent-itemset mining over encoded bug reports by attribute-subset
projection counting.

Every bug report carries exactly one item per attribute, so a frequent
itemset is a pair of an attribute subset and one code per attribute in it,
and the whole itemset lattice is 31 group-by counts over the ``(n, 5)`` code
array: one per non-empty attribute subset. The groups of ``S ∪ {a}`` are
keyed by the dense group rank of ``S`` times the number of distinct codes of
``a`` plus the rank of the row's ``a`` code, so keys stay below ``n²`` for
any codebook size. Counts are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import ParameterError
from .ingest import Attribute


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

    def __str__(self) -> str:
        body = ", ".join(f"{i.attribute.display}:{i.code}" for i in self.items)
        return "{" + body + "}"


class Projection(NamedTuple):
    """The frequent groups of one attribute subset: ``values[i]`` holds the
    codes of group i (one column per attribute of the subset, rows in
    lexicographic order) and ``counts[i]`` its support count."""

    values: np.ndarray
    counts: np.ndarray


Subset = tuple[Attribute, ...]


def matching_rows(table_rows: np.ndarray, query_rows: np.ndarray) -> np.ndarray:
    """For each query row, the index of the equal row of ``table_rows`` (whose
    rows are distinct), or -1 where there is none."""
    both = np.concatenate([table_rows, query_rows])
    is_query = np.arange(len(both)) >= len(table_rows)
    # a table row sorts first among the rows equal to it
    order = np.lexsort((is_query, *both.T[::-1]))
    ordered = both[order]
    starts = np.ones(len(both), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = order[np.maximum.accumulate(np.where(starts, np.arange(len(both)), 0))]
    found = np.where(first < len(table_rows), first, -1)
    result = np.empty(len(query_rows), dtype=np.int64)
    result[order[is_query[order]] - len(table_rows)] = found[is_query[order]]
    return result


@dataclass(frozen=True)
class FrequentItemsetTable:
    """All itemsets meeting the support threshold, with exact counts, kept as
    one Projection per attribute subset (attributes in canonical order) that
    has at least one frequent group."""

    projections: Mapping[Subset, Projection]
    min_support_count: int
    transaction_count: int

    def __len__(self) -> int:
        return sum(len(projection.counts) for projection in self.projections.values())

    @cached_property
    def support(self) -> dict[Itemset, int]:
        """Itemset -> support count, built on first use."""
        return {
            Itemset(map(Item, subset, row)): count
            for subset, (values, counts) in self.projections.items()
            for row, count in zip(values.tolist(), counts.tolist())
        }

    def counts_of(self, subset: Subset, rows: np.ndarray) -> np.ndarray:
        """Support count of the itemset each row of codes spells over
        ``subset``, or 0 where that itemset is not in the table."""
        projection = self.projections.get(subset)
        if projection is None:
            return np.zeros(len(rows), dtype=np.int64)
        index = matching_rows(projection.values, rows)
        return np.where(index >= 0, projection.counts[index], 0)

    def to_json(self) -> dict:
        """Debug dump: one entry per itemset, canonical order."""
        entries = [
            {
                "items": [[item.attribute.display, item.code] for item in itemset],
                "support_count": count,
            }
            for itemset, count in sorted(self.support.items(), key=lambda kv: kv[0].items)
        ]
        return {
            "min_support_count": self.min_support_count,
            "transaction_count": self.transaction_count,
            "itemsets": entries,
        }


def mine_frequent_itemsets(codes: np.ndarray, min_support_count: int) -> FrequentItemsetTable:
    """Count every attribute-subset projection of an ``(n, 5)`` code array
    (columns in Attribute order) and keep the groups with support at least
    ``min_support_count``.

    Subsets grow by appending a later attribute, level by level; a subset
    with no frequent group has no frequent superset, so it is not extended.
    """
    if min_support_count < 1:
        raise ParameterError("min_support_count must be >= 1")
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, len(Attribute))
    ranks, radix = [], []
    for attribute in Attribute:
        distinct, inverse = np.unique(codes[:, attribute], return_inverse=True)
        ranks.append(inverse.reshape(-1))
        radix.append(len(distinct))

    projections: dict[Subset, Projection] = {}
    # each subset of the current level -> the dense group rank of every row
    level: dict[Subset, np.ndarray] = {(): np.zeros(len(codes), dtype=np.int64)}
    while level:
        next_level: dict[Subset, np.ndarray] = {}
        for prefix, prefix_rank in level.items():
            for attribute in Attribute:
                if prefix and attribute <= prefix[-1]:
                    continue
                subset = prefix + (attribute,)
                keys = prefix_rank * radix[attribute] + ranks[attribute]
                _, first, rank, counts = np.unique(
                    keys, return_index=True, return_inverse=True, return_counts=True
                )
                frequent = counts >= min_support_count
                if frequent.any():
                    projections[subset] = Projection(
                        values=codes[first[frequent]][:, list(subset)],
                        counts=counts[frequent],
                    )
                    next_level[subset] = rank.reshape(-1)
        level = next_level

    return FrequentItemsetTable(
        projections=projections,
        min_support_count=min_support_count,
        transaction_count=len(codes),
    )
