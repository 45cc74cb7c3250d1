"""Frequent-itemset mining over encoded bug reports by attribute-subset
projection counting.

Every bug report carries exactly one item per attribute, so a frequent
itemset is a pair of an attribute subset and one code per attribute in it,
and the whole itemset lattice is 31 group-by counts over the ``(n, 5)`` code
array: one per non-empty attribute subset. The groups of ``S ∪ {a}`` are
keyed by the dense group rank of ``S`` times the number of distinct codes of
``a`` plus the rank of the row's ``a`` code, so keys stay below ``n²`` for
any codebook size. Keys are tallied by ``np.bincount`` unless their space is
large, and a group's codes are read off its key. Counts are exact.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .ingest import Attribute


class Projection(NamedTuple):
    """The frequent groups of one attribute subset: ``values[i]`` holds the
    codes of group i (one column per attribute of the subset, rows in
    lexicographic order), ``counts[i]`` its support count and
    ``parent_counts[i]`` that of its codes without the last attribute."""

    values: np.ndarray
    counts: np.ndarray
    parent_counts: np.ndarray


Subset = tuple[Attribute, ...]

_TALLY_KEYS_PER_ROW = 4  # key spaces up to this many keys per row are tallied


def group_keys(keys: np.ndarray, key_space: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of non-negative ``keys`` below ``key_space``
    ascending, their counts and each key's dense rank, as ``np.unique`` gives
    them, but counted by ``np.bincount`` when the key space is small."""
    if key_space > _TALLY_KEYS_PER_ROW * len(keys):
        distinct, rank, counts = np.unique(keys, return_inverse=True, return_counts=True)
        return distinct, counts, rank
    tally = np.bincount(keys, minlength=key_space)
    present = tally > 0
    return np.flatnonzero(present), tally[present], (np.cumsum(present) - 1)[keys]


def distinct_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array in its dtype, each point's index among
    them and each one's count, ranked column by column on integer keys below
    n² (rank so far × the column's distinct values + the value's rank)."""
    rank, counts = np.zeros(len(points), dtype=np.int64), np.array([len(points)])
    for column in points.T:
        values, value_rank = np.unique(column, return_inverse=True)
        _, counts, rank = group_keys(rank * len(values) + value_rank, len(counts) * len(values))
    vectors = np.empty((len(counts), points.shape[1]), dtype=points.dtype)
    vectors[rank] = points
    return vectors, rank, counts


def mine_frequent_itemsets(codes: np.ndarray, min_support_count: int) -> dict[Subset, Projection]:
    """Count every attribute-subset projection of an ``(n, 5)`` array of
    non-negative codes (columns in Attribute order) and keep, per subset,
    the groups with support at least ``min_support_count``, if any.

    Subsets grow by appending a later attribute, level by level; a subset
    with no frequent group has no frequent superset, so it is not extended.
    """
    if min_support_count < 1:
        raise ParameterError("min_support_count must be >= 1")
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, len(Attribute))
    # each attribute's distinct codes, and the rank of every row's code
    codes_of, _, ranks = zip(*(group_keys(column, column.max(initial=0) + 1) for column in codes.T))

    projections: dict[Subset, Projection] = {}
    # each subset of the current level -> the group rank of every row, and
    # the codes and count of every group
    level = {(): (np.zeros_like(codes[:, 0]), np.empty((1, 0), np.int64), np.array([len(codes)]))}
    while level:
        next_level: dict[Subset, tuple[np.ndarray, ...]] = {}
        for prefix, (prefix_rank, prefix_values, prefix_counts) in level.items():
            for attribute in Attribute:
                if prefix and attribute <= prefix[-1]:
                    continue
                subset = prefix + (attribute,)
                radix = len(codes_of[attribute])
                keys, counts, rank = group_keys(
                    prefix_rank * radix + ranks[attribute], len(prefix_counts) * radix
                )
                frequent = counts >= min_support_count
                if frequent.any():
                    parent, digit = np.divmod(keys, radix)
                    values = np.column_stack([prefix_values[parent], codes_of[attribute][digit]])
                    projections[subset] = Projection(
                        values[frequent], counts[frequent], prefix_counts[parent[frequent]]
                    )
                    next_level[subset] = (rank, values, counts)
        level = next_level

    return projections
