"""Seeded K-means over the four non-assignee attribute codes.

Lloyd iterations with k-means++ initialization, seeded by numpy's
``default_rng(seed)`` draws re-derived from PCG64's raw stream, which numpy
keeps fixed, without ``numpy.random`` and its ``Generator``, which does not.
So identical inputs and seed give bit-identical labels.
Distances are squared Euclidean on the raw integer codes; the assignee code
is excluded from the features because it is the prediction target.

The records are a table of points, each record's row in it and each row's
record count. Equal rows have equal features and so share a cluster, so a
record's cluster is its row's: the model keeps one label per table row and
each cluster's record count. Lloyd steps and the k-means++ distances run on
the distinct feature vectors, gathered through the table to the records only
where a draw or the inertia needs them. This is exact: count-weighted sums of
integer coordinates are exact below 2**53, so centroids equal per-record
means. Only the distinct vectors are converted to floats, exact for integer
codes below 2**53, so an integer view of the codes fits as its float copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

from .errors import ConsistencyError, InfeasibleKError, ParameterError
from .mine import distinct_rows

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Fitted partition: centroids, labels and diagnostics.

    ``labels[r]`` is the cluster of table row r, and so of every record on
    it; ``sizes[j]`` counts cluster j's records. ``inertia_history`` holds
    the objective after each Lloyd iteration (entry 0 is the
    post-initialization value).
    """

    k: int
    centroids: tuple[tuple[float, ...], ...]
    labels: np.ndarray
    sizes: tuple[int, ...]
    inertia: float
    seed: int
    iterations_run: int
    inertia_history: tuple[float, ...]

    def cluster_sizes(self) -> list[int]:
        return list(self.sizes)


def nearest(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest centroid, ties to the lowest index, and its squared distance."""
    distances = np.zeros((len(points), len(centroids)))  # a feature at a time
    difference = np.empty_like(distances)  # so at most two tables are held
    for p, c in zip(points.T, centroids.T):
        distances += np.square(np.subtract.outer(p, c, out=difference), out=difference)
    del difference  # before the per-point arrays
    assignments = distances.argmin(axis=1)
    return assignments, distances[np.arange(len(points)), assignments]


def _assign_with_repair(
    points: np.ndarray, centroids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assignment step that also repairs empty clusters.

    An empty cluster is reseeded to the point farthest from its assigned
    centroid; donors are restricted to clusters with at least two members so
    a repair never empties another cluster. Returns (centroids, assignments,
    per-point squared distances) satisfying the nearest-centroid invariant
    with every cluster non-empty.
    """
    centroids = centroids.copy()
    for _ in range(2 * k + 2):
        assignments, dists = nearest(points, centroids)
        sizes = np.bincount(assignments, minlength=k)
        empties = np.flatnonzero(sizes == 0)
        if len(empties) == 0:
            return centroids, assignments, dists
        for j in empties:
            eligible = sizes[assignments] >= 2
            candidate_dists = np.where(eligible, dists, -1.0)
            p = int(candidate_dists.argmax())
            if candidate_dists[p] <= 0.0:
                raise ConsistencyError(
                    "cannot repair empty cluster: no displaceable point at positive distance"
                )
            sizes[assignments[p]] -= 1
            sizes[j] += 1
            assignments[p] = j
            centroids[j] = points[p]
            dists[p] = 0.0
        # repaired centroids sit on data points; re-assign so the
        # nearest-centroid invariant holds for every point
    raise ConsistencyError("empty-cluster repair did not converge")


def _pcg64(seed: int) -> Iterator[int]:
    """``np.random.PCG64(seed)``'s raw outputs, 0 <= seed < 2**128: SeedSequence
    hashes and mixes the seed's 32-bit words, then a 128-bit LCG steps, each
    state giving an output by XSL-RR."""
    const, mult = 0x43B0D7E5, 0x931E8875  # the hash constant and its step

    def hashmix(value: int) -> int:
        nonlocal const
        value, const = value ^ const, const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    pool = [hashmix(seed >> shift & _M32) for shift in range(0, 128, 32)]
    for src, dst in permutations(range(4), 2):
        value = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src]) & _M32
        pool[dst] = value ^ value >> 16
    const, mult = 0x8B51F9DD, 0x58F38DED  # generate_state(4, uint64): eight words, paired
    words = [hashmix(value) for value in pool * 2]
    high, low, seq_high, seq_low = (a | b << 32 for a, b in zip(words[::2], words[1::2]))
    inc = ((seq_high << 64 | seq_low) << 1 | 1) & _M128
    state = (inc + (high << 64 | low)) * _MULT + inc & _M128
    while True:
        state = state * _MULT + inc & _M128
        value, rotate = (state >> 64 ^ state) & _M64, state >> 122
        yield (value >> rotate | value << 64 - rotate) & _M64


def _integers(halves: Iterator[int], n: int) -> int:
    """``Generator.integers(n)``, 0 < n < 2**32, by Lemire's multiply and reject
    on ``halves``: each raw output's low 32 bits, then its high 32 bits."""
    m = next(halves) * n if n > 1 else 0
    while m & _M32 < 2**32 % n:
        m = next(halves) * n
    return m >> 32


def _kmeanspp_init(
    vectors: np.ndarray, table_rank: np.ndarray, index: np.ndarray, k: int, seed: int
) -> np.ndarray:
    """k-means++ seeds, each drawn over all records from the distances of the
    distinct vectors gathered to the records through ``table_rank[index]``."""
    n, raw = len(index), _pcg64(seed)
    halves = (half for value in raw for half in (value & _M32, value >> 32))
    centroids = np.empty((k, vectors.shape[1]), dtype=float)
    centroids[0] = vectors[table_rank[index[_integers(halves, n)]]]
    d2 = ((vectors - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        cdf = d2[table_rank][index]  # each record's distance, made Generator.choice's cdf in place
        total = cdf.sum()
        if total <= 0.0:
            raise ConsistencyError("k-means++ ran out of distinct points")
        cdf /= total
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        idx = int(cdf.searchsorted((next(raw) >> 11) * 2.0**-53, side="right"))
        del cdf  # before the next record-sized array
        if d2[table_rank[index[idx]]] == 0.0:  # boundary artifact of the cumulative draw
            idx = int(d2[table_rank][index].argmax())
        centroids[j] = vectors[table_rank[index[idx]]]
        d2 = np.minimum(d2, ((vectors - centroids[j]) ** 2).sum(axis=1))
    return centroids


def kmeans_fit(
    points: Sequence[Sequence[float]],
    index: Sequence[int],
    counts: Sequence[int],
    k: int,
    seed: int,
    max_iterations: int,
) -> ClusterModel:
    """Fit k clusters of the records ``points[index[i]]``, ``counts[r]`` of
    them on row r, with Lloyd's algorithm and k-means++ seeding.

    Stops when the labels are unchanged between iterations or after
    max_iterations. Requires k <= number of distinct points so no cluster
    can stay empty. The k-means++ draws are made over all records.
    """
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    if max_iterations < 1:
        raise ParameterError(f"max_iterations must be >= 1, got {max_iterations}")
    if not 0 <= seed < 2**64:  # as the config allows; _pcg64 would take any seed's low bits
        raise ParameterError(f"seed must be in [0, 2^64), got {seed}")
    data, index, counts = np.asarray(points), np.asarray(index), np.asarray(counts)
    if data.ndim != 2 or len(data) == 0 or len(index) == 0 or len(counts) != len(data):
        raise ParameterError("points must be non-empty equal-length vectors, one count each")
    vectors, table_rank = distinct_rows(data)[:2]  # its row counts would be held to the end
    counts = np.bincount(table_rank, counts).astype(np.int64)  # each distinct vector's records
    vectors = vectors.astype(float)
    if k > len(vectors):
        raise InfeasibleKError(
            f"k={k} exceeds the {len(vectors)} distinct feature vectors in the input"
        )

    def assign(centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(centroids, labels of the distinct vectors, inertia), through the
        per-record repair when a cluster would be empty."""
        labels, dists = nearest(vectors, centroids)
        if not np.bincount(labels, minlength=k).all():
            centroids = _assign_with_repair(vectors[table_rank][index], centroids, k)[0]
            labels, dists = nearest(vectors, centroids)  # as the repair left each record
        return centroids, labels, float(dists[table_rank][index].sum())

    centroids, labels, inertia = assign(_kmeanspp_init(vectors, table_rank, index, k, seed))
    history = [inertia]
    weighted = [counts * column for column in vectors.T]  # a feature times its record count
    for iterations_run in range(1, max_iterations + 1):
        previous = labels
        sums = [np.bincount(labels, weights=column, minlength=k) for column in weighted]
        centroids = np.column_stack(sums) / np.bincount(labels, counts, minlength=k)[:, None]
        centroids, labels, inertia = assign(centroids)
        history.append(inertia)
        if np.array_equal(labels, previous):
            break

    return ClusterModel(
        k=k,
        centroids=tuple(map(tuple, centroids.tolist())),
        labels=labels[table_rank],
        sizes=tuple(np.bincount(labels, counts, minlength=k).astype(np.int64).tolist()),
        inertia=history[-1],
        seed=seed,
        iterations_run=iterations_run,
        inertia_history=tuple(history),
    )
