import csv
import dataclasses
import random
import tracemalloc
from collections import Counter
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import point_table

from triage_miner import cluster, pipeline
from triage_miner.cluster import (
    _M32,
    ClusterModel,
    _assign_with_repair,
    _integers,
    _kmeanspp_init,
    _pcg64,
    kmeans_fit,
    nearest,
)
from triage_miner.config import PipelineConfig
from triage_miner.errors import ConsistencyError, InfeasibleKError, ParameterError
from triage_miner.mine import distinct_rows
from triage_miner.pipeline import execute
from triage_miner.synth import synthesize_rows, write_csv


def _random_points(rnd: random.Random, n: int, spread: int = 8):
    return [tuple(float(rnd.randint(1, spread)) for _ in range(4)) for _ in range(n)]


def brute_force_best_two_partition(points):
    """Minimal inertia over every assignment of points to two non-empty groups."""
    best = None
    n = len(points)
    arr = np.asarray(points, dtype=float)
    for mask in range(1, 2**n - 1):
        groups = [[i for i in range(n) if (mask >> i) & 1 == bit] for bit in (0, 1)]
        inertia = 0.0
        for group in groups:
            member = arr[group]
            inertia += ((member - member.mean(axis=0)) ** 2).sum()
        if best is None or inertia < best[0]:
            best = (inertia, frozenset(map(frozenset, groups)))
    return best


class TestKmeansFit:
    def test_identical_points_k1(self):
        model = kmeans_fit(*point_table([(2, 2, 2, 2)] * 10), k=1, seed=5, max_iterations=100)
        assert model.centroids == ((2.0, 2.0, 2.0, 2.0),)
        assert model.inertia == 0.0
        assert model.iterations_run == 1
        assert model.labels.tolist() == [0] and model.sizes == (10,)

    def test_two_clumps_recovered_exactly(self):
        points = [(1, 1, 1, 1)] * 5 + [(9, 9, 9, 9)] * 5
        oracle_inertia, oracle_partition = brute_force_best_two_partition(points)
        assert oracle_inertia == 0.0
        table, index, counts = point_table(points)
        model = kmeans_fit(table, index, counts, k=2, seed=0, max_iterations=100)
        assert model.inertia == 0.0
        assignments = model.labels[index]
        got = frozenset(
            frozenset(i for i, c in enumerate(assignments) if c == j) for j in range(2)
        )
        assert got == oracle_partition

    def test_k_equals_distinct_points_gives_zero_inertia(self):
        points = [(float(i), 1.0, 1.0, 1.0) for i in range(6)]
        model = kmeans_fit(*point_table(points), k=6, seed=3, max_iterations=100)
        assert model.inertia == 0.0
        assert sorted(model.centroids) == sorted(tuple(p) for p in points)
        assert sorted(model.labels) == list(range(6))

    def test_k_above_distinct_points_is_infeasible(self):
        with pytest.raises(InfeasibleKError):
            kmeans_fit(*point_table([(1, 1, 1, 1)] * 4), k=2, seed=0, max_iterations=100)

    def test_distinct_points_are_counted_across_repeats(self):
        # rows that differ in one column only, repeated out of order
        points = [(1, 2, 3, 4), (1, 2, 3, 5), (0, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 5)] * 3
        model = kmeans_fit(*point_table(points), k=3, seed=0, max_iterations=100)
        assert sum(model.cluster_sizes()) == 15
        with pytest.raises(InfeasibleKError, match="the 3 distinct"):
            kmeans_fit(*point_table(points), k=4, seed=0, max_iterations=100)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ParameterError):
            kmeans_fit(*point_table([(1, 1, 1, 1)]), k=0, seed=0, max_iterations=100)

    def test_nonpositive_max_iterations_rejected(self):
        with pytest.raises(ParameterError):
            kmeans_fit(*point_table([(1, 1, 1, 1)]), k=1, seed=0, max_iterations=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_pcg64_range_rejected(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            kmeans_fit(*point_table([(1, 1, 1, 1)]), k=1, seed=seed, max_iterations=100)

    def test_empty_points_rejected(self):
        with pytest.raises(ParameterError):
            kmeans_fit([], [], [], k=1, seed=0, max_iterations=100)

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_deterministic_for_same_seed(self, seed):
        rnd = random.Random(99)
        points = _random_points(rnd, 80)
        a = kmeans_fit(*point_table(points), k=5, seed=seed, max_iterations=100)
        b = kmeans_fit(*point_table(points), k=5, seed=seed, max_iterations=100)
        assert np.array_equal(a.labels, b.labels) and a.sizes == b.sizes
        assert a.centroids == b.centroids
        assert a.inertia == b.inertia

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_on_random_data(self, seed):
        rnd = random.Random(1000 + seed)
        points = _random_points(rnd, rnd.randint(20, 120))
        k = rnd.randint(1, 6)
        table, index, counts = point_table(points)
        model = kmeans_fit(table, index, counts, k=k, seed=seed, max_iterations=100)
        assignments = model.labels[index]
        sizes = model.cluster_sizes()
        assert all(size > 0 for size in sizes)
        assert sizes == np.bincount(assignments, minlength=k).tolist() and sum(sizes) == len(points)
        # inertia never increases across Lloyd iterations
        history = model.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
        assert model.inertia == history[-1]
        # every point sits with a nearest centroid, ties to the lowest index
        arr = np.asarray(points, dtype=float)
        cents = np.asarray(model.centroids)
        dists = ((arr[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(dists.argmin(axis=1), assignments)
        # inertia matches a recomputation
        recomputed = dists[np.arange(len(points)), assignments].sum()
        assert abs(model.inertia - recomputed) <= 1e-9 * max(1.0, recomputed)

    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=25, deadline=None)
    def test_any_seed_is_accepted(self, seed):
        points = [(1, 1, 1, 1), (5, 5, 5, 5), (9, 9, 9, 9), (1, 9, 1, 9)]
        model = kmeans_fit(*point_table(points), k=2, seed=seed, max_iterations=100)
        assert sum(model.cluster_sizes()) == 4


class TestClusterMaskSplit:
    """execute mines each cluster on a mask over the row table: the rows of
    the records assigned to it, each once and in table order, with the
    number of those records per row."""

    @pytest.fixture
    def mined(self, monkeypatch, tmp_path):
        def run(k: int):
            source = tmp_path / "bugs.csv"
            write_csv(source, synthesize_rows(2000, seed=4))
            calls = []
            mine_cluster = pipeline._mine_cluster

            def spy(cluster, rows, counts, config, codebooks):
                calls.append((cluster, rows, counts))
                return mine_cluster(cluster, rows, counts, config, codebooks)

            monkeypatch.setattr(pipeline, "_mine_cluster", spy)
            return execute(PipelineConfig(input_path=str(source), k=k)), calls

        return run

    def test_each_cluster_gets_the_rows_and_counts_of_its_records(self, mined):
        result, calls = mined(5)
        records = result.rows[result.index]
        assert [cluster for cluster, _, _ in calls] == list(range(5))
        for cluster, rows, counts in calls:
            given = Counter(dict(zip(map(tuple, rows.tolist()), counts.tolist())))
            labels = result.model.labels[result.index]
            assigned = Counter(map(tuple, records[labels == cluster].tolist()))
            assert len(given) == len(rows) and given == assigned
            size = result.model.cluster_sizes()[cluster]
            assert counts.sum() == result.outcomes[cluster].size == size

    def test_the_clusters_partition_the_table_in_table_order(self, mined):
        result, calls = mined(5)
        position = {row: i for i, row in enumerate(map(tuple, result.rows.tolist()))}
        parts = [[position[row] for row in map(tuple, rows.tolist())] for _, rows, _ in calls]
        assert sorted(i for part in parts for i in part) == list(range(len(result.rows)))
        assert all(part == sorted(part) for part in parts)

    def test_a_single_cluster_gets_the_whole_table(self, mined):
        result, [(cluster, rows, counts)] = mined(1)
        assert cluster == 0 and np.array_equal(rows, result.rows)
        assert counts.tolist() == np.bincount(result.index).tolist()


def test_relabelling_every_assignee_leaves_the_model_unchanged(sample_csv, tmp_path):
    with open(sample_csv, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    rnd = random.Random(3)
    column = header.index("assignee")
    for row in rows:
        row[column] = f"Someone {rnd.randint(1, 4)}"
    relabelled = tmp_path / "bugs.csv"
    with open(relabelled, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    before = execute(PipelineConfig(input_path=str(sample_csv)))
    after = execute(PipelineConfig(input_path=str(relabelled)))
    assert not np.array_equal(after.rows[after.index, 4], before.rows[before.index, 4])
    # each record's cluster is unchanged, though the tables' rows differ
    per_record = dataclasses.replace(before.model, labels=before.model.labels[before.index])
    assert_same_model(after.model, per_record, after.index)


def test_empty_cluster_repair_on_adversarial_data():
    # one far outlier plus two tight clumps forces centroid relocation paths
    points = [(1, 1, 1, 1)] * 30 + [(2, 1, 1, 1)] * 30 + [(50, 50, 50, 50)]
    for seed in range(10):
        model = kmeans_fit(*point_table(points), k=3, seed=seed, max_iterations=100)
        assert all(size > 0 for size in model.cluster_sizes())
        assert sum(model.cluster_sizes()) == len(points)


def per_point_kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ with every distance computed per point, as kmeans_fit seeded
    before it moved the distances to the distinct feature vectors."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]), dtype=float)
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            raise ConsistencyError("k-means++ ran out of distinct points")
        idx = int(rng.choice(n, p=d2 / total))
        if d2[idx] == 0.0:
            idx = int(d2.argmax())
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def per_point_kmeans_fit(points, k: int, seed: int, max_iterations: int) -> ClusterModel:
    """Lloyd's algorithm over every point, as kmeans_fit ran before it moved
    its steps to the distinct feature vectors: the reference it must equal.
    Its model labels each point, as if every point had a table row of its own."""
    data = np.asarray(points, dtype=float)
    distinct = len(np.unique(data, axis=0))
    if k > distinct:
        raise InfeasibleKError(f"k={k} exceeds the {distinct} distinct feature vectors")
    rng = np.random.default_rng(seed)
    centroids = per_point_kmeanspp_init(data, k, rng)
    centroids, assignments, dists = _assign_with_repair(data, centroids, k)
    history = [float(dists.sum())]
    iterations_run = 0
    for iteration in range(1, max_iterations + 1):
        centroids = np.stack([data[assignments == j].mean(axis=0) for j in range(k)])
        centroids, new_assignments, dists = _assign_with_repair(data, centroids, k)
        history.append(float(dists.sum()))
        iterations_run = iteration
        converged = bool(np.array_equal(new_assignments, assignments))
        assignments = new_assignments
        if converged:
            break
    return ClusterModel(
        k=k,
        centroids=tuple(tuple(float(x) for x in c) for c in centroids),
        labels=assignments,
        sizes=tuple(np.bincount(assignments, minlength=k).tolist()),
        inertia=history[-1],
        seed=seed,
        iterations_run=iterations_run,
        inertia_history=tuple(history),
    )


def assert_same_model(model: ClusterModel, expected: ClusterModel, index=None) -> None:
    """Every field equal, the labels element by element; with ``index``,
    ``model``'s labels gathered through it equal ``expected``'s per-point ones."""
    for field in dataclasses.fields(ClusterModel):
        value, reference = getattr(model, field.name), getattr(expected, field.name)
        if field.name == "labels":
            assert np.array_equal(value if index is None else value[index], reference)
        else:
            assert value == reference, field.name


@st.composite
def duplicated_points(draw):
    """Integer points drawn from a pool of at most 8 vectors, and a feasible k."""
    dim = draw(st.integers(1, 4))
    pool = draw(
        st.lists(st.tuples(*[st.integers(0, 12)] * dim), min_size=1, max_size=8, unique=True)
    )
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    return points, draw(st.integers(1, len(set(points))))


@given(duplicated_points(), st.integers(0, 2**32), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_distinct_vector_steps_equal_the_per_point_fit(case, seed, max_iterations):
    points, k = case
    table, index, counts = point_table(points)
    try:
        expected = per_point_kmeans_fit(points, k, seed, max_iterations)
    except ConsistencyError:
        with pytest.raises(ConsistencyError):
            kmeans_fit(table, index, counts, k, seed, max_iterations)
        return
    assert_same_model(kmeans_fit(table, index, counts, k, seed, max_iterations), expected, index)


@given(duplicated_points(), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_distinct_vector_init_equals_the_per_point_init(case, seed):
    points, k = case
    data = np.asarray(points, dtype=float)
    vectors, rank, _ = distinct_rows(data)
    try:
        expected = per_point_kmeanspp_init(data, k, np.random.default_rng(seed))
    except ConsistencyError:
        with pytest.raises(ConsistencyError):
            _kmeanspp_init(vectors, rank, np.arange(len(rank)), k, seed)
        return
    assert np.array_equal(_kmeanspp_init(vectors, rank, np.arange(len(rank)), k, seed), expected)


@st.composite
def points_and_centroids(draw):
    """Integer points of 1-4 features with repeats, and float centroids that
    are points, halves or any floats, some repeated, so that distances tie."""
    dim = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[st.integers(-20, 20)] * dim), min_size=1, max_size=6))
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    centroid = st.one_of(
        st.sampled_from(pool).map(lambda point: tuple(map(float, point))),
        st.tuples(*[st.integers(-40, 40).map(lambda twice: twice / 2)] * dim),
        st.tuples(*[st.floats(-25, 25)] * dim),
    )
    centroids = draw(st.lists(centroid, min_size=1, max_size=5))
    centroids += draw(st.lists(st.sampled_from(centroids), max_size=2))
    return points, draw(st.permutations(centroids))


def nearest_by_loops(points, centroids) -> tuple[list[int], list[float]]:
    """Each point's nearest centroid and distance, one pair at a time: the sum
    from 0.0 in feature order, and a strictly nearer centroid takes the point,
    so ties go to the lowest index."""
    labels, distances = [], []
    for point in points:
        label, distance = -1, 0.0
        for j, centroid in enumerate(centroids):
            d = 0.0
            for p, c in zip(point, centroid):
                d = d + (p - c) * (p - c)
            if label < 0 or d < distance:
                label, distance = j, d
        labels.append(label)
        distances.append(distance)
    return labels, distances


@given(points_and_centroids())
@settings(max_examples=300, deadline=None)
def test_nearest_equals_a_loop_over_each_point_and_centroid(case):
    """k-means labels float vectors and the audit integer rows, both with
    ``nearest``: each gives the loop's labels and bit-equal distances."""
    points, centroids = case
    labels, distances = nearest_by_loops(points, centroids)
    for dtype in (np.int64, float):
        got_labels, got_distances = nearest(np.array(points, dtype), np.array(centroids))
        assert got_labels.tolist() == labels
        assert got_distances.view(np.int64).tolist() == np.array(distances).view(np.int64).tolist()


# found by search: with k=3 and seed 11 the first Lloyd update leaves a cluster empty
REPAIRED_POINTS = [
    (11, 12), (0, 8), (0, 8), (7, 3), (7, 11), (0, 7),
    (0, 8), (7, 3), (7, 11), (0, 7), (11, 12),
]


@given(duplicated_points(), st.integers(0, 2**32), st.integers(1, 6))
@example((REPAIRED_POINTS, 3), 11, 100)
@settings(max_examples=200, deadline=None)
def test_an_integer_code_view_fits_as_its_float_copy(case, seed, max_iterations):
    points, k = case
    # a trailing column, so the fit reads a strided view as it reads rows[:, :4]
    table, index, counts = point_table(points)
    codes = np.column_stack([np.array(table, dtype=np.int64), np.arange(len(table))])
    view = codes[:, :-1]
    try:
        expected = kmeans_fit(view.astype(float), index, counts, k, seed, max_iterations)
    except ConsistencyError:
        with pytest.raises(ConsistencyError):
            kmeans_fit(view, index, counts, k, seed, max_iterations)
        return
    assert_same_model(kmeans_fit(view, index, counts, k, seed, max_iterations), expected)


def test_a_step_that_empties_a_cluster_runs_the_repair(monkeypatch):
    points = REPAIRED_POINTS
    repairs = []

    def spy(points, centroids, k):
        repairs.append(centroids.copy())
        return _assign_with_repair(points, centroids, k)

    monkeypatch.setattr(cluster, "_assign_with_repair", spy)
    table, index, counts = point_table(points)
    model = kmeans_fit(table, index, counts, k=3, seed=11, max_iterations=100)
    assert len(repairs) == 1
    assert_same_model(model, per_point_kmeans_fit(points, k=3, seed=11, max_iterations=100), index)
    assert all(size > 0 for size in model.cluster_sizes())


def test_cluster_sizes_are_python_ints():
    points = [(1, 1, 1, 1)] * 3 + [(9, 9, 9, 9)]
    model = kmeans_fit(*point_table(points), k=2, seed=0, max_iterations=100)
    assert sorted(model.cluster_sizes()) == [1, 3]
    assert all(type(size) is int for size in model.cluster_sizes())


def test_the_fit_holds_no_per_record_array_between_steps():
    """The model labels the table's rows, and no step keeps the previous
    one's per-record distances: the traced peak is one float64 a record
    above the inputs, and what the returned model holds is table-sized."""
    rows = np.array([(a, b, c, 1) for a in range(10) for b in range(6) for c in range(5)])
    n = 400_000
    index = (np.arange(n) * 7919 % len(rows)).astype(np.int32)
    counts = np.bincount(index, minlength=len(rows))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model = kmeans_fit(rows, index, counts, k=5, seed=0, max_iterations=100)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.labels.shape == (300,) and sum(model.sizes) == n
    assert (peak - before) / n < 12, (peak - before) / n
    assert (held - before) / n < 0.5, (held - before) / n


def _halves(raw):
    """numpy's next_uint32 over raw outputs: each one's low half, then its high half."""
    return (half for value in raw for half in (value & _M32, value >> 32))


_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, 2**96 + 3, 2**128 - 1]


def _seeds(count: int, seed: int) -> list[int]:
    """The edge seeds and ``count`` more of random bit lengths up to 64."""
    rnd = random.Random(seed)
    return _EDGE_SEEDS + [rnd.getrandbits(rnd.randint(1, 64)) for _ in range(count)]


def test_raw_outputs_are_pcg64s():
    # numpy keeps PCG64's raw stream for a seed fixed across releases
    for seed in _seeds(2000, 1):
        assert list(islice(_pcg64(seed), 16)) == np.random.PCG64(seed).random_raw(16).tolist()


def test_integers_and_the_uniform_draw_are_default_rngs():
    # three bounded draws (a rejection is likely for n just above 2**31), then
    # the 53-bit double of the cdf draw, which the buffered half does not shift
    rnd = random.Random(2)
    edges = [1, 2, 3, 7, 2**31 - 1, 2**31, 3 * 2**29, 2**31 + 1, 2**32 - 1]
    for seed in _seeds(1000, 3):
        ns = [rnd.choice(edges), rnd.randint(1, 2**31), rnd.randint(1, 1000)]
        generator, raw = np.random.default_rng(seed), _pcg64(seed)
        halves = _halves(raw)
        assert [_integers(halves, n) for n in ns] == [int(generator.integers(n)) for n in ns]
        assert (next(raw) >> 11) * 2.0**-53 == generator.random()


def test_kmeanspp_draws_are_default_rngs():
    # the first seed by integers(n) over the records, each later one by choice(n, p=...)
    rnd = random.Random(4)
    for seed in _seeds(300, 5):
        points = _random_points(rnd, rnd.randint(1, 40), spread=rnd.randint(1, 4))
        data = np.asarray(points)
        k = rnd.randint(1, len(np.unique(data, axis=0)))
        vectors, rank, _ = distinct_rows(data)
        try:
            expected = per_point_kmeanspp_init(data, k, np.random.default_rng(seed))
        except ConsistencyError:
            with pytest.raises(ConsistencyError):
                _kmeanspp_init(vectors, rank, np.arange(len(rank)), k, seed)
            continue
        centroids = _kmeanspp_init(vectors, rank, np.arange(len(rank)), k, seed)
        assert np.array_equal(centroids, expected)


@pytest.mark.parametrize(
    "seed, bounded, uniform",
    [
        (0, [8, 1367864807, 3], 0.04097352393619469),
        (1, [4, 1099128569, 5], 0.14415961271963373),
        (12345, [6, 488200390, 5], 0.7973654573327341),
        (2**63 + 5, [8, 1031292740, 1], 0.6417306338738085),
    ],
)
def test_pinned_draws(seed, bounded, uniform):
    # integers(10), integers(2**31), integers(7), then random(), as numpy 2.4 draws them
    raw = _pcg64(seed)
    halves = _halves(raw)
    assert [_integers(halves, n) for n in (10, 2**31, 7)] == bounded
    assert (next(raw) >> 11) * 2.0**-53 == uniform


def test_pinned_raw_outputs():
    assert list(islice(_pcg64(0), 3)) == [
        11749869230777074271,
        4976686463289251617,
        755828109848996024,
    ]
    assert list(islice(_pcg64(2**64 - 1), 3)) == [
        12544278110101001871,
        15593249672699323225,
        136562751618339402,
    ]


@pytest.mark.parametrize(
    "seed, chosen",
    [
        (0, [34, 4, 13, 9]),
        (1, [18, 39, 2, 34]),
        (12345, [27, 4, 38, 21]),
        (2**63 + 5, [32, 20, 9, 2]),
    ],
)
def test_pinned_kmeanspp_seeds(seed, chosen):
    # the records k-means++ picks, in order, among 40 distinct points x**1.5
    vectors = np.arange(40, dtype=float).reshape(-1, 1) ** 1.5
    centroids = _kmeanspp_init(vectors, np.arange(40), np.arange(40), 4, seed)
    assert centroids.tolist() == vectors[chosen].tolist()
