"""The blocked neighbor kernel against plain numpy brute force.

Coordinates are drawn from a coarse lattice (integers / 1000) so that
duplicate points and equidistant ties are common, and a duplicate and a
mirror image of the first point are added to every sample so that both
occur. The block budget is shrunk so every call splits its queries into
several blocks, the last one partial. Each kNN sample runs through both
scans: every block over all stored points, and every block over its slabs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalib import neighbors
from qcalib.calibration import CalibrationConfig, calibrate, load_model, save_model
from qcalib.data import Dataset
from qcalib.metrics import default_tau_grid
from qcalib.quantile import (
    BandwidthSearch,
    KernelConfig,
    QuantileEstimator,
    _left_quantile_ranks,
    bandwidth_cv_scores,
)
from qcalib.reference import sorted_left_quantile
from qcalib.regressors import FittedRegressor, RegressorSpec

ROWS_PER_BLOCK = 3
# _FULL_SCAN_SHARE values: no block takes a slab, or every block does
SCANS = {"full": -1.0, "slab": 1.0}
LEVELS = (0.01, 0.14, 1.0 / 3.0, 0.5, 0.77, 0.99)

coordinate = st.integers(min_value=-4, max_value=4).map(lambda k: k / 1000)


@st.composite
def samples(draw):
    """(points, values, queries): ties, duplicates, a partial last block."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    rows = st.lists(coordinate, min_size=d, max_size=d)
    points = np.array(draw(st.lists(rows, min_size=n, max_size=n)))
    # a duplicate of the first point, and its mirror through the origin,
    # which the all-zero query sees at exactly the same distance
    points = np.vstack([points, points[:1], -points[:1]])
    values = np.array(draw(st.lists(coordinate, min_size=len(points), max_size=len(points))))
    n_queries = draw(st.integers(4, 14).filter(lambda q: q % ROWS_PER_BLOCK))
    queries = draw(st.lists(rows, min_size=n_queries - 1, max_size=n_queries - 1))
    queries = np.array([[0.0] * d] + queries)
    return points, values, queries


def small_blocks(mp, points):
    mp.setattr(neighbors, "_BLOCK_BUDGET", ROWS_PER_BLOCK * points.size)


def distance_row(points, q):
    return np.sqrt(((points - q) ** 2).sum(axis=1))


@settings(max_examples=150, deadline=None)
@given(samples())
def test_knn_equals_stable_argsort_for_every_k(sample):
    points, values, queries = sample
    n, d = points.shape
    with pytest.MonkeyPatch.context() as mp:
        small_blocks(mp, points)
        for k in range(1, n + 1):
            model = FittedRegressor(
                kind="knn", input_dim=d, train_features=points, train_targets=values, knn_k=k
            )
            wants = [np.argsort(distance_row(points, q), kind="stable")[:k] for q in queries]
            means = [values[want_idx].mean() for want_idx in wants]
            # batch prediction scans every stored point
            assert model.predict(queries).tolist() == means
            for share in SCANS.values():
                mp.setattr(neighbors, "_FULL_SCAN_SHARE", share)
                got_idx = neighbors.k_nearest(queries, model._store, k, slabs=True)
                assert got_idx.tolist() == [want_idx.tolist() for want_idx in wants]
                assert model._predict(queries, slabs=True).tolist() == means


@settings(max_examples=150, deadline=None)
@given(samples(), st.integers(0, 20), st.integers(1, 16))
def test_ball_quantiles_equal_sorted_scan(sample, radius_index, min_neighbors):
    points, values, queries = sample
    n = points.shape[0]
    # radii taken from actual distances put points exactly on the boundary
    radii = np.unique(distance_row(points, queries[0]))
    bandwidth = float(radii[radius_index % radii.size]) if radius_index < 18 else math.inf
    est = QuantileEstimator.fit(points, values, KernelConfig(bandwidth, min_neighbors))
    with pytest.MonkeyPatch.context() as mp:
        small_blocks(mp, points)
        got = est.predict_quantile_batch(queries, LEVELS)
    k = min(min_neighbors, n)
    for i, q in enumerate(queries):
        dist = distance_row(points, q)
        inside = dist <= bandwidth
        radius = bandwidth
        if inside.sum() < k:
            radius = float(np.partition(dist, k - 1)[k - 1])
            inside = dist <= radius
        hood = est.neighborhood(q)
        assert hood.indices.tolist() == np.flatnonzero(inside).tolist()
        assert hood.effective_h == radius
        for j, tau in enumerate(LEVELS):
            assert got[i, j] == sorted_left_quantile(values[inside], tau)


def test_rank_matches_float_cdf_search_exhaustively():
    # ceil(0.14 * 50) overshoots the rank; ceil(m * tau) undershoots it for
    # the float just above 1/3 at m = 3
    extra = [0.14, 1.0 / 3.0, np.nextafter(1.0 / 3.0, 1.0), 1e-9, 1.0 - 1e-9]
    levels = np.concatenate([default_tau_grid().levels, extra])
    counts = np.arange(1, 5001)
    ranks = _left_quantile_ranks(counts, levels)
    for m in counts:
        want = np.searchsorted(np.arange(1, m + 1, dtype=float) / m, levels, side="left")
        assert ranks[m - 1].tolist() == want.tolist(), m


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 20, 129, 300])
def test_distances_equal_numpy_sum_bitwise(monkeypatch, d):
    # the kernel adds coordinates in numpy's pairwise order for a sum over a
    # contiguous last axis: sequential below 8 terms, 8 accumulators up to
    # 128, halves above; a numpy that sums otherwise fails here
    rng = np.random.default_rng(d)
    points = rng.normal(size=(23, d)) * rng.choice([1e-3, 1.0, 1e3], size=d)
    queries = rng.normal(size=(10, d))
    queries[2] = np.nan
    queries[5, d // 2] = np.inf
    want = np.sqrt(((queries[:, None] - points[None]) ** 2).sum(axis=2))
    pairs = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2))
    monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", 4 * points.size)
    pair_blocks = []
    inner = neighbors._square_sum

    def recorded(queries, cols, lo, hi):
        if (lo, hi) == (0, d):  # a block, not a recursive half
            pair_blocks.append(queries.shape[0])
        return inner(queries, cols, lo, hi)

    for stored in (points, np.asfortranarray(points)):
        got = np.full_like(want, -1.0)
        starts = []
        store = neighbors.KeySortedPoints(stored)
        for rows, block, _ in neighbors._distance_blocks(queries, store):
            got[rows] = block
            starts.append(rows.start)
        assert starts == [0, 4, 8]  # blocks of 4 rows, the last one partial
        assert got.tobytes() == want.tobytes()
        for m in (1, 2, 23):
            with monkeypatch.context() as mp:
                mp.setattr(neighbors, "_square_sum", recorded)
                got_pairs = neighbors.pair_distances(stored[:m])
            want_pairs = pairs[:m, :m][np.triu_indices(m, k=1)]
            assert got_pairs.shape == (m * (m - 1) // 2,)
            assert got_pairs.tobytes() == want_pairs.tobytes()
        # m = 23 went in blocks of 4 rows, the last one partial
        assert pair_blocks[-6:] == [4, 4, 4, 4, 4, 3]


def test_each_sample_builds_one_store(tmp_path, monkeypatch):
    # a KeySortedPoints is the one layout the kernel reads: the kNN regressor
    # and the estimator build theirs at construction, each CV fold builds one,
    # and queries and neighborhoods build none, reading the stores they have
    built, scanned = [], []
    init, scan = neighbors.KeySortedPoints.__init__, neighbors._distance_blocks

    def recorded_init(store, points):
        built.append(store)
        init(store, points)

    def recorded_scan(queries, store, k=0):
        scanned.append(store)
        return scan(queries, store, k)

    monkeypatch.setattr(neighbors.KeySortedPoints, "__init__", recorded_init)
    monkeypatch.setattr(neighbors, "_distance_blocks", recorded_scan)
    rng = np.random.default_rng(0)
    features = rng.normal(size=(60, 3))
    data = Dataset(features, features.sum(axis=1) + rng.normal(size=60), ("a", "b", "c"))
    cfg = CalibrationConfig(RegressorSpec("knn", knn_k=3), kernel=KernelConfig(0.9))
    save_model(calibrate(data, cfg), tmp_path / "model.json")
    built.clear()
    model = load_model(tmp_path / "model.json")
    regressor, estimator = model.regressor, model.quantile_estimator
    assert built == [regressor._store, estimator._store]
    built.clear()
    scanned.clear()
    model.predict_quantile_batch(features[:5], [0.5])
    estimator.neighborhood(np.zeros(3))
    assert built == []
    assert scanned == [regressor._store, estimator._store, estimator._store]
    scanned.clear()
    bandwidth_cv_scores(features, data.target, BandwidthSearch(folds=3))
    assert len(built) == 3
    assert scanned == built  # one distance pass per fold, over its own store
    # each store holds its own contiguous coordinate rows: the kNN rows in
    # file order, the estimator's in value order
    for store in [regressor._store, estimator._store, *built]:
        assert store.cols.flags.c_contiguous
    assert not np.shares_memory(regressor._store.cols, regressor.train_features)
    assert regressor._store.cols.tobytes() == regressor.train_features.T.tobytes()
    by_value = np.argsort(estimator.values, kind="stable")
    assert estimator._order.tobytes() == by_value.tobytes()
    assert estimator._store.cols.tobytes() == estimator.points[by_value].T.tobytes()


def wide_key_sample(n, d, seed):
    """Coordinate 0 spread over [0, 15], the others over [0, 1], as in
    ``sine_hetero`` with nuisance columns: a slab holds a few percent."""
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0.0, 15.0, n), rng.uniform(0.0, 1.0, (n, d - 1))])


def scanned_widths(mp):
    """Record the number of stored points each distance block is summed over."""
    widths = []
    inner = neighbors._square_sum

    def recorded(queries, cols, lo, hi):
        if cols.ndim == 2 and (lo, hi) == (0, cols.shape[0]):  # not a kNN bound window
            widths.append(cols.shape[1])
        return inner(queries, cols, lo, hi)

    mp.setattr(neighbors, "_square_sum", recorded)
    return widths


@pytest.mark.parametrize("d", [1, 3, 5])
def test_residual_pass_scans_slabs_and_matches_the_full_scan(monkeypatch, d):
    # calibrate's kNN residual pass reads key slabs; its residuals, and so
    # the saved model, are those of the full scan bit for bit
    rng = np.random.default_rng(d)
    features = wide_key_sample(3000, d, d)
    data = Dataset(features, np.sin(features[:, 0]) + rng.normal(size=3000), tuple("abcde"[:d]))
    cfg = CalibrationConfig(RegressorSpec("knn", knn_k=20), kernel=KernelConfig(0.3), seed=d)
    got = {}
    for scan in ("slab", "full"):
        with monkeypatch.context() as mp:
            if scan == "full":
                mp.setattr(neighbors, "_FULL_SCAN_SHARE", SCANS["full"])
            widths = scanned_widths(mp)
            model = calibrate(data, cfg)
        n = model.regressor.train_features.shape[0]
        if scan == "slab":  # several blocks, each over fewer than n points
            assert len(widths) >= 2 and max(widths) < n
        else:
            assert set(widths) == {n}
        got[scan] = model.quantile_estimator.values
    assert got["slab"].tobytes() == got["full"].tobytes()


def edge_points():
    """Integer keys 0..20 stored from 20 down to 0, so that a lower index is
    a higher key, and a second coordinate of 0: distances along the lattice
    are exact, so ties at the slab's edge are exact too."""
    keys = np.arange(20.0, -1.0, -1.0)
    return np.column_stack([keys, np.zeros_like(keys)])


EDGE_QUERIES = np.array(
    [[10.0, 0.0], [10.5, 0.0], [0.0, 0.0], [20.0, 0.0], [3.25, 0.0], [7.0, 0.5]]
)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 11, 20, 21])
def test_knn_ties_on_the_slab_edge(monkeypatch, k):
    # one query per block, so each block's slab is its query's own: a slab
    # that loses the point at either end loses a tied k-th neighbor; k = 21
    # is every point, and from k = 11 on 2k exceeds n
    points = edge_points()
    n = points.shape[0]
    store = neighbors.KeySortedPoints(np.asfortranarray(points))
    monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", points.size)
    widths = scanned_widths(monkeypatch)
    got = neighbors.k_nearest(EDGE_QUERIES, store, k, slabs=True)
    for i, q in enumerate(EDGE_QUERIES):
        assert got[i].tolist() == np.argsort(distance_row(points, q), kind="stable")[:k].tolist()
    if 2 * k < n:
        assert min(widths) < n  # a slab, not the whole store


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(finite, min_size=1, max_size=30),
    finite,
    st.integers(0, 29),
    st.sampled_from([-1, 0, 1]),
)
def test_slab_ends_hold_every_key_within_the_kernel_gap(keys, center, edge, step):
    # keys of every magnitude, subnormal to huge; the half-width is one key's
    # own gap, or a neighbouring float, so keys sit exactly on the slab's edge
    keys = np.sort(np.array(keys))
    with np.errstate(over="ignore"):
        gaps = np.sqrt(np.square(center - keys))
        half = gaps[edge % keys.size]
        if step and np.isfinite(half):
            half = max(np.nextafter(half, step * math.inf), 0.0)
        lo, hi = neighbors._slab_ends(keys, np.array([center]), np.array([half]))
    inside = np.flatnonzero(gaps <= half)
    if inside.size:
        assert lo[0] <= inside[0] and inside[-1] < hi[0]
