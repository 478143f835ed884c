"""The blocked neighbor kernel against plain numpy brute force.

Coordinates are drawn from a coarse lattice (integers / 1000) so that
duplicate points and equidistant ties are common, and a duplicate and a
mirror image of the first point are added to every sample so that both
occur. The block budget is shrunk so every call splits its queries into
several blocks, the last one partial.
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
            got_idx = neighbors.k_nearest(queries, points, k)
            got = model.predict(queries)
            for i, q in enumerate(queries):
                want_idx = np.argsort(distance_row(points, q), kind="stable")[:k]
                assert got_idx[i].tolist() == want_idx.tolist()
                assert got[i] == values[want_idx].mean()


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
        for start, block in neighbors._distance_blocks(queries, stored):
            got[start : start + block.shape[0]] = block
            starts.append(start)
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


def test_stored_points_are_read_without_a_copy(tmp_path, monkeypatch):
    # the kernel reads coordinate rows of the points' transpose; every caller
    # that keeps points stores them column-major so that is a view, the
    # estimator's verbatim points that neighborhood scans included
    seen = []
    inner = neighbors._distance_blocks

    def recorded(queries, points):
        seen.append(points)
        return inner(queries, points)

    monkeypatch.setattr(neighbors, "_distance_blocks", recorded)
    rng = np.random.default_rng(0)
    features = rng.normal(size=(60, 3))
    data = Dataset(features, features.sum(axis=1) + rng.normal(size=60), ("a", "b", "c"))
    cfg = CalibrationConfig(RegressorSpec("knn", knn_k=3), kernel=KernelConfig(0.9))
    save_model(calibrate(data, cfg), tmp_path / "model.json")
    model = load_model(tmp_path / "model.json")
    seen.clear()
    model.predict_quantile_batch(features[:5], [0.5])
    model.quantile_estimator.neighborhood(np.zeros(3))
    bandwidth_cv_scores(features, data.target, BandwidthSearch(folds=3))
    assert len(seen) == 3 + 3  # kNN, the estimator twice, one pass per CV fold
    assert seen[0] is model.regressor.train_features
    assert seen[1] is model.quantile_estimator._points_by_value
    assert seen[2] is model.quantile_estimator.points
    for points in seen:
        assert points.flags.f_contiguous
        assert np.shares_memory(np.ascontiguousarray(points.T), points)
