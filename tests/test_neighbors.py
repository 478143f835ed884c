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
from qcalib.metrics import default_tau_grid
from qcalib.quantile import KernelConfig, QuantileEstimator, _left_quantile_ranks
from qcalib.reference import sorted_left_quantile
from qcalib.regressors import FittedRegressor

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
