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
    pair_sums = ((points[:, None] - points[None]) ** 2).sum(axis=2)
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
                got_pairs = neighbors.pair_square_sums(stored[:m])
            want_pairs = pair_sums[:m, :m][np.triu_indices(m, k=1)]
            assert got_pairs.shape == (m * (m - 1) // 2,)
            assert got_pairs.tobytes() == want_pairs.tobytes()
        # m = 23 went in blocks of 4 rows, the last one partial
        assert pair_blocks[-6:] == [4, 4, 4, 4, 4, 3]


def test_each_sample_builds_one_store(tmp_path, monkeypatch):
    # a KeySortedPoints is the one layout the kernel reads: the kNN regressor
    # and the estimator build theirs at construction, the default grid one
    # over its sample, each CV fold one, and queries and neighborhoods build
    # none, reading the stores they have; balls scan through the ball step on
    # either side of the Gram dimension
    built, scanned = [], []
    init = neighbors.KeySortedPoints.__init__
    scan, balls = neighbors._distance_blocks, neighbors.ball_blocks

    def recorded_init(store, points):
        built.append(store)
        init(store, points)

    def recorded_scan(queries, store, k=0):
        scanned.append(store)
        return scan(queries, store, k)

    def recorded_balls(queries, store, radii, min_count):
        scanned.append(store)
        return balls(queries, store, radii, min_count)

    monkeypatch.setattr(neighbors.KeySortedPoints, "__init__", recorded_init)
    monkeypatch.setattr(neighbors, "_distance_blocks", recorded_scan)
    monkeypatch.setattr(neighbors, "ball_blocks", recorded_balls)
    rng = np.random.default_rng(0)
    for d in (3, neighbors._GRAM_MIN_DIM):
        features = rng.normal(size=(60, d))
        names = tuple(f"x{j}" for j in range(d))
        data = Dataset(features, features.sum(axis=1) + rng.normal(size=60), names)
        cfg = CalibrationConfig(RegressorSpec("knn", knn_k=3), kernel=KernelConfig(0.9))
        save_model(calibrate(data, cfg), tmp_path / "model.json")
        built.clear()
        model = load_model(tmp_path / "model.json")
        regressor, estimator = model.regressor, model.quantile_estimator
        assert built == [regressor._store, estimator._store]
        built.clear()
        scanned.clear()
        model.predict_quantile_batch(features[:5], [0.5])
        estimator.neighborhood(np.zeros(d))
        assert built == []
        assert scanned == [regressor._store, estimator._store, estimator._store]
        # the Gram path caches the store's squared norms; the kernel path never reads them
        assert ("norms" in vars(estimator._store)) == (d >= neighbors._GRAM_MIN_DIM)
        scanned.clear()
        bandwidth_cv_scores(features, data.target, BandwidthSearch(folds=3))
        assert len(built) == 4  # the grid's sample, then each fold
        assert scanned == built[1:]  # one distance pass per fold, over its own store
        # each store holds its own contiguous coordinate rows: the kNN rows in
        # file order, the estimator's in value order
        for store in [regressor._store, estimator._store, *built]:
            assert store.cols.flags.c_contiguous
        assert not np.shares_memory(regressor._store.cols, regressor.train_features)
        assert regressor._store.cols.tobytes() == regressor.train_features.T.tobytes()
        by_value = np.argsort(estimator.values, kind="stable")
        assert estimator._order.tobytes() == by_value.tobytes()
        assert estimator._store.cols.tobytes() == estimator.points[by_value].T.tobytes()


GRAM = neighbors._GRAM_MIN_DIM
# integer lattices scaled to thousandths, to near underflow, and to squared
# norms on either side of the Gram path's limit; then shifted by 1e6, where
# cancellation in |q|² + |p|² - 2 q·p fills the band
SCALES = (1.0, 1e-3, 1e-160, 1e150, 1e154)
OFFSETS = (0.0, 1e6, -1e6)


@st.composite
def ball_cases(draw):
    """(points, queries, min_count): lattice points, one duplicated, with d
    on both sides of the Gram dimension and ``min_count`` up to n + 3."""
    d = draw(st.sampled_from([1, GRAM - 1, GRAM, GRAM + 7]))
    n = draw(st.integers(1, 10))
    rows = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    points = np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=float)
    points = np.vstack([points, points[:1]])
    queries = np.array(draw(st.lists(rows, min_size=1, max_size=8)), dtype=float)
    scale, offset = draw(st.sampled_from(SCALES)), draw(st.sampled_from(OFFSETS))
    return points * scale + offset, queries * scale + offset, draw(st.integers(1, n + 4))


def assert_ball_step_equals_full_scan(points, queries, radii, min_count, errors):
    """Every block of the ball step, per radius, joined in row order, equals
    ``block_balls`` over the plain numpy distances, bit for bit; under
    ``errors`` (an errstate), the step raises exactly when that scan does."""
    store = neighbors.KeySortedPoints(points)
    with pytest.MonkeyPatch.context() as mp, np.errstate(**errors):
        mp.setattr(neighbors, "_BLOCK_BUDGET", 3 * points.size)  # blocks of 3 rows
        try:
            dists = np.sqrt(((queries[:, None] - points[None]) ** 2).sum(axis=2))
            want = [neighbors.block_balls(dists, r, min_count) for r in radii]
        except FloatingPointError:
            want = None
        try:
            got = list(neighbors.ball_blocks(queries, store, radii, min_count))
        except FloatingPointError:
            got = None
    assert (got is None) == (want is None)
    if got is None:
        return
    assert [rows.start for rows, i, _ in got if i == 0] == list(range(0, len(queries), 3))
    for i, whole in enumerate(want):
        blocks = [balls for _, j, balls in got if j == i]
        for parts, part_whole in zip(zip(*blocks), whole):
            joined = np.concatenate(parts)
            assert joined.dtype == part_whole.dtype
            assert joined.tobytes() == part_whole.tobytes(), (radii[i], min_count)


@settings(max_examples=300, deadline=None)
@given(
    ball_cases(),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
    st.sampled_from([-1, 0, 1]),
    st.booleans(),
)
def test_ball_step_equals_block_balls_over_the_full_scan(case, picks, step, strict):
    # radii at exact distances of the sample, or the neighbouring float,
    # put pairs on the boundary; 0 and inf are always among them
    points, queries, min_count = case
    with np.errstate(all="ignore"):
        dists = np.sqrt(((queries[:, None] - points[None]) ** 2).sum(axis=2))
    finite = np.unique(dists[np.isfinite(dists)])
    radii = [0.0, math.inf]
    for pick in picks if finite.size else ():
        radius = float(finite[pick % finite.size])
        radii.append(max(float(np.nextafter(radius, step * math.inf)), 0.0) if step else radius)
    errors = {"over": "raise", "invalid": "raise"} if strict else {"all": "ignore"}
    assert_ball_step_equals_full_scan(points, queries, radii, min_count, errors)


@pytest.mark.parametrize("d", [GRAM, 12, 20])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_gram_band_pairs_take_the_kernel(monkeypatch, d, offset):
    # a lattice with many pairs exactly at each radius, one of the sample's
    # distances: the pairs the band cannot decide go through the kernel, one
    # query row per stored point, and the balls still equal the full scan's;
    # at 1e6 the band holds many
    rng = np.random.default_rng(d)
    points = rng.integers(-2, 3, size=(40, d)).astype(float) + offset
    queries = rng.integers(-2, 3, size=(11, d)).astype(float) + offset
    dists = np.unique(np.sqrt(((queries[:, None] - points[None]) ** 2).sum(axis=2)))
    radii = [0.0, *np.quantile(dists, [0.1, 0.3, 0.5], method="lower").tolist(), math.inf]
    refined, grams, inner, gram = [], [], neighbors._distances, neighbors._gram_block

    def recorded(queries, cols):
        if cols.ndim == 3:
            refined.append(cols.shape[1])
        return inner(queries, cols)

    def recorded_gram(queries, store):
        grams.append(gram(queries, store))
        return grams[-1]

    monkeypatch.setattr(neighbors, "_distances", recorded)
    monkeypatch.setattr(neighbors, "_gram_block", recorded_gram)
    for min_count in (1, 3, 41):
        assert_ball_step_equals_full_scan(points, queries, radii, min_count, {})
    assert grams and all(g is not None for g in grams)
    assert sum(refined) > 0


@pytest.mark.parametrize("d", [1, GRAM, 20])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_pair_order_at_every_rank_is_the_sorted_kernel_sums(d, offset):
    # below the Gram dimension the kernel sums and sorts every pair; from it,
    # asking for every rank at once puts every key in a window
    rng = np.random.default_rng(d)
    points = rng.normal(size=(40, d)) + offset
    points[::7] = points[0]  # six copies: 15 zero pairs among the rest
    want = np.sort(neighbors.pair_square_sums(points))
    pairs, zeros, at = neighbors.pair_sum_order(points)
    assert pairs == want.shape[0] and zeros == np.count_nonzero(want == 0.0) == 15
    assert at(np.arange(pairs)).tobytes() == want.tobytes()


def test_huge_coordinates_take_the_kernel_and_raise_there():
    # squared norms at or above the limit send a block to the kernel, which
    # raises where the full scan raises, with its own message: here every
    # norm is finite, but 1e154 - (-1e154) squared is not, and the Gram
    # estimate would only read that pair as out of every ball
    points = np.zeros((4, GRAM))
    points[:, 0] = [-1e154, 1e154, 0.5, 1.0]
    store = neighbors.KeySortedPoints(points)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError, match="overflow encountered in square"):
            list(neighbors.ball_blocks(points, store, [1.0], 1))
        assert neighbors._gram_block(points[2:], store) is None  # the store's norms decide
    assert np.isfinite(store.norms).all()


def recorded_kernel(monkeypatch):
    """Rows per call of the kernel over every stored point, pairs per call
    of the kernel over gathered pairs, and rows per Gram block built."""
    full, pairs, grams = [], [], []
    inner, gram = neighbors._distances, neighbors._gram_block

    def recorded(queries, cols):
        (full if cols.ndim == 2 else pairs).append(queries.shape[0])
        return inner(queries, cols)

    def recorded_gram(queries, store):
        grams.append(queries.shape[0])
        return gram(queries, store)

    monkeypatch.setattr(neighbors, "_distances", recorded)
    monkeypatch.setattr(neighbors, "_gram_block", recorded_gram)
    return full, pairs, grams


def test_gram_path_measures_a_widened_row_once_whatever_the_radii(monkeypatch):
    # every row widens at every radius; the kernel measures each row once
    rng = np.random.default_rng(0)
    points, queries = rng.normal(size=(30, GRAM)), rng.normal(size=(10, GRAM))
    radii = [0.0, 1e-3, 1e-2]
    full, _, grams = recorded_kernel(monkeypatch)
    list(neighbors.ball_blocks(queries, neighbors.KeySortedPoints(points), radii, 3))
    assert grams == [10] and full == [10]  # one block: each row once, not once per radius
    del full[:], grams[:]
    # in blocks of 3 rows, the first block's rows all widen, so the later
    # blocks skip the Gram block
    assert_ball_step_equals_full_scan(points, queries, radii, 3, {})
    assert grams == [3] and full == [3, 3, 3, 1]


def test_store_whose_rows_widen_skips_the_gram_block(monkeypatch):
    # a lone query that widens pays the Gram block and the kernel; after it
    # the store's queries take the kernel alone, until one does not widen
    d = neighbors._GRAM_FEW_DIM  # where a lone query takes the Gram path
    rng = np.random.default_rng(1)
    points = np.vstack([rng.normal(size=(40, d)), np.zeros((3, d))])
    est = QuantileEstimator.fit(points, rng.normal(size=43), KernelConfig(0.0, 3))
    _, _, grams = recorded_kernel(monkeypatch)
    seen = []
    for x in (rng.normal(size=d), rng.normal(size=d), np.zeros(d), rng.normal(size=d)):
        del grams[:]
        widened = est.neighborhood(x).effective_h > 0
        seen.append((widened, bool(grams), est._store.widening))
    # (the query widened, a Gram block was built, the store's next block skips it)
    yes, no = True, False
    assert seen == [(yes, yes, yes), (yes, no, yes), (no, no, no), (yes, yes, yes)]


def test_store_memory_changes_no_answer(monkeypatch):
    # the store's widening memory flips between calls and between blocks of
    # one batch; every answer equals the same call on a fresh estimator
    d = neighbors._GRAM_FEW_DIM  # where a lone query takes the Gram path
    rng = np.random.default_rng(4)
    points = np.vstack([rng.normal(size=(60, d)), np.zeros((3, d))])
    values = rng.normal(size=63)
    kernel, levels = KernelConfig(0.0, 3), [0.1, 0.5, 0.9]
    est = QuantileEstimator.fit(points, values, kernel)
    memory, inner = [], neighbors.ball_blocks

    def recorded(queries, store, radii, min_count):
        for item in inner(queries, store, radii, min_count):
            if store is est._store:
                memory.append(bool(store.widening))
            yield item

    monkeypatch.setattr(neighbors, "ball_blocks", recorded)

    def same_on_fresh(call, x):
        warm, fresh = call(est, x), call(QuantileEstimator.fit(points, values, kernel), x)
        if isinstance(warm, np.ndarray):
            assert warm.tobytes() == fresh.tobytes()
        else:  # a neighborhood
            assert warm.indices.tobytes() == fresh.indices.tobytes()
            assert warm.effective_h == fresh.effective_h

    quantiles = lambda e, x: e.predict_quantile_batch(x, levels)
    neighborhood = lambda e, x: e.neighborhood(x)
    origin = np.zeros(d)  # three stored copies: its ball of radius 0 does not widen
    for call, x in [
        (quantiles, rng.normal(size=(1, d))),
        (neighborhood, rng.normal(size=d)),
        (quantiles, origin[None]),
        (neighborhood, rng.normal(size=d)),
        (neighborhood, origin),
        (quantiles, rng.normal(size=(1, d))),
    ]:
        same_on_fresh(call, x)
    # blocks of 3 rows whose majority widens, or not, in turn
    widens = [0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1]
    batch = np.array([rng.normal(size=d) if w else origin for w in widens])
    monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", 3 * points.size)
    same_on_fresh(quantiles, batch)
    flips = set(zip(memory, memory[1:]))
    assert {(True, False), (False, True)} <= flips, memory
    assert len(memory) == 6 + 7


def test_blocks_of_few_rows_take_the_gram_block_from_more_coordinates(monkeypatch):
    # one or two rows repay a Gram block only from _GRAM_FEW_DIM coordinates
    # on, three or more from _GRAM_MIN_DIM on
    rng = np.random.default_rng(3)
    full, _, grams = recorded_kernel(monkeypatch)
    for d in (GRAM, neighbors._GRAM_FEW_DIM - 1, neighbors._GRAM_FEW_DIM):
        points = rng.normal(size=(30, d))
        for rows in (1, 2, 3):
            del full[:], grams[:]
            store = neighbors.KeySortedPoints(points)
            list(neighbors.ball_blocks(rng.normal(size=(rows, d)), store, [9.0], 1))
            gram = rows >= neighbors._GRAM_MIN_ROWS or d >= neighbors._GRAM_FEW_DIM
            assert (grams, full) == (([rows], []) if gram else ([], [rows])), (d, rows)


def test_infinite_and_huge_radii(monkeypatch):
    # an infinite radius holds every pair of a Gram block without the kernel;
    # a finite radius past 2**499 sends the whole call to the kernel
    rng = np.random.default_rng(2)
    points, queries = rng.normal(size=(30, GRAM)), rng.normal(size=(6, GRAM))
    full, pairs, grams = recorded_kernel(monkeypatch)
    assert_ball_step_equals_full_scan(points, queries, [math.inf], 1, {})
    assert grams == [3, 3] and full == pairs == []
    for radius, gram in ((2.0**499, True), (np.nextafter(2.0**499, math.inf), False)):
        del full[:], grams[:]
        assert_ball_step_equals_full_scan(points, queries, [5.0, radius], 1, {})
        assert bool(grams) == gram and bool(full) != gram


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
