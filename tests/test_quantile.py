import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalib import neighbors, quantile
from qcalib.metrics import TauGrid, default_tau_grid, pinball_loss
from qcalib.quantile import (
    BandwidthSearch,
    KernelConfig,
    QuantileEstimator,
    bandwidth_cv_scores,
    select_bandwidth,
)
from qcalib.reference import pinball_argmin_scan, sorted_left_quantile
from qcalib.synthetic import GeneratorSpec, generate


def flat_estimator(values, bandwidth=math.inf, min_neighbors=1):
    """All points at the origin, so every query sees every value."""
    values = np.asarray(values, dtype=float)
    pts = np.zeros((values.shape[0], 1))
    return QuantileEstimator.fit(pts, values, KernelConfig(bandwidth, min_neighbors))


class TestLeftQuantile:
    def test_three_values(self):
        est = flat_estimator([1.0, 2.0, 3.0])
        assert est.predict_quantile([0.0], 0.5) == 2.0
        assert est.predict_quantile([0.0], 1.0 / 3.0) == 1.0
        assert est.predict_quantile([0.0], 0.9) == 3.0

    def test_batch_matches_scalar_path(self):
        est = flat_estimator([1.0, 2.0, 3.0])
        out = est.predict_quantile_batch(np.zeros((1, 1)), [1.0 / 3.0, 0.5, 0.9])
        assert out.tolist() == [[1.0, 2.0, 3.0]]

    def test_tie_goes_to_smallest(self):
        est = flat_estimator([0.0, 10.0])
        assert est.predict_quantile([0.0], 0.5) == 0.0

    def test_exact_decimal_rank(self):
        # rank must be 7 of 50 at tau=0.14 even though 0.14 * 50 rounds up
        est = flat_estimator(np.arange(50.0))
        assert est.predict_quantile([0.0], 0.14) == 6.0

    def test_value_order_irrelevant(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=9)
        est1 = flat_estimator(vals)
        est2 = flat_estimator(np.sort(vals)[::-1].copy())
        for tau in (0.1, 0.5, 0.77):
            assert est1.predict_quantile([0.0], tau) == est2.predict_quantile([0.0], tau)


class TestNeighborhood:
    def test_inclusive_boundary(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        est = QuantileEstimator.fit(pts, [1.0, 2.0, 3.0], KernelConfig(1.0))
        nb = est.neighborhood([0.0])
        assert nb.indices.tolist() == [0, 1]  # distance exactly 1 is inside
        assert nb.effective_h == 1.0

    def test_zero_bandwidth_keeps_exact_matches(self):
        pts = np.array([[0.0], [0.0], [1.0]])
        est = QuantileEstimator.fit(pts, [5.0, 6.0, 7.0], KernelConfig(0.0))
        nb = est.neighborhood([0.0])
        assert nb.indices.tolist() == [0, 1]

    def test_widens_to_min_neighbors(self):
        pts = np.array([[0.0], [3.0], [5.0]])
        est = QuantileEstimator.fit(pts, [1.0, 2.0, 3.0], KernelConfig(0.5, min_neighbors=2))
        nb = est.neighborhood([10.0])
        # nearest two are at distances 5 and 7; radius widens to 7
        assert nb.effective_h == 7.0
        assert nb.indices.tolist() == [1, 2]

    def test_min_neighbors_capped_at_sample_size(self):
        pts = np.array([[0.0], [1.0]])
        est = QuantileEstimator.fit(pts, [1.0, 2.0], KernelConfig(0.1, min_neighbors=10))
        nb = est.neighborhood([5.0])
        assert nb.indices.tolist() == [0, 1]

    def test_infinite_bandwidth_sees_everything(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(20, 3))
        est = QuantileEstimator.fit(pts, rng.normal(size=20), KernelConfig(math.inf))
        nb = est.neighborhood(rng.normal(size=3))
        assert nb.indices.shape[0] == 20

    def test_local_neighborhoods_differ(self):
        pts = np.array([[0.0], [0.1], [5.0], [5.1]])
        vals = np.array([1.0, 2.0, 30.0, 40.0])
        est = QuantileEstimator.fit(pts, vals, KernelConfig(1.0))
        assert est.predict_quantile([0.0], 0.9) == 2.0
        assert est.predict_quantile([5.0], 0.9) == 40.0


class TestAgainstReferences:
    def test_matches_both_references_everywhere(self):
        # every grid level, many random neighborhoods, exact equality
        rng = np.random.default_rng(42)
        grid = np.arange(1, 100) / 100.0
        for _ in range(40):
            m = int(rng.integers(1, 30))
            vals = rng.normal(0.0, 3.0, m)
            est = flat_estimator(vals)
            batch = est.predict_quantile_batch(np.zeros((1, 1)), grid)[0]
            for j, tau in enumerate(grid):
                lhs = est.predict_quantile([0.0], tau)
                assert lhs == sorted_left_quantile(vals, tau)
                assert lhs == pinball_argmin_scan(vals, tau).value
                assert lhs == batch[j]

    def test_batch_equals_scalar_on_real_neighborhoods(self):
        data = generate(GeneratorSpec("sine_hetero", 120, seed=5))
        est = QuantileEstimator.fit(data.features, data.target, KernelConfig(1.5))
        taus = np.array([0.05, 0.3, 0.5, 0.9])
        queries = data.features[:25]
        batch = est.predict_quantile_batch(queries, taus)
        for i, q in enumerate(queries):
            for j, tau in enumerate(taus):
                assert batch[i, j] == est.predict_quantile(q, tau)


class TestValidation:
    def test_kernel_config_bounds(self):
        with pytest.raises(ValueError):
            KernelConfig(-1.0)
        with pytest.raises(ValueError):
            KernelConfig(float("nan"))
        with pytest.raises(ValueError):
            KernelConfig(1.0, min_neighbors=0)

    def test_estimator_input_checks(self):
        with pytest.raises(ValueError):
            QuantileEstimator.fit(np.zeros((2, 1)), [1.0], KernelConfig(1.0))
        with pytest.raises(ValueError):
            QuantileEstimator.fit(np.array([[np.nan]]), [1.0], KernelConfig(1.0))
        est = flat_estimator([1.0, 2.0])
        with pytest.raises(ValueError):
            est.predict_quantile([0.0], 0.0)
        with pytest.raises(ValueError):
            est.predict_quantile([0.0, 0.0], 0.5)  # wrong width

    def test_batch_levels_must_increase(self):
        est = flat_estimator([1.0, 2.0])
        with pytest.raises(ValueError):
            est.predict_quantile_batch(np.zeros((1, 1)), [0.5, 0.5])

    def test_search_validation(self):
        with pytest.raises(ValueError):
            BandwidthSearch(folds=1)
        with pytest.raises(ValueError):
            BandwidthSearch(candidates=())
        with pytest.raises(ValueError):
            BandwidthSearch(candidates=(1.0, 0.5))
        with pytest.raises(ValueError):
            BandwidthSearch(candidates=(0.0, 1.0))
        with pytest.raises(ValueError):
            BandwidthSearch(lipschitz_hint=-1.0)


class TestBandwidthSelection:
    def test_two_fold_cv_by_hand(self):
        # 4 points on a line, 2 folds, single level 0.5. With the seed-0
        # permutation of 4 known, reproduce the fold losses with plain loops.
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        vals = np.array([0.0, 1.0, 4.0, 9.0])
        search = BandwidthSearch(
            candidates=(0.5, 1.0, 3.5), folds=2, tau_grid=TauGrid([0.5]), seed=0
        )
        cands, scores = bandwidth_cv_scores(pts, vals, search)
        assert cands.tolist() == [0.5, 1.0, 3.5]

        perm = np.random.default_rng(0).permutation(4)
        folds = np.array_split(perm, 2)
        for ci, h in enumerate(cands):
            fold_losses = []
            for held in folds:
                mask = np.ones(4, dtype=bool)
                mask[held] = False
                train_p, train_v = pts[mask], vals[mask]
                losses = []
                for q in held:
                    d = np.abs(train_p[:, 0] - pts[q, 0])
                    inside = d <= h
                    if not inside.any():
                        inside = d <= d.min()
                    pred = sorted_left_quantile(train_v[inside], 0.5)
                    losses.append(pinball_loss(pred, vals[q], 0.5))
                fold_losses.append(float(np.mean(losses)))
            assert scores[ci] == pytest.approx(np.mean(fold_losses), abs=1e-15)

    def test_tie_prefers_larger_candidate(self):
        # both bandwidths yield identical neighborhoods on clustered data,
        # so their CV scores tie exactly and the larger must win
        pts = np.array([[0.0], [0.0], [0.0], [10.0], [10.0], [10.0]])
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        search = BandwidthSearch(candidates=(0.5, 1.0), folds=3, seed=2)
        cands, scores = bandwidth_cv_scores(pts, vals, search)
        assert scores[0] == scores[1]
        assert select_bandwidth(pts, vals, search) == 1.0

    def test_default_candidates_from_pairwise_distances(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 2))
        sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        iu = np.triu_indices(50, k=1)
        dists = np.sqrt(sq[iu])
        expect = np.unique(np.quantile(dists[dists > 0], (0.05, 0.1, 0.2, 0.4, 0.6, 0.8)))
        search = BandwidthSearch(folds=5, seed=3)
        cands, _ = bandwidth_cv_scores(pts, rng.normal(size=50), search)
        np.testing.assert_allclose(cands, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 8, 20])
    def test_repeated_rows_leave_no_spurious_distances(self, d):
        # duplicate rows are exactly 0 apart and drop out of the grid; a Gram
        # shortcut (|a|^2 + |b|^2 - 2ab) would turn some of them into ~1e-7
        rng = np.random.default_rng(d)
        distinct = rng.normal(size=(300, d))
        pts = distinct[rng.integers(0, 300, size=1500)]
        # sqrt(((p[:, None] - p[None]) ** 2).sum(axis=2))[triu_indices(1500, 1)], row by row
        rows = [np.sqrt(((pts[i + 1 :] - pts[i]) ** 2).sum(axis=1)) for i in range(1500)]
        brute = np.concatenate(rows)
        expect = np.unique(np.quantile(brute[brute > 0], quantile._DISTANCE_QUANTILES))
        got = quantile._resolve_candidates(pts, BandwidthSearch())
        assert got.tobytes() == expect.tobytes()

    def test_lipschitz_hint_appends_rate_candidate(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(30, 2))
        vals = rng.normal(size=30)
        lip = 2.0
        rate = lip ** (2.0 / 4.0) * 30 ** (-1.0 / 4.0)
        search = BandwidthSearch(candidates=(0.1, 5.0), lipschitz_hint=lip, seed=0)
        cands, _ = bandwidth_cv_scores(pts, vals, search)
        assert cands.tolist() == sorted([0.1, 5.0, rate])

    def test_non_finite_sample_rejected(self):
        pts = np.arange(10.0)[:, None]
        pts[3, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            bandwidth_cv_scores(pts, np.arange(10.0), BandwidthSearch(candidates=(1.0,)))

    def test_identical_points_reject_default_grid(self):
        pts = np.zeros((10, 1))
        with pytest.raises(ValueError, match="pairwise distances"):
            bandwidth_cv_scores(pts, np.arange(10.0), BandwidthSearch())

    def test_sine_data_prefers_local_bandwidth(self):
        # strong heteroscedasticity: a huge bandwidth erases the signal, so
        # CV must land on something clearly below the data diameter
        wins = 0
        for seed in range(5):
            data = generate(GeneratorSpec("sine_hetero", 400, seed=seed))
            h = select_bandwidth(
                data.features,
                data.target - data.target.mean(),
                BandwidthSearch(seed=seed),
            )
            if h <= 7.5:  # half the support width
                wins += 1
        assert wins >= 4


def refit_cv_scores(points, values, search):
    """Bandwidth CV as a fresh estimator per (candidate, fold): the oracle
    for the one-distance-pass-per-fold sweep of ``bandwidth_cv_scores``."""
    n = values.shape[0]
    grid = search.tau_grid or default_tau_grid()
    candidates = quantile._resolve_candidates(points, search)
    folds = quantile._cv_folds(n, search.folds, search.seed)
    scores = np.empty(candidates.shape[0])
    for ci, h in enumerate(candidates):
        fold_losses = []
        for held_out in folds:
            mask = np.ones(n, dtype=bool)
            mask[held_out] = False
            est = QuantileEstimator.fit(points[mask], values[mask], KernelConfig(float(h), 1))
            preds = est.predict_quantile_batch(points[held_out], grid)
            loss = pinball_loss(preds, values[held_out][:, None], grid.levels[None, :])
            fold_losses.append(float(loss.mean()))
        scores[ci] = float(np.mean(fold_losses))
    return candidates, scores


lattice = st.integers(min_value=-3, max_value=3).map(lambda k: k / 1000)


@st.composite
def cv_samples(draw):
    """(points, values, folds) on a coarse lattice: duplicate points, tied
    values, and at least two distinct points so the default grid exists."""
    d = draw(st.integers(1, 3))
    folds = draw(st.integers(2, 5))
    n = draw(st.integers(3 * folds, 30))
    rows = st.lists(lattice, min_size=d, max_size=d)
    points = np.array(draw(st.lists(rows, min_size=n - 2, max_size=n - 2)))
    shifted = points[:1].copy()
    shifted[0, 0] += 0.005
    points = np.vstack([points, points[:1], shifted])
    values = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    return points, values, folds


def assert_sweep_equals_refits(points, values, search):
    got = bandwidth_cv_scores(points, values, search)
    want = refit_cv_scores(points, values, search)
    for g, w in zip(got, want):
        assert np.array_equal(g, w) and g.tobytes() == w.tobytes()


class TestOnePassSweep:
    @settings(max_examples=60, deadline=None)
    @given(cv_samples(), st.integers(0, 3))
    def test_candidates_below_every_distance(self, sample, seed):
        # the lattice's smallest nonzero distance is 0.001, so every query
        # without an exact duplicate among the kept points widens
        points, values, folds = sample
        search = BandwidthSearch(candidates=(1e-5, 5e-4), folds=folds, seed=seed)
        assert_sweep_equals_refits(points, values, search)

    @settings(max_examples=60, deadline=None)
    @given(cv_samples(), st.integers(0, 3))
    def test_default_grid(self, sample, seed):
        points, values, folds = sample
        search = BandwidthSearch(folds=folds, seed=seed, tau_grid=TauGrid([0.1, 1 / 3, 0.5, 0.9]))
        assert_sweep_equals_refits(points, values, search)

    @settings(max_examples=60, deadline=None)
    @given(cv_samples(), st.integers(0, 3))
    def test_folds_span_several_blocks(self, sample, seed):
        points, values, folds = sample
        n, d = points.shape
        largest = -(-n // folds)
        # a row count that splits the largest fold into blocks, the last partial
        rows = next(r for r in range(2, largest) if largest % r)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "_BLOCK_BUDGET", rows * (n - largest) * d)
            assert_sweep_equals_refits(points, values, BandwidthSearch(folds=folds, seed=seed))


def test_cv_makes_one_distance_pass_per_fold(monkeypatch):
    passes = []
    inner = neighbors._distance_blocks

    def counted(queries, points):
        passes.append(queries.shape[0])
        return inner(queries, points)

    def no_estimator(self):
        raise AssertionError("bandwidth CV constructed a QuantileEstimator")

    monkeypatch.setattr(neighbors, "_distance_blocks", counted)
    monkeypatch.setattr(QuantileEstimator, "__post_init__", no_estimator)
    rng = np.random.default_rng(0)
    cands, _ = bandwidth_cv_scores(
        rng.normal(size=(200, 3)), rng.normal(size=200), BandwidthSearch(seed=0)
    )
    assert cands.shape[0] == 6
    assert passes == [40] * 5  # one pass per fold, not one per (candidate, fold)


def test_one_distance_block_alive_at_a_time(monkeypatch):
    # a block still bound to a loop variable while the kernel builds the
    # next one doubles the peak; both the estimator and CV drop it first
    points = np.linspace(0.0, 3.0, 3000)[:, None]
    values = np.sin(points[:, 0] * 7.0)
    rows = 300
    monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", rows * 1500)
    block_bytes = rows * 1500 * 8
    # radii that hold a few points each, so no row widens (widening copies rows)
    est = QuantileEstimator.fit(points[::2], values[::2], KernelConfig(0.0011))
    search = BandwidthSearch(candidates=(0.005, 0.01), folds=2, tau_grid=TauGrid([0.5]))
    for run in (
        lambda: est.predict_quantile_batch(points[1::2], [0.5]),
        lambda: bandwidth_cv_scores(points, values, search),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block_bytes < peak < 1.5 * block_bytes
