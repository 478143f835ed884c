from fractions import Fraction

import numpy as np
import pytest

from qcalib.metrics import (
    AgceConfig,
    TauGrid,
    _interval_levels,
    agce,
    check_score,
    default_tau_grid,
    evaluate_predictions,
    group_coverage,
    mace,
    observed_level,
    observed_levels,
    pinball_loss,
    report_to_dict,
    subsample_indices,
    write_tau_curve_csv,
)


class TestPinball:
    def test_scalar_cases(self):
        assert pinball_loss(1.0, 1.0, 0.3) == 0.0
        # overprediction by 2 at tau=0.3 costs (1-0.3)*2
        assert pinball_loss(3.0, 1.0, 0.3) == pytest.approx(1.4)
        # underprediction by 2 costs 0.3*2
        assert pinball_loss(1.0, 3.0, 0.3) == pytest.approx(0.6)

    def test_broadcasts(self):
        taus = np.array([0.25, 0.75])
        out = pinball_loss(np.zeros((2, 2)), np.ones((2, 1)), taus[None, :])
        np.testing.assert_allclose(out, [[0.25, 0.75], [0.25, 0.75]])

    def test_tau_bounds(self):
        with pytest.raises(ValueError):
            pinball_loss(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            pinball_loss(0.0, 0.0, 1.0)


class TestObservedLevel:
    def test_inclusive_comparison(self):
        assert observed_level([2.0, 2.0], [2.0, 3.0]) == 0.5
        assert observed_level([2.0], [2.0]) == 1.0

    def test_matrix_levels(self):
        grid = TauGrid([0.25, 0.5, 0.75])
        preds = np.array([[1.5, 1.5, 1.5], [1.5, 1.5, 1.5]])
        out = observed_levels(preds, [1.0, 2.0], grid)
        np.testing.assert_array_equal(out, [0.5, 0.5, 0.5])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.normal(size=30)
        tgts = rng.normal(size=30)
        perm = rng.permutation(30)
        assert observed_level(preds, tgts) == observed_level(preds[perm], tgts[perm])


class TestMace:
    def test_two_row_hand_example(self):
        # observed level is 0.5 at every grid point, so the error is the
        # mean distance of the grid to 0.5: (0.25 + 0 + 0.25)/3 = 1/6
        grid = TauGrid([0.25, 0.5, 0.75])
        preds = np.full((2, 3), 1.5)
        assert mace(preds, [1.0, 2.0], grid) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_always_above_target(self):
        grid = default_tau_grid()
        preds = np.full((1, 99), 10.0)
        expect = float(np.mean(1.0 - grid.levels))
        assert mace(preds, [0.0], grid) == pytest.approx(expect, abs=1e-15)

    def test_perfectly_calibrated_sample(self):
        # targets 1..100, predictions at level tau equal to the left
        # tau-quantile of the empirical distribution: the covered count at
        # grid level j/100 is exactly j, so observed level == tau exactly
        # (numpy's inverted_cdf would overshoot the rank at e.g. tau=0.07)
        from qcalib.reference import sorted_left_quantile

        tgts = np.arange(1.0, 101.0)
        grid = default_tau_grid()
        row = [sorted_left_quantile(tgts, t) for t in grid.levels]
        preds = np.tile(row, (100, 1))
        assert mace(preds, tgts, grid) == 0.0


class TestCheckScore:
    def test_single_level_hand_example(self):
        grid = TauGrid([0.5])
        # pinball(1 | 0) = .5, pinball(1 | 2) = .5, mean = 0.5
        assert check_score(np.array([[1.0], [1.0]]), [0.0, 2.0], grid) == 0.5

    def test_equals_mean_of_pinball_matrix(self):
        rng = np.random.default_rng(1)
        grid = TauGrid([0.2, 0.5, 0.8])
        preds = np.sort(rng.normal(size=(40, 3)), axis=1)
        tgts = rng.normal(size=40)
        direct = np.mean(
            [
                [float(pinball_loss(preds[i, j], tgts[i], t)) for j, t in enumerate(grid.levels)]
                for i in range(40)
            ]
        )
        assert check_score(preds, tgts, grid) == pytest.approx(direct, abs=1e-15)


class TestAgce:
    def test_subsample_sizing(self):
        cfg = AgceConfig(groups=3, group_fraction=0.1, seed=0)
        groups = subsample_indices(1000, cfg)
        assert len(groups) == 3
        assert all(g.shape[0] == 100 for g in groups)
        # floor at 50 rows, capped at n
        assert subsample_indices(200, cfg)[0].shape[0] == 50
        assert subsample_indices(30, cfg)[0].shape[0] == 30

    def test_without_replacement_has_no_duplicates(self):
        cfg = AgceConfig(groups=5, group_fraction=0.5, with_replacement=False, seed=1)
        for g in subsample_indices(100, cfg):
            assert len(set(g.tolist())) == g.shape[0]

    def test_full_single_group_equals_mace(self):
        # one group of the whole sample without replacement is just MACE
        rng = np.random.default_rng(2)
        grid = default_tau_grid()
        preds = np.sort(rng.normal(size=(60, 99)), axis=1)
        tgts = rng.normal(size=60)
        cfg = AgceConfig(groups=1, group_fraction=1.0, with_replacement=False, seed=0)
        assert agce(preds, tgts, grid, cfg) == mace(preds, tgts, grid)

    def test_at_least_mace_of_some_subsample(self):
        rng = np.random.default_rng(3)
        grid = default_tau_grid()
        preds = np.sort(rng.normal(size=(300, 99)), axis=1)
        tgts = rng.normal(size=300)
        cfg = AgceConfig(groups=10, seed=4)
        val = agce(preds, tgts, grid, cfg)
        per_group = [
            mace(preds[g], tgts[g], grid) for g in subsample_indices(300, cfg)
        ]
        assert val == max(per_group)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        grid = default_tau_grid()
        preds = np.sort(rng.normal(size=(100, 99)), axis=1)
        tgts = rng.normal(size=100)
        assert agce(preds, tgts, grid, AgceConfig(seed=7)) == agce(
            preds, tgts, grid, AgceConfig(seed=7)
        )


class TestGroupCoverage:
    def test_two_bin_hand_example(self):
        grid = TauGrid([0.5])
        preds = np.array([[1.0], [1.0], [0.0], [0.0]])
        tgts = np.array([0.5, 2.0, 1.0, -1.0])
        labels = np.array(["lo", "lo", "hi", "hi"])
        table = group_coverage(preds, tgts, labels, grid)
        assert table.bins == ("hi", "lo")  # sorted labels
        assert table.sizes == (2, 2)
        np.testing.assert_array_equal(table.levels, [[0.5], [0.5]])

    def test_weighted_identity_with_exact_counts(self):
        # the overall covered count equals the sum of per-bin counts, so the
        # overall level is the size-weighted mean of the bin levels, exactly
        rng = np.random.default_rng(6)
        grid = TauGrid([0.3, 0.7])
        n = 90
        preds = np.sort(rng.normal(size=(n, 2)), axis=1)
        tgts = rng.normal(size=n)
        labels = rng.integers(0, 3, size=n)
        table = group_coverage(preds, tgts, labels, grid)
        overall = observed_levels(preds, tgts, grid)
        for j in range(2):
            total = sum(
                Fraction(size) * Fraction(table.levels[b, j]).limit_denominator(10**9)
                for b, size in enumerate(table.sizes)
            )
            assert total / n == Fraction(overall[j]).limit_denominator(10**9)

    def test_label_count_mismatch(self):
        grid = TauGrid([0.5])
        with pytest.raises(ValueError):
            group_coverage(np.zeros((3, 1)), np.zeros(3), [0, 1], grid)


class TestEvaluateAndReport:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(8)
        grid = default_tau_grid()
        preds = np.sort(rng.normal(size=(120, 99)), axis=1)
        tgts = rng.normal(size=120)
        labels = rng.integers(0, 2, size=120)
        rep = evaluate_predictions(preds, tgts, grid, AgceConfig(seed=1), labels)
        assert rep.mace == mace(preds, tgts, grid)
        assert rep.agce == agce(preds, tgts, grid, AgceConfig(seed=1))
        assert rep.check_score == check_score(preds, tgts, grid)
        np.testing.assert_array_equal(rep.per_tau_observed, observed_levels(preds, tgts, grid))
        assert rep.group_coverage is not None
        assert len(rep.agce_groups) == 20

    def test_report_to_dict_is_json_ready(self):
        import json

        rng = np.random.default_rng(9)
        grid = TauGrid([0.5])
        rep = evaluate_predictions(
            rng.normal(size=(60, 1)), rng.normal(size=60), grid, AgceConfig(seed=0)
        )
        blob = json.loads(json.dumps(report_to_dict(rep)))
        assert blob["tau_levels"] == [0.5]
        assert blob["group_coverage"] is None
        assert blob["config"]["n_rows"] == 60

    def test_tau_curve_csv(self, tmp_path):
        rng = np.random.default_rng(10)
        grid = TauGrid([0.25, 0.75])
        rep = evaluate_predictions(
            np.sort(rng.normal(size=(55, 2)), axis=1), rng.normal(size=55), grid
        )
        path = tmp_path / "curve.csv"
        write_tau_curve_csv(rep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau,observed,gap"
        assert len(lines) == 3
        tau, obs, gap = (float(v) for v in lines[1].split(","))
        assert tau == 0.25
        assert gap == obs - tau


class TestTauGrid:
    def test_default_grid(self):
        grid = default_tau_grid()
        assert len(grid) == 99
        assert grid.levels[0] == 0.01
        assert grid.levels[-1] == 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            TauGrid([])
        with pytest.raises(ValueError):
            TauGrid([0.0, 0.5])
        with pytest.raises(ValueError):
            TauGrid([0.5, 0.5])
        with pytest.raises(ValueError):
            TauGrid([0.7, 0.3])

    def test_interval_levels_are_the_grid_of_their_alpha(self):
        # the grids are cached per half-alpha and its type; each must equal a
        # grid built afresh from the same arithmetic, in the caller's type
        for alpha in (0.1, 0.2, np.float64(0.1), np.float32(0.1), np.array(0.3), Fraction(1, 5)):
            for _ in range(2):
                got = _interval_levels(alpha)
                want = TauGrid([alpha / 2.0, 1.0 - alpha / 2.0])
                assert got.levels.tolist() == want.levels.tolist()
                assert not got.levels.flags.writeable
        assert _interval_levels(np.float32(0.1)).levels[1] != _interval_levels(0.1).levels[1]
        # an equal half of another type is not served from the cache: in
        # float32, 1 - 2**-30 rounds to 1
        assert _interval_levels(2.0**-29).levels[1] < 1.0
        with pytest.raises(ValueError, match="strictly inside"):
            _interval_levels(np.float32(2.0**-29))
        # 1 - 1e-300 / 2 rounds to 1, outside the open unit interval, on every call
        for _ in range(2):
            with pytest.raises(ValueError, match="strictly inside"):
                _interval_levels(1e-300)
        for alpha in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="alpha must lie"):
                _interval_levels(alpha)
