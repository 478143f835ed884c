import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from qcalib.calibration import (
    CalibrationConfig,
    calibrate,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from qcalib.data import Dataset, DatasetError, SplitSpec
from qcalib.projection import ProjectionMap, correlation_select, gaussian_projection
from qcalib.quantile import BandwidthSearch, KernelConfig
from qcalib.reference import sorted_left_quantile
from qcalib.regressors import RegressorSpec
from qcalib.synthetic import GeneratorSpec, analytic_quantile, generate


def line_dataset(n=8):
    xs = np.arange(float(n))
    return Dataset(xs[:, None], xs.copy(), ("x",))


def fixed_cfg(bandwidth=math.inf, **kw):
    defaults = dict(
        regressor=RegressorSpec("ols"),
        split=SplitSpec(0.5, shuffle=False),
        kernel=KernelConfig(bandwidth),
    )
    defaults.update(kw)
    return CalibrationConfig(**defaults)


class TestPipelineMechanics:
    def test_zero_residuals_collapse_to_base_model(self):
        # y = x fits exactly, every residual is 0.0, so the calibrated
        # quantile equals the base prediction bitwise at every level
        model = calibrate(line_dataset(4), fixed_cfg())
        for tau in (0.01, 0.3, 0.5, 0.77, 0.99):
            for x in (0.0, 1.7, 3.0):
                assert model.predict_quantile([x], tau) == model.predict_mean([[x]])[0]

    def test_external_zero_predictor_yields_target_quantiles(self):
        # base prediction 0 everywhere: residuals are the raw targets, and
        # with an infinite bandwidth the model returns their left quantile
        ys = np.array([5.0, 6.0, 7.0, 8.0, 1.0, 2.0, 3.0, 4.0])
        feats = np.column_stack([np.arange(8.0), np.zeros(8)])
        data = Dataset(feats, ys, ("x", "pred"))
        cfg = fixed_cfg(regressor=RegressorSpec("external", external_column="pred"))
        model = calibrate(data, cfg)
        # calibration split holds the last four rows: residuals {1,2,3,4}
        assert model.predict_quantile([9.0, 0.0], 0.5) == 2.0
        assert model.predict_quantile([9.0, 0.0], 0.25) == 1.0
        assert model.predict_quantile([9.0, 0.0], 0.9) == 4.0

    def test_interval_from_quantile_pair(self):
        ys = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
        feats = np.column_stack([np.arange(8.0), np.zeros(8)])
        data = Dataset(feats, ys, ("x", "pred"))
        cfg = fixed_cfg(regressor=RegressorSpec("external", external_column="pred"))
        model = calibrate(data, cfg)
        # alpha = 0.5 asks for the 0.25 and 0.75 residual quantiles: 1 and 3
        assert model.predict_interval([5.0, 0.0], 0.5) == (1.0, 3.0)

    def test_median_of_symmetric_pair_takes_lower(self):
        ys = np.array([0.0, 0.0, -1.0, 1.0])
        feats = np.column_stack([np.arange(4.0), np.zeros(4)])
        data = Dataset(feats, ys, ("x", "pred"))
        cfg = fixed_cfg(regressor=RegressorSpec("external", external_column="pred"))
        model = calibrate(data, cfg)
        assert model.predict_quantile([0.0, 0.0], 0.5) == -1.0

    def test_split_parts_are_disjoint(self):
        data = generate(GeneratorSpec("sine_hetero", 40, seed=0))
        cfg = fixed_cfg(
            regressor=RegressorSpec("knn", knn_k=3), split=SplitSpec(0.5, seed=1)
        )
        model = calibrate(data, cfg)
        stored = model.quantile_estimator.points
        assert stored.shape[0] == 20
        # stored points are standardized calibration features; reconstruct
        # and check none of them came from the regressor's training rows
        raw = model.standardizer.inverse(stored)
        train_x = set(model.regressor.train_features[:, 0].tolist())
        cal_x = {float(v) for v in raw[:, 0]}
        assert not (train_x & {round(v, 9) for v in cal_x})

    def test_quantile_features_are_standardized(self):
        data = generate(GeneratorSpec("sine_hetero", 60, seed=1))
        model = calibrate(data, fixed_cfg(bandwidth=1.0))
        pts = model.quantile_estimator.points
        np.testing.assert_allclose(pts.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(pts.std(axis=0), 1.0, atol=1e-12)

    def test_external_column_excluded_from_quantile_space(self):
        feats = np.column_stack([np.arange(8.0), np.arange(8.0) * 10.0])
        data = Dataset(feats, np.arange(8.0), ("x", "pred"))
        cfg = fixed_cfg(regressor=RegressorSpec("external", external_column="pred"))
        model = calibrate(data, cfg)
        assert model.quantile_estimator.dim == 1
        assert model.transform_features(feats[:4]).shape == (4, 1)

    def test_nan_in_constant_column_rejected(self):
        # standardizing maps a constant column to 0, NaN included, so the
        # raw row must be checked before it is transformed
        x = np.linspace(0.0, 1.0, 40)
        feats = np.column_stack([x, np.full(40, 2.0)])
        data = Dataset(feats, x + np.sin(9.0 * x), ("x", "c"))
        model = calibrate(data, fixed_cfg(bandwidth=0.3))
        assert model.standardizer.stddevs[1] == 0.0
        for predict in (model.residual_quantile_batch, model.predict_quantile_batch):
            with pytest.raises(DatasetError, match="query row 1 has a non-finite value"):
                predict([[0.5, 2.0], [0.5, np.nan]], [0.5])
        with pytest.raises(DatasetError, match="non-finite"):
            model.residual_quantile([0.5, np.nan], 0.5)

    def test_needs_four_rows(self):
        with pytest.raises(DatasetError):
            calibrate(line_dataset(3), fixed_cfg())

    def test_config_echo(self):
        data = generate(GeneratorSpec("uniform_triangle", 30, seed=2))
        model = calibrate(data, fixed_cfg(bandwidth=0.5, seed=6))
        echo = model.config
        assert echo["kernel"] == {"bandwidth": 0.5, "min_neighbors": 1, "auto": False}
        assert echo["n_fit"] == 15 and echo["n_calibration"] == 15
        assert echo["seed"] == 6
        assert echo["split"]["shuffle"] is False

    def test_min_neighbors_beside_a_fixed_kernel_must_agree(self):
        # the fixed kernel's own min_neighbors is what calibrate uses
        ols = RegressorSpec("ols")
        with pytest.raises(ValueError, match=r"min_neighbors=50 disagrees with KernelConfig\("):
            CalibrationConfig(ols, kernel=KernelConfig(0.01), min_neighbors=50)
        for given in (1, 5):
            CalibrationConfig(ols, kernel=KernelConfig(0.01, 5), min_neighbors=given)
        CalibrationConfig(ols, kernel="auto", min_neighbors=50)

    def test_auto_bandwidth_comes_from_cv(self):
        from qcalib.quantile import select_bandwidth

        data = generate(GeneratorSpec("sine_hetero", 200, seed=3))
        cfg = CalibrationConfig(
            regressor=RegressorSpec("knn", knn_k=5),
            split=SplitSpec(0.5, seed=0),
            kernel="auto",
            bandwidth_search=BandwidthSearch(seed=4),
            seed=4,
        )
        model = calibrate(data, cfg)
        assert model.config["kernel"]["auto"] is True
        # reproduce: same split, same residuals, same search
        from qcalib.data import split as split_rows
        from qcalib.regressors import fit_regressor, residuals

        fit_part, cal_part = split_rows(data, cfg.split)
        reg = fit_regressor(cfg.regressor, fit_part)
        res = residuals(reg, cal_part)
        std = model.standardizer
        z = std.transform(cal_part.features)
        expect = select_bandwidth(z, res.residuals, BandwidthSearch(seed=4))
        assert model.config["kernel"]["bandwidth"] == expect

    def test_translation_equivariance_of_targets(self):
        # shifting all targets by c shifts every quantile by exactly c
        # (the estimator picks a stored residual, and OLS on y+c moves
        # only the intercept), checked loosely for float round-off
        data = generate(GeneratorSpec("sine_hetero", 80, seed=5))
        shifted = Dataset(
            data.features, data.target + 100.0, data.feature_names, "y"
        )
        m1 = calibrate(data, fixed_cfg(bandwidth=2.0))
        m2 = calibrate(shifted, fixed_cfg(bandwidth=2.0))
        for tau in (0.1, 0.5, 0.9):
            q1 = m1.predict_quantile([7.0], tau)
            q2 = m2.predict_quantile([7.0], tau)
            assert q2 - q1 == pytest.approx(100.0, abs=1e-9)


class TestProjectionInPipeline:
    def test_informative_column_selected_and_used(self):
        data = generate(GeneratorSpec("sine_hetero", 300, seed=6, nuisance_dims=2))
        pmap = correlation_select(data, 1)
        assert pmap.selected_indices is not None
        cfg = fixed_cfg(bandwidth=0.5, projection=pmap)
        model = calibrate(data, cfg)
        assert model.quantile_estimator.dim == 1
        assert model.config["projection"] == {"kind": "covariate_select", "output_dim": 1}

    def test_gaussian_projection_dim(self):
        from qcalib.projection import gaussian_projection

        data = generate(GeneratorSpec("sine_hetero", 100, seed=7, nuisance_dims=4))
        cfg = fixed_cfg(bandwidth=1.0, projection=gaussian_projection(5, 2, seed=0))
        model = calibrate(data, cfg)
        assert model.quantile_estimator.dim == 2


def _projection(kind, d):
    if kind == "identity":
        return ProjectionMap("identity", d, d)
    if kind == "random_gaussian":
        return gaussian_projection(d, 2, seed=3)
    if kind == "covariate_select":
        return ProjectionMap("covariate_select", d, 2, selected_indices=(2, 0))
    return None


class TestBatchOfOne:
    @pytest.mark.parametrize("projection", [None, "identity", "random_gaussian", "covariate_select"])
    @pytest.mark.parametrize("kind", ["ols", "knn", "external"])
    def test_single_query_paths_equal_batch_columns(self, tmp_path, kind, projection):
        rng = np.random.default_rng(12)
        n = 120
        feats = rng.normal(size=(n, 4))
        target = feats[:, 0] + rng.normal(0.0, 0.5 + np.abs(feats[:, 1]))
        data = Dataset(feats, target, ("a", "b", "c", "pred"))
        spec = RegressorSpec(kind, knn_k=6, external_column="pred")
        d_quantile = 3 if kind == "external" else 4
        cfg = CalibrationConfig(
            regressor=spec,
            kernel=KernelConfig(1.2, min_neighbors=8),
            projection=_projection(projection, d_quantile),
        )
        model = calibrate(data, cfg)
        est = model.quantile_estimator
        xs = rng.normal(size=(25, 4))
        taus = np.array([0.05, 0.3, 0.5, 0.95])
        batch = model.predict_quantile_batch(xs, taus)
        residual = model.residual_quantile_batch(xs, taus)
        tails = model.predict_quantile_batch(xs, [0.05, 0.95])
        save_model(model, tmp_path / "model.json")
        # the reloaded model answers every path bit for bit as the original
        for answering in (model, load_model(tmp_path / "model.json")):
            assert answering.predict_quantile_batch(xs, taus).tobytes() == batch.tobytes()
            assert answering.residual_quantile_batch(xs, taus).tobytes() == residual.tobytes()
            for i, x in enumerate(xs):
                for j, tau in enumerate(taus):
                    assert answering.predict_quantile(x, tau) == batch[i, j]
                    assert answering.residual_quantile(x, tau) == residual[i, j]
                assert answering.predict_interval(x, 0.1) == tuple(tails[i])
        z = model.transform_features(xs)
        widened = 0
        for zi in z:
            dist = np.sqrt(((est.points - zi) ** 2).sum(axis=1))
            inside = dist <= 1.2
            if inside.sum() < 8:
                inside = dist <= np.partition(dist, 7)[7]
                widened += 1
            hood = est.neighborhood(zi)
            assert (np.diff(hood.indices) > 0).all()
            assert hood.indices.tolist() == np.flatnonzero(inside).tolist()
        assert 0 < widened < len(xs)

    def test_ols_rows_agree_bitwise_at_d20(self):
        data = generate(GeneratorSpec("sine_hetero", 400, seed=13, nuisance_dims=19))
        model = calibrate(data, fixed_cfg(bandwidth=4.0))
        xs = generate(GeneratorSpec("sine_hetero", 60, seed=14, nuisance_dims=19)).features
        batch = model.predict_mean(xs)
        single = np.array([model.predict_mean(x[None, :])[0] for x in xs])
        blocks = np.concatenate([model.predict_mean(xs[i : i + 7]) for i in range(0, 60, 7)])
        np.testing.assert_array_equal(single, batch)
        np.testing.assert_array_equal(blocks, batch)
        np.testing.assert_array_equal(model.predict_mean(np.asfortranarray(xs)), batch)
        # a strided column slice of a wider table
        wide = np.column_stack([xs, xs])
        np.testing.assert_array_equal(model.predict_mean(wide[:, :20]), batch)
        tails = model.predict_quantile_batch(xs, [0.05, 0.95])
        for i, x in enumerate(xs):
            assert model.predict_interval(x, 0.1) == tuple(tails[i])


class TestSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            RegressorSpec("ols"),
            RegressorSpec("knn", knn_k=4),
            RegressorSpec("external", external_column="pred"),
        ],
    )
    def test_round_trip_preserves_predictions_bitwise(self, tmp_path, spec):
        rng = np.random.default_rng(8)
        n = 60
        feats = np.column_stack([rng.normal(size=n), rng.normal(size=n)])
        data = Dataset(feats, rng.normal(size=n), ("x", "pred"))
        model = calibrate(data, fixed_cfg(bandwidth=1.5, regressor=spec))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        queries = rng.normal(size=(20, 2))
        taus = np.array([0.05, 0.5, 0.95])
        np.testing.assert_array_equal(
            model.predict_quantile_batch(queries, taus),
            back.predict_quantile_batch(queries, taus),
        )
        assert back.feature_names == model.feature_names
        assert back.target_name == model.target_name

    def test_saved_file_is_stable(self, tmp_path):
        data = generate(GeneratorSpec("uniform_triangle", 40, seed=9))
        model = calibrate(data, fixed_cfg(bandwidth=0.3))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kind", ["ols", "knn", "external"])
    def test_golden_document_resaves_byte_identically(self, tmp_path, kind):
        # one small model per regressor kind, saved by calibrate: its keys are
        # the parts' field names, so renaming a field fails here
        golden = Path(__file__).parent / "golden"
        model = load_model(golden / f"{kind}.json")
        save_model(model, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (golden / f"{kind}.json").read_bytes()
        stored = json.loads((golden / "predictions.json").read_text())
        quantiles = model.predict_quantile_batch(stored["queries"], stored["taus"])
        assert quantiles.tobytes() == np.array(stored[kind]).tobytes()

    def test_format_and_version_checked(self):
        data = generate(GeneratorSpec("uniform_triangle", 20, seed=10))
        blob = model_to_dict(calibrate(data, fixed_cfg(bandwidth=0.3)))
        wrong = dict(blob, format="something.else")
        with pytest.raises(DatasetError, match="not a"):
            model_from_dict(wrong)
        wrong = dict(blob, version=99)
        with pytest.raises(DatasetError, match="version"):
            model_from_dict(wrong)


class TestAutoBandwidthRecord:
    def test_cv_table_round_trips_and_last_minimum_wins(self, tmp_path):
        # two residual clusters 2 apart after standardizing: radii 0.5 and 1
        # give the same balls and tie at the lowest score, 3 pools both
        xs = np.tile([0.0, 10.0], 20)
        ys = np.where(xs == 0.0, np.arange(40.0) % 7, 100.0 + np.arange(40.0) % 5)
        data = Dataset(np.column_stack([xs, np.zeros(40)]), ys, ("x", "pred"))
        cfg = CalibrationConfig(
            regressor=RegressorSpec("external", external_column="pred"),
            split=SplitSpec(0.5, shuffle=False),
            kernel="auto",
            bandwidth_search=BandwidthSearch(candidates=(0.5, 1.0, 3.0), seed=1),
        )
        model = calibrate(data, cfg)
        save_model(model, tmp_path / "model.json")
        kernel = load_model(tmp_path / "model.json").config["kernel"]
        assert kernel == model.config["kernel"]
        cv = kernel["cv"]
        scores = cv["scores"]
        assert cv["candidates"] == [0.5, 1.0, 3.0]
        assert scores[0] == scores[1] < scores[2]
        last_min = max(i for i, score in enumerate(scores) if score == min(scores))
        assert kernel["bandwidth"] == cv["candidates"][last_min] == 1.0
        assert cv["folds"] == 5 and cv["fallback"] is None

    def test_identical_features_take_the_marginal_bandwidth(self):
        data = Dataset(np.full((20, 2), 3.0), np.arange(20.0), ("a", "b"))
        model = calibrate(data, CalibrationConfig(regressor=RegressorSpec("ols")))
        kernel = model.config["kernel"]
        assert kernel["bandwidth"] == math.inf and kernel["auto"] is True
        assert kernel["cv"]["fallback"].startswith("identical calibration features")
        assert kernel["cv"]["candidates"] == [] and kernel["cv"]["folds"] == 0

    def test_folds_clamped_to_calibration_rows(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(8, 2)), rng.normal(size=8), ("a", "b"))
        model = calibrate(data, CalibrationConfig(regressor=RegressorSpec("ols")))
        cv = model.config["kernel"]["cv"]
        assert model.config["n_calibration"] == 4
        assert cv["folds"] == 4
        assert cv["fallback"] == "5 folds clamped to the 4 calibration rows"
        assert model.config["kernel"]["bandwidth"] in cv["candidates"]


class TestStatisticalBehavior:
    def test_recovers_sine_quantile_at_known_point(self):
        # q(7.5, 0.975) = 2.7577 analytically; single-seed estimates of an
        # extreme tail are noisy, so test the seed-averaged prediction
        # (bias) tightly and each seed only loosely
        target = analytic_quantile("sine_hetero", 7.5, 0.975)
        preds = []
        for seed in range(5):
            data = generate(GeneratorSpec("sine_hetero", 5000, seed=seed))
            cfg = CalibrationConfig(
                regressor=RegressorSpec("knn", knn_k=20),
                split=SplitSpec(0.5, seed=seed),
                kernel="auto",
                bandwidth_search=BandwidthSearch(seed=seed),
                seed=seed,
            )
            model = calibrate(data, cfg)
            preds.append(model.predict_quantile([7.5], 0.975))
        assert abs(np.mean(preds) - target) < 0.3
        assert max(abs(p - target) for p in preds) < 1.0

    def test_marginal_baseline_ignores_location(self):
        # infinite bandwidth: residual quantiles identical everywhere
        data = generate(GeneratorSpec("sine_hetero", 400, seed=11))
        model = calibrate(
            data, fixed_cfg(bandwidth=math.inf, regressor=RegressorSpec("knn", knn_k=10))
        )
        q1 = model.residual_quantile([1.0], 0.9)
        q2 = model.residual_quantile([14.0], 0.9)
        assert q1 == q2

    def test_marginal_quantile_is_global_left_quantile(self):
        data = generate(GeneratorSpec("sine_hetero", 200, seed=12))
        model = calibrate(data, fixed_cfg(bandwidth=math.inf))
        vals = model.quantile_estimator.values
        for tau in (0.05, 0.5, 0.95):
            assert model.residual_quantile([3.0], tau) == sorted_left_quantile(vals, tau)

    def test_coverage_tracks_level_on_triangle(self):
        # mid-size check that observed coverage lands near each level
        data = generate(GeneratorSpec("uniform_triangle", 4000, seed=13))
        test = generate(GeneratorSpec("uniform_triangle", 4000, seed=14))
        model = calibrate(
            data, fixed_cfg(bandwidth=0.1, split=SplitSpec(0.5, seed=13))
        )
        for tau in (0.25, 0.5, 0.75, 0.9):
            preds = model.predict_quantile_batch(test.features, [tau])[:, 0]
            cov = float(np.mean(test.target <= preds))
            assert abs(cov - tau) < 0.04


def test_normal_quantile_helper_matches_table():
    # anchor for the analytic sine quantiles used across these tests
    assert NormalDist().inv_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
