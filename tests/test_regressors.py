import json
from dataclasses import asdict

import numpy as np
import pytest

from qcalib.data import Dataset
from qcalib.regressors import FittedRegressor, RegressorSpec, fit_regressor, residuals


def make(features, target, names=None):
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(features.shape[1]))
    return Dataset(features, target, names)


class TestOls:
    def test_two_points_define_the_line(self):
        model = fit_regressor(RegressorSpec("ols"), make([0.0, 1.0], [0.0, 1.0]))
        np.testing.assert_allclose(model.coefficients, [0.0, 1.0], atol=1e-9)

    def test_recovers_exact_affine_relation(self):
        # y = 1 + 2x on three points; prediction at x=3 is 7
        model = fit_regressor(RegressorSpec("ols"), make([0.0, 1.0, 2.0], [1.0, 3.0, 5.0]))
        np.testing.assert_allclose(model.coefficients, [1.0, 2.0], atol=1e-9)
        np.testing.assert_allclose(model.predict([[3.0]]), [7.0], atol=1e-9)

    def test_constant_target_gives_mean(self):
        model = fit_regressor(RegressorSpec("ols"), make([1.0, 2.0, 5.0], [4.0, 4.0, 4.0]))
        np.testing.assert_allclose(model.predict([[0.0], [100.0]]), [4.0, 4.0], atol=1e-8)

    def test_duplicate_column_falls_back_to_ridge(self):
        # singular normal equations must not crash, and the tiny ridge keeps
        # predictions essentially those of the single-column fit
        rng = np.random.default_rng(0)
        x = rng.normal(size=40)
        y = 2.0 + 3.0 * x + rng.normal(0.0, 0.1, size=40)
        plain = fit_regressor(RegressorSpec("ols"), make(x, y))
        dup = fit_regressor(
            RegressorSpec("ols"), make(np.column_stack([x, x]), y, ("a", "b"))
        )
        grid = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(
            dup.predict(np.column_stack([grid, grid])),
            plain.predict(grid[:, None]),
            atol=1e-5,
        )

    def test_multivariate_exact_fit(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(50, 3))
        beta = np.array([0.5, -1.0, 2.0, 0.25])
        y = beta[0] + xs @ beta[1:]
        model = fit_regressor(RegressorSpec("ols"), make(xs, y, ("a", "b", "c")))
        np.testing.assert_allclose(model.coefficients, beta, atol=1e-9)


class TestKnn:
    def test_k1_is_nearest_value(self):
        model = fit_regressor(
            RegressorSpec("knn", knn_k=1), make([0.0, 2.0], [0.0, 10.0])
        )
        assert model.predict([[0.4]]).tolist() == [0.0]
        assert model.predict([[1.6]]).tolist() == [10.0]

    def test_equidistant_tie_prefers_lower_index(self):
        model = fit_regressor(
            RegressorSpec("knn", knn_k=1), make([0.0, 2.0], [0.0, 10.0])
        )
        assert model.predict([[1.0]]).tolist() == [0.0]

    def test_k2_averages(self):
        model = fit_regressor(
            RegressorSpec("knn", knn_k=2), make([0.0, 2.0, 50.0], [0.0, 10.0, 99.0])
        )
        assert model.predict([[1.0]]).tolist() == [5.0]

    def test_k_equals_n_is_global_mean(self):
        model = fit_regressor(
            RegressorSpec("knn", knn_k=3), make([0.0, 1.0, 2.0], [3.0, 6.0, 9.0])
        )
        assert model.predict([[100.0]]).tolist() == [6.0]

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            fit_regressor(RegressorSpec("knn", knn_k=5), make([0.0, 1.0], [0.0, 1.0]))

    def test_blocked_prediction_matches_direct(self):
        rng = np.random.default_rng(2)
        train = make(rng.normal(size=(60, 2)), rng.normal(size=60), ("a", "b"))
        model = fit_regressor(RegressorSpec("knn", knn_k=7), train)
        queries = rng.normal(size=(30, 2))
        direct = np.empty(30)
        for i, q in enumerate(queries):
            d = np.sqrt(((train.features - q) ** 2).sum(axis=1))
            nearest = np.argsort(d, kind="stable")[:7]
            direct[i] = train.target[nearest].mean()
        np.testing.assert_array_equal(model.predict(queries), direct)


class TestExternal:
    def test_passthrough_column(self):
        data = make(
            np.column_stack([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]]),
            [0.0, 0.0, 0.0],
            ("x", "pred"),
        )
        model = fit_regressor(RegressorSpec("external", external_column="pred"), data)
        assert model.external_index == 1
        assert model.predict(data.features).tolist() == [10.0, 20.0, 30.0]

    def test_missing_column_rejected(self):
        data = make([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="no column named"):
            fit_regressor(RegressorSpec("external", external_column="pred"), data)

    def test_spec_requires_column_name(self):
        with pytest.raises(ValueError):
            RegressorSpec("external")


class TestResiduals:
    def test_exact_elementwise(self):
        data = make([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        model = fit_regressor(RegressorSpec("ols"), data)
        res = residuals(model, data)
        np.testing.assert_allclose(res.residuals, 0.0, atol=1e-9)
        np.testing.assert_array_equal(res.points, data.features)

    def test_definition_is_target_minus_prediction(self):
        data = make([0.0, 1.0], [5.0, 5.0])
        zeros = make(
            np.column_stack([[0.0, 1.0], [0.0, 0.0]]), [5.0, 5.0], ("x", "pred")
        )
        model = fit_regressor(RegressorSpec("external", external_column="pred"), zeros)
        res = residuals(model, zeros)
        assert res.residuals.tolist() == [5.0, 5.0]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown regressor kind"):
        RegressorSpec("forest")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "spec",
    [
        RegressorSpec("ols"),
        RegressorSpec("knn", knn_k=2),
        RegressorSpec("external", external_column="x2"),
    ],
)
def test_non_finite_query_row_rejected(spec, bad):
    # kNN would otherwise average the first k targets and OLS return NaN
    train = make([[0.0, 1.0], [1.0, 2.0], [2.0, 4.0], [3.0, 5.0]], [1.0, 2.0, 3.0, 4.0])
    model = fit_regressor(spec, train)
    queries = np.array([[0.5, 1.0], [1.0, bad], [2.0, 3.0]])
    with pytest.raises(ValueError, match="query row 1 has a non-finite value"):
        model.predict(queries)


def test_huge_finite_row_accepted():
    # the row's sum overflows, and no warning is raised
    train = make([[0.0, 1.0], [1.0, 2.0]], [1.0, 2.0])
    model = fit_regressor(RegressorSpec("external", external_column="x2"), train)
    assert model.predict([[1e308, 1e308]]).tolist() == [1e308]


def test_knn_k_must_be_an_integer():
    with pytest.raises(ValueError, match="knn_k must be an integer, got 2.5"):
        RegressorSpec("knn", knn_k=2.5)
    stored = {"train_features": [[0.0], [1.0], [2.0]], "train_targets": [0.0, 1.0, 2.0]}
    with pytest.raises(ValueError, match="knn_k must be an integer, got 2.5"):
        FittedRegressor(kind="knn", input_dim=1, knn_k=2.5, **stored)
    # a numpy integer is stored as an int, so the config echo still serializes
    spec = RegressorSpec("knn", knn_k=np.int64(2))
    model = FittedRegressor(kind="knn", input_dim=1, knn_k=np.int64(2), **stored)
    assert type(spec.knn_k) is int and type(model.knn_k) is int
    assert json.loads(json.dumps(asdict(spec)))["knn_k"] == 2
    assert model.predict([[0.9]]).tolist() == [0.5]
