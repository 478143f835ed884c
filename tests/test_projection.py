import math

import numpy as np
import pytest

from qcalib.data import Dataset
from qcalib.projection import (
    ProjectionMap,
    apply_projection,
    correlation_select,
    gaussian_projection,
)


class TestGaussian:
    def test_shape_and_determinism(self):
        p1 = gaussian_projection(57, 5, seed=11)
        p2 = gaussian_projection(57, 5, seed=11)
        p3 = gaussian_projection(57, 5, seed=12)
        assert p1.kind == "random_gaussian"
        assert p1.matrix.shape == (5, 57)
        np.testing.assert_array_equal(p1.matrix, p2.matrix)
        assert not np.array_equal(p1.matrix, p3.matrix)

    def test_entry_distribution(self):
        # 285 draws from N(0, 1/57): the sample mean lies within 4 standard
        # errors (4 * sqrt((1/57)/285) ~= 0.0314) and the sample variance
        # within 4 * sqrt(2/284)/57 ~= 0.0059 of 1/57
        pmap = gaussian_projection(57, 5, seed=0)
        entries = pmap.matrix.ravel()
        assert abs(entries.mean()) < 0.03138341021052336
        assert abs(entries.var() - 1.0 / 57.0) < 0.005888991988046941

    def test_no_reduction_collapses_to_identity(self):
        pmap = gaussian_projection(4, 4, seed=0)
        assert pmap.kind == "identity"
        xs = np.arange(8.0).reshape(2, 4)
        np.testing.assert_array_equal(apply_projection(pmap, xs), xs)
        assert gaussian_projection(4, 9, seed=0).kind == "identity"

    def test_apply_is_matrix_product(self):
        pmap = gaussian_projection(6, 2, seed=3)
        xs = np.random.default_rng(1).normal(size=(5, 6))
        np.testing.assert_allclose(apply_projection(pmap, xs), xs @ pmap.matrix.T)

    def test_norm_preserved_in_expectation(self):
        # E||Px||^2 = (d0/d)||x||^2; with many projections the average ratio
        # concentrates near d0/d
        rng = np.random.default_rng(9)
        x = rng.normal(size=20)
        x /= math.sqrt(float(x @ x))
        ratios = []
        for seed in range(300):
            pmap = gaussian_projection(20, 5, seed=seed)
            px = apply_projection(pmap, x[None, :])[0]
            ratios.append(float(px @ px))
        assert abs(np.mean(ratios) - 5.0 / 20.0) < 0.02


class TestCorrelationSelect:
    def test_six_row_hand_example(self):
        # |r| = 1 for the affine column, ~0.2928 for the alternating one,
        # 0 for the constant; selection follows that order
        x1 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        x2 = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
        x3 = [7.0] * 6
        y = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
        data = Dataset(np.column_stack([x2, x1, x3]), y, ("a", "b", "c"))
        pmap = correlation_select(data, 2)
        assert pmap.kind == "covariate_select"
        assert pmap.selected_indices == (1, 0)  # rank order, best first
        assert correlation_select(data, 1).selected_indices == (1,)

    def test_tied_scores_prefer_lower_index(self):
        x1 = np.array([1.0, 2.0, 3.0, 4.0])
        data = Dataset(
            np.column_stack([x1, -x1, x1 * 0.5]),
            [2.0, 4.0, 6.0, 8.0],
            ("a", "b", "c"),
        )  # all three have |r| = 1
        assert correlation_select(data, 2).selected_indices == (0, 1)

    def test_apply_gathers_columns(self):
        pmap = ProjectionMap("covariate_select", 3, 2, selected_indices=(2, 0))
        xs = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(
            apply_projection(pmap, xs), xs[:, [2, 0]]
        )

    def test_no_reduction_collapses_to_identity(self):
        data = Dataset([[1.0, 2.0], [3.0, 4.0]], [0.0, 1.0], ("a", "b"))
        assert correlation_select(data, 2).kind == "identity"
        assert correlation_select(data, 5).kind == "identity"

    def test_zero_variance_target_scores_zero(self):
        data = Dataset(
            np.column_stack([[1.0, 2.0, 3.0], [5.0, 1.0, 9.0]]),
            [4.0, 4.0, 4.0],
            ("a", "b"),
        )
        # all scores zero: stable order keeps original column order
        assert correlation_select(data, 1).selected_indices == (0,)


class TestProjectionMap:
    def test_identity_passthrough(self):
        pmap = ProjectionMap("identity", 3, 3)
        xs = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(apply_projection(pmap, xs), xs)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProjectionMap("identity", 3, 2)
        with pytest.raises(ValueError):
            ProjectionMap("random_gaussian", 3, 2, matrix=np.zeros((2, 4)))
        with pytest.raises(ValueError):
            ProjectionMap("covariate_select", 3, 2, selected_indices=(0, 0))
        with pytest.raises(ValueError):
            ProjectionMap("covariate_select", 3, 2, selected_indices=(0, 5))
        with pytest.raises(ValueError):
            ProjectionMap("mystery", 3, 2)

    def test_one_d_input_to_one_input_map_is_rows(self):
        # the same rule as the estimator and the regressors: n rows of one value
        out = apply_projection(ProjectionMap("identity", 1, 1), np.array([1.0, 2.0, 3.0]))
        assert out.tolist() == [[1.0], [2.0], [3.0]]
        pmap = ProjectionMap("covariate_select", 3, 1, selected_indices=(2,))
        assert apply_projection(pmap, np.array([1.0, 2.0, 3.0])).tolist() == [[3.0]]

    def test_width_mismatch_on_apply(self):
        pmap = ProjectionMap("identity", 2, 2)
        with pytest.raises(ValueError):
            apply_projection(pmap, np.zeros((2, 3)))
