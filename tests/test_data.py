import math

import numpy as np
import pytest

from qcalib.data import (
    Dataset,
    DatasetError,
    SplitSpec,
    Standardizer,
    _query_rows,
    _sample,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    read_numeric_csv,
    save_csv,
    split,
)


def small_dataset(n=6, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, d)), rng.normal(size=n), ("a", "b")[:d])


class TestDataset:
    def test_basic_shape_and_names(self):
        ds = Dataset([[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0], ("a", "b"))
        assert ds.n == 2 and ds.d == 2
        assert ds.feature_names == ("a", "b")
        assert ds.target_name == "y"

    def test_arrays_are_copies_and_read_only(self):
        feats = np.array([[1.0], [2.0]])
        ds = Dataset(feats, [0.0, 0.0], ("x",))
        feats[0, 0] = 99.0
        assert ds.features[0, 0] == 1.0
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_1d_features_become_column(self):
        ds = Dataset([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], ("x",))
        assert ds.features.shape == (3, 1)

    def test_select_keeps_row_order(self):
        ds = Dataset([[1.0], [2.0], [3.0]], [10.0, 20.0, 30.0], ("x",))
        sub = ds.select(np.array([2, 0]))
        assert sub.features[:, 0].tolist() == [3.0, 1.0]
        assert sub.target.tolist() == [30.0, 10.0]

    @pytest.mark.parametrize(
        "features,target,names",
        [
            ([[np.nan]], [1.0], ("x",)),  # non-finite feature
            ([[1.0]], [np.inf], ("x",)),  # non-finite target
            ([[1.0, 2.0]], [1.0], ("x",)),  # name count mismatch
            ([[1.0, 2.0]], [1.0], ("x", "x")),  # duplicate names
            ([[1.0]], [1.0, 2.0], ("x",)),  # row mismatch
        ],
    )
    def test_rejects_malformed(self, features, target, names):
        with pytest.raises(DatasetError):
            Dataset(features, target, names)

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            Dataset(np.empty((0, 1)), np.empty(0), ("x",))


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        ds = small_dataset(n=17, d=2, seed=5)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path, "y")
        assert back.feature_names == ds.feature_names
        assert back.target_name == "y"
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.target, ds.target)

    def test_target_column_position_free(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,x\n1.5,2.5\n3.5,4.5\n")
        ds = load_csv(path, "y")
        assert ds.feature_names == ("x",)
        assert ds.target.tolist() == [1.5, 3.5]
        assert ds.features[:, 0].tolist() == [2.5, 4.5]

    def test_read_numeric_csv_skips_blank_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,2\n\n3,4\n")
        header, table = read_numeric_csv(path)
        assert header == ("x", "y")
        assert table.shape == (2, 2)

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(DatasetError, match="no column named 'z'"):
            load_csv(path, "z")

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,2\nfoo,4\n")
        with pytest.raises(DatasetError, match=r"line 3 column 'x'"):
            load_csv(path, "y")

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\nnan,2\n")
        with pytest.raises(DatasetError, match="non-finite"):
            load_csv(path, "y")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,2,3\n")
        with pytest.raises(DatasetError, match="3 cells, expected 2"):
            load_csv(path, "y")

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_csv(path, "y")

    def test_target_only_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y\n1\n")
        with pytest.raises(DatasetError, match="no feature columns"):
            load_csv(path, "y")


class TestSplit:
    def test_unshuffled_halves(self):
        ds = Dataset([[1.0], [2.0], [3.0], [4.0]], [1.0, 2.0, 3.0, 4.0], ("x",))
        a, b = split(ds, SplitSpec(0.5, shuffle=False))
        assert a.target.tolist() == [1.0, 2.0]
        assert b.target.tolist() == [3.0, 4.0]

    def test_rounds_half_up(self):
        ds = Dataset(np.arange(5.0)[:, None], np.arange(5.0), ("x",))
        a, b = split(ds, SplitSpec(0.5, shuffle=False))
        assert (a.n, b.n) == (3, 2)

    def test_both_parts_stay_non_empty(self):
        ds = Dataset([[1.0], [2.0]], [1.0, 2.0], ("x",))
        a, b = split(ds, SplitSpec(0.9, shuffle=False))
        assert (a.n, b.n) == (1, 1)

    def test_partition_is_disjoint_and_complete(self):
        ds = small_dataset(n=11, seed=3)
        a, b = split(ds, SplitSpec(0.7, seed=9))
        combined = np.vstack([a.features, b.features])
        assert combined.shape[0] == ds.n
        # every original row appears exactly once across the two parts
        orig = {tuple(r) for r in ds.features}
        got = [tuple(r) for r in combined]
        assert set(got) == orig and len(got) == len(set(got))

    def test_seed_determinism(self):
        ds = small_dataset(n=20, seed=1)
        a1, _ = split(ds, SplitSpec(0.5, seed=4))
        a2, _ = split(ds, SplitSpec(0.5, seed=4))
        a3, _ = split(ds, SplitSpec(0.5, seed=5))
        np.testing.assert_array_equal(a1.features, a2.features)
        assert not np.array_equal(a1.features, a3.features)

    def test_single_row_cannot_split(self):
        ds = Dataset([[1.0]], [1.0], ("x",))
        with pytest.raises(DatasetError):
            split(ds, SplitSpec(0.5))

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(DatasetError):
            SplitSpec(fraction)


class TestStandardizer:
    def test_three_point_column(self):
        # population stddev of {1,2,3} is sqrt(2/3), so the standardized
        # values are -+sqrt(3/2), not -+1
        std = Standardizer.from_features(np.array([[1.0], [2.0], [3.0]]))
        out = std.transform(np.array([[1.0], [2.0], [3.0]]))
        expect = math.sqrt(1.5)
        np.testing.assert_allclose(out[:, 0], [-expect, 0.0, expect], rtol=0, atol=1e-15)
        assert expect == 1.224744871391589

    def test_constant_column_maps_to_zero(self):
        std = Standardizer.from_features(np.array([[5.0, 1.0], [5.0, 3.0]]))
        out = std.transform(np.array([[5.0, 2.0], [7.0, 2.0]]))
        assert out[:, 0].tolist() == [0.0, 0.0]

    def test_inverse_round_trips(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(3.0, 2.5, size=(40, 3))
        std = Standardizer.from_features(xs)
        np.testing.assert_allclose(std.inverse(std.transform(xs)), xs, atol=1e-12)

    def test_inverse_of_constant_column_restores_mean(self):
        std = Standardizer(means=[4.0], stddevs=[0.0])
        out = std.inverse(np.array([[0.0], [1.0]]))
        assert out[:, 0].tolist() == [4.0, 4.0]

    def test_fit_on_dataset_and_apply(self):
        ds = small_dataset(n=30, d=2, seed=8)
        std = fit_standardizer(ds)
        out = apply_standardizer(std, ds)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_array_equal(out.target, ds.target)

    def test_width_mismatch(self):
        std = Standardizer(means=[0.0, 0.0], stddevs=[1.0, 1.0])
        with pytest.raises(DatasetError):
            std.transform(np.zeros((3, 3)))

    def test_rejects_negative_stddev(self):
        with pytest.raises(DatasetError):
            Standardizer(means=[0.0], stddevs=[-1.0])


class TestRowChecks:
    def test_one_d_input_is_rows_for_width_one_else_one_row(self):
        assert _query_rows([1.0, 2.0, 3.0], 1).shape == (3, 1)
        assert _query_rows([1.0, 2.0, 3.0], 3).shape == (1, 3)

    def test_width_mismatch(self):
        with pytest.raises(DatasetError, match=r"shape \(2, 3\), expected \(n, 2\)"):
            _query_rows(np.zeros((2, 3)), 2)
        with pytest.raises(DatasetError, match="expected"):
            _query_rows(5.0, 1)  # a scalar is not a row

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_named_unless_unchecked(self, bad):
        xs = np.array([[0.0, 1.0], [2.0, bad], [4.0, 5.0]])
        with pytest.raises(DatasetError, match="query row 1 has a non-finite value"):
            _query_rows(xs, 2)
        assert _query_rows(xs, 2, finite=False) is xs

    def test_sample_checks(self):
        points, values = _sample([0.0, 1.0, 2.0], [[3.0], [4.0], [5.0]])
        assert points.shape == (3, 1) and values.shape == (3,)
        with pytest.raises(DatasetError, match="2 values for 3 points"):
            _sample(np.zeros((3, 2)), [1.0, 2.0])
        with pytest.raises(DatasetError, match="non-empty"):
            _sample(np.zeros((0, 2)), [])
        with pytest.raises(DatasetError, match="finite"):
            _sample(np.zeros((2, 1)), [1.0, np.inf])
        with np.errstate(over="ignore"):  # the sum overflows; the entrywise check decides
            _sample([[1e308], [1e308]], [1e308, 1e308])
