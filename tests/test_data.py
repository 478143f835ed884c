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
    _write_csv,
    _write_json,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    read_numeric_csv,
    save_csv,
    split,
)
from qcalib.projection import ProjectionMap, apply_projection
from qcalib.quantile import KernelConfig, QuantileEstimator
from qcalib.regressors import FittedRegressor


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

    def test_writers_remove_the_file_a_failed_write_leaves(self, tmp_path):
        def rows():
            yield [1.0, "a", 2]
            raise RuntimeError("row 2")

        with pytest.raises(RuntimeError, match="row 2"):
            _write_csv(tmp_path / "t.csv", ["x", "y", "z"], rows())
        with pytest.raises(TypeError, match="not JSON serializable"):
            _write_json(tmp_path / "t.json", {"a": 1.0, "b": object()})
        assert list(tmp_path.iterdir()) == []

    def test_writers_leave_a_path_they_cannot_open(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            _write_json(tmp_path, {})
        with pytest.raises(IsADirectoryError):
            _write_csv(tmp_path, ["x"], [[1.0]])
        assert tmp_path.is_dir()

    def test_csv_cells(self, tmp_path):
        rows = [["a", 3, np.int64(4), 0.1, np.float64(1e-7)], np.array([0.5, 1e16, -0.0, 2.0, 3.0])]
        _write_csv(tmp_path / "t.csv", ["s", "i", "j", "f", "g"], rows)
        _write_csv(tmp_path / "m.csv", ["a", "b"], np.array([[0.1, 2.0]]))
        assert (tmp_path / "t.csv").read_bytes() == (
            b"s,i,j,f,g\r\na,3,4,0.1,1e-07\r\n0.5,1e+16,-0.0,2.0,3.0\r\n"
        )
        assert (tmp_path / "m.csv").read_text() == "a,b\n0.1,2.0\n"

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

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes("x,y\n1,2\n".encode("utf-8-sig"))
        assert read_numeric_csv(path)[0] == ("x", "y")

    @pytest.mark.parametrize("header, column", [("a,,y", 2), (",a,y", 1), ("a,y, ", 3)])
    def test_blank_header_cell_named_by_column(self, tmp_path, header, column):
        path = tmp_path / "data.csv"
        path.write_text(f"{header}\n1,2,3\n")
        with pytest.raises(DatasetError, match=f"^{path}: header column {column} is blank$"):
            read_numeric_csv(path)

    @pytest.mark.parametrize("header, column, name", [("x,y,y", 3, "y"), ("x,x", 2, "x")])
    def test_repeated_header_name_named_by_column(self, tmp_path, header, column, name):
        # a repeat would silently pick one of the columns for the target or a feature
        path = tmp_path / "data.csv"
        path.write_text(f"{header}\n" + ",".join("1" * len(header.split(","))) + "\n")
        message = f"^{path}: header column {column} repeats '{name}'$"
        with pytest.raises(DatasetError, match=message):
            read_numeric_csv(path)
        with pytest.raises(DatasetError, match=message):
            load_csv(path, "y")

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x,y\n1,2\n3,caf\xe9\n")
        with pytest.raises(DatasetError, match=f"^{path}: 'utf-8' codec can't decode byte 0xe9"):
            read_numeric_csv(path)

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

    def test_memory_layout_of_the_input_changes_no_bit(self):
        # a Fortran-ordered input, such as a column selection, is stored
        # C-ordered, so column means and spreads are summed in the same order
        xs = np.random.default_rng(3).normal(size=(1000, 3)) * 1e3
        for layout in (np.ascontiguousarray, np.asfortranarray):
            a = layout(xs)
            std = Standardizer.from_features(a)
            assert std.means.tobytes() == xs.mean(axis=0).tobytes()
            assert std.stddevs.tobytes() == xs.std(axis=0).tobytes()
            data = Dataset(a, xs[:, 0], ("a", "b", "c"))
            assert data.features.flags.c_contiguous
            assert data.features.tobytes() == xs.tobytes()

    def test_from_features_rejects_empty_before_the_mean(self):
        # the mean of no rows would warn "Mean of empty slice" and return NaN
        with pytest.raises(DatasetError, match=r"features has shape \(0, 1\)"):
            Standardizer.from_features([])


X = [[0.0, 1.0], [1.0, 3.0], [2.0, 2.0], [3.0, 5.0]]
Y = [1.0, 2.0, 4.0, 3.0]
QUERIES = np.array([[0.5, 1.5], [2.5, 4.0]])

# each part: its stored arrays as the caller passes them, how it is built from
# them, and an answer that depends on them
STORED_ARRAYS = {
    "dataset": (
        {"features": X, "target": Y},
        lambda a: Dataset(**a, feature_names=("a", "b")),
        lambda part: part.select([2, 0]).target,
    ),
    "quantile_estimator": (
        {"points": X, "values": Y},
        lambda a: QuantileEstimator(**a, kernel=KernelConfig(1.5)),
        lambda part: part.predict_quantile_batch(QUERIES, [0.3, 0.7]),
    ),
    "standardizer": (
        {"means": [1.0, 2.0], "stddevs": [2.0, 0.5]},
        lambda a: Standardizer(**a),
        lambda part: part.transform(QUERIES),
    ),
    "ols": (
        {"coefficients": [3.0, 2.0, -1.0]},
        lambda a: FittedRegressor(kind="ols", input_dim=2, **a),
        lambda part: part.predict(QUERIES),
    ),
    "knn": (
        {"train_features": X, "train_targets": Y},
        lambda a: FittedRegressor(kind="knn", input_dim=2, knn_k=2, **a),
        lambda part: part.predict(QUERIES),
    ),
    "projection": (
        {"matrix": [[0.5, -1.0]]},
        lambda a: ProjectionMap("random_gaussian", 2, 1, **a),
        lambda part: apply_projection(part, QUERIES),
    ),
}


@pytest.mark.parametrize("name", sorted(STORED_ARRAYS))
def test_stored_arrays_are_read_only_copies(name):
    given, build, answer = STORED_ARRAYS[name]
    arrays = {key: np.array(value) for key, value in given.items()}
    part = build(arrays)
    stored = {key: getattr(part, key).copy() for key in arrays}
    before = answer(part)
    for key in arrays:
        assert not getattr(part, key).flags.writeable, key
        arrays[key] += 100.0  # the caller changes its own array afterwards
    for key, value in stored.items():
        np.testing.assert_array_equal(getattr(part, key), value)
    np.testing.assert_array_equal(answer(part), before)


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
        with pytest.raises(DatasetError, match=r"values has shape \(2,\), expected \(3,\)"):
            _sample(np.zeros((3, 2)), [1.0, 2.0])
        with pytest.raises(DatasetError, match=r"points has shape \(0, 2\), expected \(n, d\)"):
            _sample(np.zeros((0, 2)), [])
        with pytest.raises(DatasetError, match="values has a non-finite entry"):
            _sample(np.zeros((2, 1)), [1.0, np.inf])
        _sample([[1e308], [1e308]], [1e308, 1e308])  # their sum overflows

    def test_huge_finite_values_pass_without_a_warning(self):
        # the suite fails on any warning, so a check that summed would fail here
        huge = [[1e308], [1e308]]
        assert Dataset(huge, [1.0, 2.0], ("x",)).n == 2
        estimator = QuantileEstimator(huge, [1e308, -1e308], KernelConfig(1.0))
        assert estimator.predict_quantile_batch([[1e308]], [0.5]).tolist() == [[-1e308]]
        ols = FittedRegressor(kind="ols", input_dim=2, coefficients=[1.0, 0.5, -0.5])
        assert ols.predict([[1e308, 1e308], [-1e308, -1e308]]).tolist() == [1.0, 1.0]
        assert _query_rows(np.empty((0, 2)), 2).shape == (0, 2)
