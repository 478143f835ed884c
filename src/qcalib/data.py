"""Tabular regression datasets: CSV I/O, validation, splitting, standardization.

A dataset is a finite feature matrix plus a target vector. CSV files carry
one header row; every column is numeric, one of them is the target, and all
remaining columns are features in file order.

Every stored array, here and in the other parts of a model, is a read-only,
finite float copy made by :func:`_frozen`, so a caller who later changes the
array it passed in changes nothing stored.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "DatasetError",
    "SplitSpec",
    "Standardizer",
    "apply_standardizer",
    "fit_standardizer",
    "load_csv",
    "read_numeric_csv",
    "save_csv",
    "split",
]


class DatasetError(ValueError):
    """Malformed tabular input or an invalid dataset operation."""


def _all_finite(a: np.ndarray) -> bool:
    # NaN and the infinities win a max or a min, which, unlike a sum, cannot
    # overflow and, unlike isfinite, make no temporary; an empty array is finite
    top = np.maximum.reduce(a, axis=None, initial=0.0)
    return math.isfinite(top) and math.isfinite(np.minimum.reduce(a, axis=None, initial=0.0))


def _query_rows(xs, width: int, finite: bool = True) -> np.ndarray:
    """``xs`` as an (n, width) float matrix, or :class:`DatasetError`.

    A 1-d input is n rows of one value when ``width`` is 1, else one row.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs.reshape(-1, 1) if width == 1 else xs.reshape(1, -1)
    if xs.ndim != 2 or xs.shape[1] != width:
        raise DatasetError(f"queries have shape {xs.shape}, expected (n, {width})")
    if finite and not _all_finite(xs):
        row = int(np.argmin(np.isfinite(xs).all(axis=1)))
        raise DatasetError(f"query row {row} has a non-finite value")
    return xs


def _frozen(value, what: str, shape: tuple) -> np.ndarray:
    """A read-only, finite float copy of ``value`` of the given shape, or
    :class:`DatasetError` naming ``what`` and both shapes.

    A None in ``shape`` matches any length of at least 1. A vector and a
    one-column matrix stand for each other. The copy is C-ordered whatever
    the input's layout, so sums over its rows round alike for every caller.
    """
    a = np.array(value, dtype=float, order="C")
    if a.ndim == 1 and len(shape) == 2:
        a = a.reshape(-1, 1)
    elif a.ndim == 2 and a.shape[1] == 1 and len(shape) == 1:
        a = a.reshape(-1)
    if a.ndim != len(shape) or any(
        n < 1 if want is None else n != want for n, want in zip(a.shape, shape)
    ):
        dims = ", ".join("nd"[i] if want is None else str(want) for i, want in enumerate(shape))
        dims += "," if len(shape) == 1 else ""
        raise DatasetError(f"{what} has shape {a.shape}, expected ({dims})")
    if not _all_finite(a):
        raise DatasetError(f"{what} has a non-finite entry")
    a.setflags(write=False)
    return a


def _sample(points, values) -> tuple[np.ndarray, np.ndarray]:
    """n >= 1 points as an (n, d) matrix (a 1-d input is n points of one
    coordinate) and their n values, each :func:`_frozen`."""
    points = _frozen(points, "points", (None, None))
    return points, _frozen(values, "values", points.shape[:1])


def _index(value, what: str) -> int:
    """``value`` as an int if it is an integer, numpy's included, else ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Dataset:
    """Immutable (n, d) float feature matrix with an aligned target vector.

    Feature names must be unique.
    """

    features: np.ndarray
    target: np.ndarray
    feature_names: tuple[str, ...]
    target_name: str = "y"

    def __post_init__(self) -> None:
        features = _frozen(self.features, "features", (None, None))
        n, d = features.shape
        names = tuple(str(c) for c in self.feature_names)
        if len(names) != d:
            raise DatasetError(f"{len(names)} feature names for {d} columns")
        if len(set(names)) != d:
            raise DatasetError("feature names must be unique")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "target", _frozen(self.target, "target", (n,)))
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def select(self, rows: np.ndarray) -> "Dataset":
        """New dataset holding the given rows, in the given order."""
        rows = np.asarray(rows)
        return Dataset(
            self.features[rows], self.target[rows], self.feature_names, self.target_name
        )


def read_numeric_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a headered all-numeric CSV as (column names, float matrix).

    The file is UTF-8, with or without a byte order mark. Raises
    :class:`DatasetError` naming the file on bytes that are not UTF-8, a
    blank or repeated header cell, a non-numeric or non-finite cell
    (reported with its line and column), a ragged row, or a file with no
    data rows; blank lines are skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header, rows = _numeric_rows(path, csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    return header, np.asarray(rows, dtype=float)


def _numeric_rows(path, reader) -> tuple[tuple[str, ...], list[list[float]]]:
    header = next(reader, None)
    if header is None:
        raise DatasetError(f"{path}: empty file")
    header = [h.strip() for h in header]
    first: dict[str, int] = {}
    for column, name in enumerate(header, start=1):
        if not name:
            raise DatasetError(f"{path}: header column {column} is blank")
        if first.setdefault(name, column) != column:
            raise DatasetError(f"{path}: header column {column} repeats {name!r}")
    rows: list[list[float]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != len(header):
            raise DatasetError(f"{path} line {line_no}: {len(row)} cells, expected {len(header)}")
        parsed = []
        for name, cell in zip(header, row):
            text = cell.strip()
            try:
                value = float(text)
            except ValueError:
                raise DatasetError(
                    f"{path} line {line_no} column {name!r}: not a number: {text!r}"
                ) from None
            if not math.isfinite(value):
                raise DatasetError(
                    f"{path} line {line_no} column {name!r}: non-finite value {text!r}"
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise DatasetError(f"{path}: empty dataset")
    return tuple(header), rows


def load_csv(path, target_column: str) -> Dataset:
    """Read a numeric CSV with a header row into a :class:`Dataset`.

    Parameters
    ----------
    path : str or path-like
        File to read. UTF-8 (a byte order mark is skipped), comma
        separated, no quoting needed.
    target_column : str
        Header name of the target column; every other column becomes a
        feature, keeping file order.

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    DatasetError
        On a missing target column, a malformed cell or row (see
        :func:`read_numeric_csv`), or a file with no data rows.
    """
    header, table = read_numeric_csv(path)
    if target_column not in header:
        raise DatasetError(f"{path}: no column named {target_column!r}")
    if len(header) < 2:
        raise DatasetError(f"{path}: no feature columns besides the target")
    target_idx = header.index(target_column)
    target = table[:, target_idx]
    features = np.delete(table, target_idx, axis=1)
    names = tuple(h for i, h in enumerate(header) if i != target_idx)
    return Dataset(features, target, names, target_column)


@contextlib.contextmanager
def _created(path, newline=None):
    """``path`` opened for writing UTF-8 text, and removed again if the write
    fails; a path that cannot be opened is left as it is."""
    fh = open(path, "w", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(path)
        raise


def _write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with _created(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    # repr is the shortest text that reads back as the same float
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_csv(path, header, rows) -> None:
    """Write a header and ``rows``, one at a time, as comma-separated cells.

    ``rows`` is an iterable of rows or a float matrix. A float cell, numpy's
    included, is written so that it reads back exactly; other cells as text.
    """
    if isinstance(rows, np.ndarray):
        rows = map(np.ndarray.tolist, rows)  # Python floats format faster
    with _created(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_cell, row) for row in rows)


def save_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV, features first and the target column last.

    ``load_csv(save_csv(ds))`` reproduces the dataset exactly.
    """
    table = np.column_stack([data.features, data.target])
    _write_csv(path, [*data.feature_names, data.target_name], table)


@dataclass(frozen=True)
class SplitSpec:
    """How to split a dataset into two disjoint row subsets."""

    fraction_train: float = 0.5
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction_train < 1.0:
            raise DatasetError(
                f"fraction_train must lie strictly inside (0, 1), got {self.fraction_train}"
            )


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Partition rows into two non-empty datasets.

    The first part gets ``round(fraction_train * n)`` rows (half up),
    clamped so both parts keep at least one row. With ``shuffle`` the row
    order comes from a seeded permutation, otherwise the first part is the
    file-order prefix. Deterministic given the spec.
    """
    n = data.n
    if n < 2:
        raise DatasetError("need at least 2 rows to split")
    n_first = int(math.floor(spec.fraction_train * n + 0.5))
    n_first = min(max(n_first, 1), n - 1)
    if spec.shuffle:
        order = np.random.default_rng(spec.seed).permutation(n)
    else:
        order = np.arange(n)
    return data.select(order[:n_first]), data.select(order[n_first:])


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine map to zero mean and unit spread.

    Spread is the population standard deviation (denominator n). Constant
    columns carry no scale information and are mapped to zero; their inverse
    restores the stored mean.
    """

    means: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self) -> None:
        means = _frozen(self.means, "means", (None,))
        stds = _frozen(self.stddevs, "stddevs", means.shape)
        if (stds < 0).any():
            raise DatasetError("stddevs must be nonnegative")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stddevs", stds)
        # what transform reads on every query: the divisors and the constant columns
        object.__setattr__(self, "_scale", np.where(stds > 0, stds, 1.0))
        object.__setattr__(self, "_constant", (stds == 0).nonzero()[0])

    @classmethod
    def from_features(cls, xs: np.ndarray) -> "Standardizer":
        xs = _frozen(xs, "features", (None, None))
        return cls(xs.mean(axis=0), xs.std(axis=0))

    @property
    def d(self) -> int:
        return self.means.shape[0]

    def transform(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        self._check_width(xs)
        out = (xs - self.means) / self._scale
        if self._constant.size:
            out[..., self._constant] = 0.0
        return out

    def inverse(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        self._check_width(xs)
        # constant columns were zeroed, so the inverse is just the mean there
        return xs * np.where(self.stddevs > 0, self.stddevs, 0.0) + self.means

    def _check_width(self, xs: np.ndarray) -> None:
        if xs.shape[-1] != self.d:
            raise DatasetError(
                f"matrix has {xs.shape[-1]} columns, standardizer expects {self.d}"
            )


def fit_standardizer(data: Dataset) -> Standardizer:
    """Column means and population stddevs of the dataset's features."""
    return Standardizer.from_features(data.features)


def apply_standardizer(standardizer: Standardizer, data: Dataset) -> Dataset:
    """Dataset with standardized features; the target is left untouched."""
    return Dataset(
        standardizer.transform(data.features),
        data.target,
        data.feature_names,
        data.target_name,
    )
