"""Tabular regression datasets: CSV I/O, validation, splitting, standardization.

A dataset is a finite feature matrix plus a target vector. CSV files carry
one header row; every column is numeric, one of them is the target, and all
remaining columns are features in file order.
"""

from __future__ import annotations

import csv
import math
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
    # a finite sum has only finite terms; no temporary on that path
    return math.isfinite(a.sum()) or bool(np.isfinite(a).all())


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


def _sample(points, values) -> tuple[np.ndarray, np.ndarray]:
    """n >= 1 finite points as an (n, d) float matrix (a 1-d input is n
    points of one coordinate) and their n finite values, or DatasetError."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    values = np.asarray(values, dtype=float).ravel()
    if points.ndim != 2 or points.shape[0] < 1:
        raise DatasetError("points must form a non-empty 2-d matrix")
    if values.shape[0] != points.shape[0]:
        raise DatasetError(f"{values.shape[0]} values for {points.shape[0]} points")
    if not (_all_finite(points) and _all_finite(values)):
        raise DatasetError("points and values must be finite")
    return points, values


@dataclass(frozen=True)
class Dataset:
    """Immutable (n, d) float feature matrix with an aligned target vector.

    All values must be finite and feature names unique. Arrays are copied on
    construction and marked read-only.
    """

    features: np.ndarray
    target: np.ndarray
    feature_names: tuple[str, ...]
    target_name: str = "y"

    def __post_init__(self) -> None:
        features = np.array(self.features, dtype=float, copy=True)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if features.ndim != 2:
            raise DatasetError("features must be a 2-d matrix")
        target = np.array(self.target, dtype=float, copy=True).ravel()
        n, d = features.shape
        if n < 1 or d < 1:
            raise DatasetError("empty dataset")
        if target.shape[0] != n:
            raise DatasetError(
                f"target has {target.shape[0]} rows, features have {n}"
            )
        if not np.isfinite(features).all():
            raise DatasetError("features contain non-finite values")
        if not np.isfinite(target).all():
            raise DatasetError("target contains non-finite values")
        names = tuple(str(c) for c in self.feature_names)
        if len(names) != d:
            raise DatasetError(f"{len(names)} feature names for {d} columns")
        if len(set(names)) != d:
            raise DatasetError("feature names must be unique")
        features.setflags(write=False)
        target.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "target", target)
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

    Raises :class:`DatasetError` on a non-numeric or non-finite cell
    (reported with its line and column), a ragged row, or a file with no
    data rows; blank lines are skipped.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DatasetError(f"{path}: empty file")
        header = [h.strip() for h in header]
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise DatasetError(
                    f"{path} line {line_no}: {len(row)} cells, expected {len(header)}"
                )
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
    return tuple(header), np.asarray(rows, dtype=float)


def load_csv(path, target_column: str) -> Dataset:
    """Read a numeric CSV with a header row into a :class:`Dataset`.

    Parameters
    ----------
    path : str or path-like
        File to read. UTF-8, comma separated, no quoting needed.
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


def save_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV, features first and the target column last.

    Floats are written with full round-trip precision so that
    ``load_csv(save_csv(ds))`` reproduces the dataset exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*data.feature_names, data.target_name])
        for x_row, y in zip(data.features, data.target):
            writer.writerow([repr(float(v)) for v in x_row] + [repr(float(y))])


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
        means = np.array(self.means, dtype=float, copy=True).ravel()
        stds = np.array(self.stddevs, dtype=float, copy=True).ravel()
        if means.shape != stds.shape or means.size == 0:
            raise DatasetError("means and stddevs must be equal-length non-empty vectors")
        if not (np.isfinite(means).all() and np.isfinite(stds).all()):
            raise DatasetError("standardizer parameters must be finite")
        if (stds < 0).any():
            raise DatasetError("stddevs must be nonnegative")
        means.setflags(write=False)
        stds.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stddevs", stds)

    @classmethod
    def from_features(cls, xs: np.ndarray) -> "Standardizer":
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[0] < 1:
            raise DatasetError("expected a non-empty 2-d feature matrix")
        return cls(xs.mean(axis=0), xs.std(axis=0))

    @property
    def d(self) -> int:
        return self.means.shape[0]

    def transform(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        self._check_width(xs)
        scale = np.where(self.stddevs > 0, self.stddevs, 1.0)
        out = (xs - self.means) / scale
        out[..., self.stddevs == 0] = 0.0
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
