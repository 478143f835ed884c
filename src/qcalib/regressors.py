"""Base regressors whose point predictions get quantile-calibrated.

Three kinds: ordinary least squares with an intercept, k-nearest-neighbor
averaging, and "external" passthrough for predictions produced elsewhere and
shipped as an extra numeric column.

Predictions are computed row by row in a way that does not depend on how
many rows are asked for or how they are laid out in memory, so one row
predicted alone equals the same row inside any batch, bit for bit. kNN
neighbors come from :func:`qcalib.neighbors.k_nearest`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, DatasetError, _frozen, _index, _query_rows
from .neighbors import KeySortedPoints, k_nearest

__all__ = [
    "FittedRegressor",
    "RegressorSpec",
    "ResidualSample",
    "fit_regressor",
    "residuals",
]

_KINDS = ("ols", "knn", "external")


@dataclass(frozen=True)
class RegressorSpec:
    """Which base regressor to fit and its hyperparameters."""

    kind: str
    knn_k: int = 5
    external_column: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown regressor kind {self.kind!r}, expected one of {_KINDS}")
        object.__setattr__(self, "knn_k", _index(self.knn_k, "knn_k"))
        if self.kind == "knn" and self.knn_k < 1:
            raise ValueError(f"knn_k must be at least 1, got {self.knn_k}")
        if self.kind == "external" and not self.external_column:
            raise ValueError("external regressor needs the predictions column name")


@dataclass(frozen=True)
class FittedRegressor:
    """A fitted base model; ``predict`` maps an (n, d) matrix to n values.

    For ``ols`` the coefficient vector has the intercept first. For ``knn``
    the training sample is stored verbatim; the neighbor scan reads its
    features through a key-sorted store, never serialized. For ``external``
    predictions are read straight out of the stored feature column.
    """

    kind: str
    input_dim: int
    coefficients: np.ndarray | None = None
    train_features: np.ndarray | None = None
    train_targets: np.ndarray | None = None
    knn_k: int | None = None
    external_column: str | None = None
    external_index: int | None = None

    def __post_init__(self) -> None:
        # fields that do not fit input_dim would broadcast to wrong answers
        d = self.input_dim
        if self.kind == "ols":
            coefficients = _frozen(self.coefficients, "coefficients", (d + 1,))
            object.__setattr__(self, "coefficients", coefficients)
        elif self.kind == "knn":
            features = _frozen(self.train_features, "train_features", (None, d))
            n = features.shape[0]
            k = None if self.knn_k is None else _index(self.knn_k, "knn_k")
            if k is None or not 1 <= k <= n:
                raise DatasetError(
                    f"knn_k={self.knn_k} is unset, below 1 or exceeds the {n} training rows"
                )
            targets = _frozen(self.train_targets, "train_targets", (n,))
            object.__setattr__(self, "knn_k", k)
            object.__setattr__(self, "train_features", features)
            object.__setattr__(self, "train_targets", targets)
            object.__setattr__(self, "_store", KeySortedPoints(features))
        elif self.kind == "external":
            if self.external_index is None or not 0 <= self.external_index < d:
                raise DatasetError(f"external_index {self.external_index} is outside input_dim {d}")
        else:
            raise DatasetError(f"unknown regressor kind {self.kind!r}, expected one of {_KINDS}")

    def predict(self, xs) -> np.ndarray:
        return self._predict(xs, slabs=False)

    def _predict(self, xs, slabs: bool) -> np.ndarray:
        """``predict``; with ``slabs`` a kNN scan may read key slabs, see
        :func:`qcalib.neighbors.k_nearest`."""
        xs = _query_rows(xs, self.input_dim)
        if self.kind == "ols":
            # an elementwise product summed along contiguous rows rounds the
            # same for every row; a matrix-vector product does not
            terms = np.ascontiguousarray(xs) * self.coefficients[1:]
            return terms.sum(axis=1) + self.coefficients[0]
        if self.kind == "external":
            return xs[:, self.external_index].copy()
        # equal distances resolve to the lower index, as a stable sort would
        nearest = k_nearest(xs, self._store, self.knn_k, slabs)
        # np.mean's own sum and division, without its Python wrapper
        return self.train_targets[nearest].sum(axis=1) / self.knn_k


def fit_regressor(spec: RegressorSpec, train: Dataset) -> FittedRegressor:
    """Fit the base model on a training dataset.

    OLS solves the normal equations, falling back to a small ridge shift
    (1e-8 on the diagonal) whenever they are numerically singular, so
    duplicated columns degrade gracefully and deterministically. kNN stores
    the data; ``external`` just resolves its column name.
    """
    if spec.kind == "ols":
        design = np.column_stack([np.ones(train.n), train.features])
        gram = design.T @ design
        rhs = design.T @ train.target
        svals = np.linalg.svd(gram, compute_uv=False)
        if svals[0] <= 0 or svals[-1] <= svals[0] * 1e-12:
            gram = gram + 1e-8 * np.eye(gram.shape[0])
        beta = np.linalg.solve(gram, rhs)
        return FittedRegressor(kind="ols", input_dim=train.d, coefficients=beta)
    if spec.kind == "knn":
        return FittedRegressor(
            kind="knn",
            input_dim=train.d,
            train_features=train.features,
            train_targets=train.target,
            knn_k=spec.knn_k,
        )
    return FittedRegressor(
        kind="external",
        input_dim=train.d,
        external_column=spec.external_column,
        external_index=_external_index(spec, train.feature_names),
    )


def _external_index(spec: RegressorSpec, names) -> int | None:
    """Where in ``names`` an external regressor reads its predictions; None
    for the other kinds."""
    if spec.kind != "external":
        return None
    try:
        return names.index(spec.external_column)
    except ValueError:
        raise ValueError(
            f"no column named {spec.external_column!r} holds the external predictions"
        ) from None


@dataclass(frozen=True)
class ResidualSample:
    """Feature rows paired with target minus prediction, order preserved."""

    points: np.ndarray
    residuals: np.ndarray


def residuals(model: FittedRegressor, data: Dataset) -> ResidualSample:
    """Exact elementwise residuals of the model on a dataset; the kNN
    scan reads key slabs, with the same predictions."""
    preds = model._predict(data.features, slabs=True)
    return ResidualSample(points=data.features, residuals=data.target - preds)
