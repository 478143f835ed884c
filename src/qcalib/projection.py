"""Dimension reduction applied to features before quantile estimation.

Two constructions: a seeded Gaussian random projection (entries i.i.d.
N(0, 1/d), variance chosen so squared norms are preserved in expectation)
and plain covariate selection by absolute Pearson correlation with the
target. Both collapse to the identity when no reduction is requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _query_rows

__all__ = [
    "ProjectionMap",
    "apply_projection",
    "correlation_select",
    "gaussian_projection",
]

_KINDS = ("identity", "random_gaussian", "covariate_select")


@dataclass(frozen=True)
class ProjectionMap:
    """A fixed linear map from input_dim coordinates to output_dim."""

    kind: str
    input_dim: int
    output_dim: int
    matrix: np.ndarray | None = None
    selected_indices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown projection kind {self.kind!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("projection dimensions must be positive")
        if self.kind == "identity":
            if self.output_dim != self.input_dim:
                raise ValueError("identity projection cannot change dimension")
        elif self.kind == "random_gaussian":
            m = np.array(self.matrix, dtype=float, copy=True)
            if m.shape != (self.output_dim, self.input_dim):
                raise ValueError(
                    f"matrix shape {m.shape} != ({self.output_dim}, {self.input_dim})"
                )
            if not np.isfinite(m).all():
                raise ValueError("projection matrix must be finite")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        else:
            idx = tuple(int(i) for i in self.selected_indices)
            if len(idx) != self.output_dim:
                raise ValueError(f"{len(idx)} selected columns for output_dim {self.output_dim}")
            if len(set(idx)) != len(idx):
                raise ValueError("selected columns must be distinct")
            if any(i < 0 or i >= self.input_dim for i in idx):
                raise ValueError("selected column out of range")
            object.__setattr__(self, "selected_indices", idx)


def gaussian_projection(d: int, d0: int, seed: int = 0) -> ProjectionMap:
    """Random (d0, d) Gaussian map, or the identity when d0 >= d.

    Entries are i.i.d. N(0, 1/d), so E||Px||^2 = (d0/d) ||x||^2 per
    coordinate budget; deterministic given the seed.
    """
    if d < 1 or d0 < 1:
        raise ValueError("dimensions must be positive")
    if d0 >= d:
        return ProjectionMap("identity", d, d)
    matrix = np.random.default_rng(seed).normal(0.0, math.sqrt(1.0 / d), size=(d0, d))
    return ProjectionMap("random_gaussian", d, d0, matrix=matrix)


def _abs_pearson(column: np.ndarray, target: np.ndarray) -> float:
    xc = column - column.mean()
    yc = target - target.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return 0.0  # constant column or constant target carries no signal
    return abs(float(xc @ yc) / denom)


def correlation_select(data: Dataset, d0: int) -> ProjectionMap:
    """Keep the d0 columns most correlated (in absolute value) with the target.

    Scores come from the full dataset, before any splitting. Ties resolve to
    the lower column index; zero-variance columns score 0. Collapses to the
    identity when d0 >= d.
    """
    if d0 < 1:
        raise ValueError("d0 must be positive")
    if d0 >= data.d:
        return ProjectionMap("identity", data.d, data.d)
    scores = np.array(
        [_abs_pearson(data.features[:, j], data.target) for j in range(data.d)]
    )
    order = np.argsort(-scores, kind="stable")  # stable: ties keep index order
    keep = tuple(int(i) for i in order[:d0])
    return ProjectionMap("covariate_select", data.d, d0, selected_indices=keep)


def apply_projection(pmap: ProjectionMap, xs) -> np.ndarray:
    """Map an (n, input_dim) matrix through the projection.

    A 1-d input is n rows when ``input_dim`` is 1, else one row. Values are
    not checked for finiteness; the quantile estimator checks its queries.
    """
    xs = _query_rows(xs, pmap.input_dim, finite=False)
    if pmap.kind == "identity":
        return xs
    if pmap.kind == "random_gaussian":
        return xs @ pmap.matrix.T
    return xs[:, list(pmap.selected_indices)]
