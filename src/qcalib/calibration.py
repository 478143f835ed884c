"""End-to-end quantile calibration of a base regressor.

The pipeline splits the data into two disjoint parts, fits the base
regressor on the first, computes its residuals on the second, and fits a
local quantile estimator to those residuals over the second part's features
(standardized, optionally projected). A calibrated quantile prediction is
the regressor's output plus the local residual quantile, so any base model
gains conditional quantiles without retraining.

Setting the kernel bandwidth to ``math.inf`` degrades the estimator to the
marginal residual quantile, which is the natural uncalibrated-in-x baseline
to compare against.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset, DatasetError, SplitSpec, Standardizer, _query_rows, split
from .metrics import _interval_levels
from .projection import ProjectionMap, apply_projection
from .quantile import (
    BandwidthSearch,
    KernelConfig,
    QuantileEstimator,
    _cv_winner,
    bandwidth_cv_scores,
)
from .regressors import FittedRegressor, RegressorSpec, fit_regressor, residuals

__all__ = [
    "CalibratedModel",
    "CalibrationConfig",
    "calibrate",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "save_model",
]

MODEL_FORMAT = "qcalib.model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class CalibrationConfig:
    """Everything `calibrate` needs besides the data.

    ``kernel`` is either a fixed :class:`KernelConfig` or the string
    ``"auto"``, in which case the bandwidth is cross-validated on the
    calibration split (``bandwidth_search`` overrides the default plan,
    ``min_neighbors`` feeds the resulting kernel). ``"auto"`` does not fail
    on degenerate calibration splits: identical feature rows take the
    marginal bandwidth ``math.inf`` (every ball holds every point anyway),
    and fewer rows than folds use one fold per row.
    """

    regressor: RegressorSpec
    split: SplitSpec = field(default_factory=SplitSpec)
    kernel: KernelConfig | str = "auto"
    min_neighbors: int = 1
    bandwidth_search: BandwidthSearch | None = None
    projection: ProjectionMap | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.kernel, str) and self.kernel != "auto":
            raise ValueError(f'kernel must be a KernelConfig or "auto", got {self.kernel!r}')
        if self.min_neighbors < 1:
            raise ValueError("min_neighbors must be at least 1")


@dataclass(frozen=True)
class CalibratedModel:
    """A fitted base regressor plus the residual quantile estimator.

    Prediction-time features go through the same path as calibration: drop
    the external-predictions column if one exists, standardize with the
    calibration split's statistics, apply the projection if any.
    """

    regressor: FittedRegressor
    quantile_estimator: QuantileEstimator
    standardizer: Standardizer
    projection: ProjectionMap | None
    feature_names: tuple[str, ...]
    target_name: str
    config: dict

    @property
    def input_dim(self) -> int:
        return len(self.feature_names)

    def _quantile_columns(self) -> list[int]:
        ext = self.regressor.external_index
        return [j for j in range(self.input_dim) if j != ext]

    def transform_features(self, xs) -> np.ndarray:
        """Raw full-width feature rows to quantile-estimator coordinates."""
        # the estimator checks finiteness on the transformed rows
        xs = _query_rows(xs, self.input_dim, finite=False)
        z = self.standardizer.transform(xs[:, self._quantile_columns()])
        if self.projection is not None:
            z = apply_projection(self.projection, z)
        return z

    def predict_mean(self, xs) -> np.ndarray:
        return self.regressor.predict(xs)

    def residual_quantile(self, x, tau: float) -> float:
        """Local tau-quantile of the calibration residuals at x."""
        row = np.asarray(x, dtype=float).reshape(1, -1)
        return float(self.residual_quantile_batch(row, [tau])[0, 0])

    def residual_quantile_batch(self, xs, taus) -> np.ndarray:
        # the raw rows: standardizing sets constant columns to 0, NaN included
        xs = _query_rows(xs, self.input_dim)
        return self.quantile_estimator.predict_quantile_batch(
            self.transform_features(xs), taus
        )

    def predict_quantile(self, x, tau: float) -> float:
        """Calibrated tau-quantile: base prediction plus residual quantile."""
        row = np.asarray(x, dtype=float).reshape(1, -1)
        return float(self.predict_quantile_batch(row, [tau])[0, 0])

    def predict_quantile_batch(self, xs, taus) -> np.ndarray:
        """(n_queries, n_levels) matrix of calibrated quantiles."""
        # the regressor checks the raw rows, as residual_quantile_batch would
        base = self.regressor.predict(xs)
        quantiles = self.quantile_estimator.predict_quantile_batch(
            self.transform_features(xs), taus
        )
        return base[:, None] + quantiles

    def predict_interval(self, x, alpha: float) -> tuple[float, float]:
        """Central (1 - alpha) interval from the alpha/2 and 1 - alpha/2 quantiles."""
        levels = _interval_levels(alpha)
        row = np.asarray(x, dtype=float).reshape(1, -1)
        lo, hi = self.predict_quantile_batch(row, levels)[0]
        return float(lo), float(hi)


def calibrate(data: Dataset, cfg: CalibrationConfig) -> CalibratedModel:
    """Split, fit the base regressor, and fit the residual quantile estimator.

    The two split parts are disjoint: no row used to train the regressor
    appears among the stored quantile points. The standardizer and (with
    ``kernel="auto"``) the cross-validated bandwidth are computed on the
    calibration split only.
    """
    if data.n < 4:
        raise DatasetError(f"need at least 4 rows to calibrate, got {data.n}")
    fit_part, cal_part = split(data, cfg.split)
    regressor = fit_regressor(cfg.regressor, fit_part)
    res = residuals(regressor, cal_part)

    ext = regressor.external_index
    quantile_cols = [j for j in range(data.d) if j != ext]
    if not quantile_cols:
        raise DatasetError("no feature columns left for the quantile step")
    raw = cal_part.features[:, quantile_cols]
    standardizer = Standardizer.from_features(raw)
    z = standardizer.transform(raw)
    if cfg.projection is not None:
        z = apply_projection(cfg.projection, z)

    if isinstance(cfg.kernel, KernelConfig):
        kernel, cv = cfg.kernel, None
    else:
        search = cfg.bandwidth_search or BandwidthSearch(seed=cfg.seed)
        bandwidth, cv = _cross_validate(z, res.residuals, search)
        kernel = KernelConfig(bandwidth, cfg.min_neighbors)

    estimator = QuantileEstimator.fit(z, res.residuals, kernel)
    echo = {
        "seed": cfg.seed,
        "split": asdict(cfg.split),
        "regressor": asdict(cfg.regressor),
        "kernel": {
            "bandwidth": kernel.bandwidth,
            "min_neighbors": kernel.min_neighbors,
            "auto": cv is not None,
            **({} if cv is None else {"cv": cv}),
        },
        "projection": None
        if cfg.projection is None
        else {"kind": cfg.projection.kind, "output_dim": cfg.projection.output_dim},
        "n_fit": fit_part.n,
        "n_calibration": cal_part.n,
    }
    return CalibratedModel(
        regressor=regressor,
        quantile_estimator=estimator,
        standardizer=standardizer,
        projection=cfg.projection,
        feature_names=data.feature_names,
        target_name=data.target_name,
        config=echo,
    )


def _cross_validate(z: np.ndarray, values: np.ndarray, search: BandwidthSearch):
    """The CV bandwidth and the record of its choice for ``config``."""
    if (z == z[0]).all():
        fallback = "identical calibration features: marginal bandwidth"
        return math.inf, {"candidates": [], "scores": [], "folds": 0, "fallback": fallback}
    fallback = None
    if z.shape[0] < search.folds:
        fallback = f"{search.folds} folds clamped to the {z.shape[0]} calibration rows"
        search = replace(search, folds=z.shape[0])
    candidates, scores = bandwidth_cv_scores(z, values, search)
    return _cv_winner(candidates, scores), {
        "candidates": candidates.tolist(),
        "scores": scores.tolist(),
        "folds": search.folds,
        "fallback": fallback,
    }


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _unique_names(value) -> tuple:
    # predict finds columns by name, so a repeated name would read one column twice
    names = tuple(value)
    if len(set(names)) != len(names):
        raise ValueError(f"names must be unique, got {list(names)}")
    return names


def _get(blob: dict, path: str, read=None):
    """The value at a dotted path of a model document, passed through ``read``.

    A missing key, a non-object on the way, or a value ``read`` rejects
    raises :class:`DatasetError` naming the path.
    """
    value = blob
    try:
        for key in path.split("."):
            value = value[key]
        return value if read is None else read(value)
    except KeyError:
        raise DatasetError(f"model field {path} is missing") from None
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"model field {path}: {exc}") from None


# what each regressor kind saves besides kind and input_dim, and how to read it
_REGRESSOR_FIELDS = {
    "ols": {"coefficients": _floats},
    "knn": {"knn_k": int, "train_features": _floats, "train_targets": _floats},
    "external": {"external_column": None, "external_index": int},
}


def _regressor_to_dict(reg: FittedRegressor) -> dict:
    out: dict = {"kind": reg.kind, "input_dim": reg.input_dim}
    for name in _REGRESSOR_FIELDS[reg.kind]:
        value = getattr(reg, name)
        out[name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def _regressor_from_dict(blob: dict) -> FittedRegressor:
    kind = _get(blob, "regressor.kind", str)
    fields = _REGRESSOR_FIELDS.get(kind, {})
    return FittedRegressor(
        kind=kind,
        input_dim=_get(blob, "regressor.input_dim", int),
        **{name: _get(blob, f"regressor.{name}", read) for name, read in fields.items()},
    )


def _projection_to_dict(pmap: ProjectionMap | None) -> dict | None:
    if pmap is None:
        return None
    out: dict = {
        "kind": pmap.kind,
        "input_dim": pmap.input_dim,
        "output_dim": pmap.output_dim,
    }
    if pmap.matrix is not None:
        out["matrix"] = pmap.matrix.tolist()
    if pmap.selected_indices is not None:
        out["selected_indices"] = list(pmap.selected_indices)
    return out


def _projection_from_dict(blob: dict) -> ProjectionMap | None:
    pblob = _get(blob, "projection")
    if pblob is None:
        return None
    return ProjectionMap(
        kind=_get(blob, "projection.kind"),  # read first: it fails unless pblob is an object
        input_dim=_get(blob, "projection.input_dim", int),
        output_dim=_get(blob, "projection.output_dim", int),
        matrix=_get(blob, "projection.matrix", _floats) if "matrix" in pblob else None,
        selected_indices=_get(blob, "projection.selected_indices", lambda v: tuple(map(int, v)))
        if "selected_indices" in pblob
        else None,
    )


def model_to_dict(model: CalibratedModel) -> dict:
    """Single JSON-ready document holding every array the model needs.

    Floats round-trip exactly through ``json``, so a saved and reloaded
    model reproduces identical predictions.
    """
    est = model.quantile_estimator
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "feature_names": list(model.feature_names),
        "target_name": model.target_name,
        "regressor": _regressor_to_dict(model.regressor),
        "standardizer": {
            "means": model.standardizer.means.tolist(),
            "stddevs": model.standardizer.stddevs.tolist(),
        },
        "projection": _projection_to_dict(model.projection),
        "quantile_estimator": {
            "bandwidth": est.kernel.bandwidth,
            "min_neighbors": est.kernel.min_neighbors,
            "points": est.points.tolist(),
            "values": est.values.tolist(),
        },
        "config": model.config,
    }


def model_from_dict(blob: dict) -> CalibratedModel:
    """The model a :func:`model_to_dict` document describes.

    A missing or malformed field raises :class:`DatasetError` naming its
    dotted path, and so do parts whose widths disagree (naming both); other
    fields that do not fit together raise ``ValueError``.
    """
    if not isinstance(blob, dict):
        raise DatasetError(f"not a {MODEL_FORMAT} document: expected a JSON object")
    if blob.get("format") != MODEL_FORMAT:
        raise DatasetError(f"not a {MODEL_FORMAT} document")
    if blob.get("version") != MODEL_VERSION:
        raise DatasetError(f"unsupported model version {blob.get('version')!r}")
    estimator = QuantileEstimator(
        points=_get(blob, "quantile_estimator.points", _floats),
        values=_get(blob, "quantile_estimator.values", _floats),
        kernel=KernelConfig(
            _get(blob, "quantile_estimator.bandwidth", float),
            _get(blob, "quantile_estimator.min_neighbors", int),
        ),
    )
    means = _get(blob, "standardizer.means", _floats)
    stddevs = _get(blob, "standardizer.stddevs", _floats)
    try:
        standardizer = Standardizer(means, stddevs)
    except DatasetError as exc:
        raise DatasetError(
            f"model fields standardizer.means and standardizer.stddevs: {exc}"
        ) from None
    model = CalibratedModel(
        regressor=_regressor_from_dict(blob),
        quantile_estimator=estimator,
        standardizer=standardizer,
        projection=_projection_from_dict(blob),
        feature_names=_get(blob, "feature_names", _unique_names),
        target_name=_get(blob, "target_name"),
        config=_get(blob, "config"),
    )
    _check_widths(model)
    return model


def _check_widths(model: CalibratedModel) -> None:
    """DatasetError naming both fields where two parts of a model disagree on
    a width, checked in the order the parts are applied."""
    pmap, width = model.projection, model.standardizer.d
    columns = len(model._quantile_columns())
    pairs = [
        ("regressor.input_dim", model.regressor.input_dim, "feature_names", model.input_dim),
        ("standardizer.means", width, "non-external feature_names", columns),
    ]
    last = ("standardizer.means", width)
    if pmap is not None:
        pairs.append(("projection.input_dim", pmap.input_dim, "standardizer.means", width))
        last = ("projection.output_dim", pmap.output_dim)
    pairs.append(("quantile_estimator.points", model.quantile_estimator.dim, *last))
    for name, got, other, want in pairs:
        if got != want:
            raise DatasetError(f"model field {name} has width {got}, but {other} has {want}")


def save_model(model: CalibratedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> CalibratedModel:
    """Read a saved model; a malformed document raises DatasetError naming the file."""
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    try:
        return model_from_dict(blob)
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: {exc}") from exc
