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
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, DatasetError, SplitSpec, Standardizer, split
from .metrics import TauGrid
from .projection import ProjectionMap, apply_projection
from .quantile import BandwidthSearch, KernelConfig, QuantileEstimator, select_bandwidth
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
    ``min_neighbors`` feeds the resulting kernel).
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
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs.reshape(1, -1) if self.input_dim > 1 else xs.reshape(-1, 1)
        if xs.ndim != 2 or xs.shape[1] != self.input_dim:
            raise DatasetError(
                f"queries have {xs.shape[-1]} columns, model expects {self.input_dim}"
            )
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
        return self.quantile_estimator.predict_quantile_batch(
            self.transform_features(xs), taus
        )

    def predict_quantile(self, x, tau: float) -> float:
        """Calibrated tau-quantile: base prediction plus residual quantile."""
        row = np.asarray(x, dtype=float).reshape(1, -1)
        return float(self.predict_quantile_batch(row, [tau])[0, 0])

    def predict_quantile_batch(self, xs, taus) -> np.ndarray:
        """(n_queries, n_levels) matrix of calibrated quantiles."""
        return self.regressor.predict(xs)[:, None] + self.residual_quantile_batch(xs, taus)

    def predict_interval(self, x, alpha: float) -> tuple[float, float]:
        """Central (1 - alpha) interval from the alpha/2 and 1 - alpha/2 quantiles."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
        row = np.asarray(x, dtype=float).reshape(1, -1)
        lo, hi = self.predict_quantile_batch(row, TauGrid([alpha / 2.0, 1.0 - alpha / 2.0]))[0]
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
        kernel = cfg.kernel
        auto = False
    else:
        search = cfg.bandwidth_search or BandwidthSearch(seed=cfg.seed)
        bandwidth = select_bandwidth(z, res.residuals, search)
        kernel = KernelConfig(bandwidth, cfg.min_neighbors)
        auto = True

    estimator = QuantileEstimator.fit(z, res.residuals, kernel)
    echo = {
        "seed": cfg.seed,
        "split": {
            "fraction_train": cfg.split.fraction_train,
            "seed": cfg.split.seed,
            "shuffle": cfg.split.shuffle,
        },
        "regressor": {
            "kind": cfg.regressor.kind,
            "knn_k": cfg.regressor.knn_k,
            "external_column": cfg.regressor.external_column,
        },
        "kernel": {
            "bandwidth": kernel.bandwidth,
            "min_neighbors": kernel.min_neighbors,
            "auto": auto,
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


def _regressor_to_dict(reg: FittedRegressor) -> dict:
    out: dict = {"kind": reg.kind, "input_dim": reg.input_dim}
    if reg.kind == "ols":
        out["coefficients"] = [float(c) for c in reg.coefficients]
    elif reg.kind == "knn":
        out["knn_k"] = reg.knn_k
        out["train_features"] = [[float(v) for v in row] for row in reg.train_features]
        out["train_targets"] = [float(v) for v in reg.train_targets]
    else:
        out["external_column"] = reg.external_column
        out["external_index"] = reg.external_index
    return out


def _regressor_from_dict(blob: dict) -> FittedRegressor:
    kind = blob["kind"]
    if kind == "ols":
        return FittedRegressor(
            kind="ols",
            input_dim=blob["input_dim"],
            coefficients=np.asarray(blob["coefficients"], dtype=float),
        )
    if kind == "knn":
        return FittedRegressor(
            kind="knn",
            input_dim=blob["input_dim"],
            train_features=np.asarray(blob["train_features"], dtype=float),
            train_targets=np.asarray(blob["train_targets"], dtype=float),
            knn_k=blob["knn_k"],
        )
    return FittedRegressor(
        kind="external",
        input_dim=blob["input_dim"],
        external_column=blob["external_column"],
        external_index=blob["external_index"],
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
        out["matrix"] = [[float(v) for v in row] for row in pmap.matrix]
    if pmap.selected_indices is not None:
        out["selected_indices"] = list(pmap.selected_indices)
    return out


def _projection_from_dict(blob: dict | None) -> ProjectionMap | None:
    if blob is None:
        return None
    return ProjectionMap(
        kind=blob["kind"],
        input_dim=blob["input_dim"],
        output_dim=blob["output_dim"],
        matrix=None if "matrix" not in blob else np.asarray(blob["matrix"], dtype=float),
        selected_indices=None
        if "selected_indices" not in blob
        else tuple(blob["selected_indices"]),
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
            "means": [float(v) for v in model.standardizer.means],
            "stddevs": [float(v) for v in model.standardizer.stddevs],
        },
        "projection": _projection_to_dict(model.projection),
        "quantile_estimator": {
            "bandwidth": est.kernel.bandwidth,
            "min_neighbors": est.kernel.min_neighbors,
            "points": [[float(v) for v in row] for row in est.points],
            "values": [float(v) for v in est.values],
        },
        "config": model.config,
    }


def model_from_dict(blob: dict) -> CalibratedModel:
    if not isinstance(blob, dict):
        raise DatasetError(f"not a {MODEL_FORMAT} document: expected a JSON object")
    if blob.get("format") != MODEL_FORMAT:
        raise DatasetError(f"not a {MODEL_FORMAT} document")
    if blob.get("version") != MODEL_VERSION:
        raise DatasetError(f"unsupported model version {blob.get('version')!r}")
    est_blob = blob["quantile_estimator"]
    estimator = QuantileEstimator(
        points=np.asarray(est_blob["points"], dtype=float),
        values=np.asarray(est_blob["values"], dtype=float),
        kernel=KernelConfig(float(est_blob["bandwidth"]), int(est_blob["min_neighbors"])),
    )
    return CalibratedModel(
        regressor=_regressor_from_dict(blob["regressor"]),
        quantile_estimator=estimator,
        standardizer=Standardizer(
            np.asarray(blob["standardizer"]["means"], dtype=float),
            np.asarray(blob["standardizer"]["stddevs"], dtype=float),
        ),
        projection=_projection_from_dict(blob["projection"]),
        feature_names=tuple(blob["feature_names"]),
        target_name=blob["target_name"],
        config=blob["config"],
    )


def save_model(model: CalibratedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> CalibratedModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
