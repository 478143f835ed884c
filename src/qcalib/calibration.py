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
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

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


def _json_type(value, types, what: str):
    """``value`` if it is one of ``types``; JSON reads 40.5 as a float and
    true as a bool, which ``int()`` would pass."""
    if not isinstance(value, types) or isinstance(value, bool):
        raise ValueError(f"expected {what}, got {value!r}")
    return value


_string = partial(_json_type, types=str, what="a string")
_integer = partial(_json_type, types=int, what="an integer")
_number = partial(_json_type, types=(int, float), what="a number")
_object = partial(_json_type, types=dict, what="an object")
_list = partial(_json_type, types=list, what="an array")


def _floats(value) -> np.ndarray:
    # numpy converts the elements; a null among them becomes NaN, which the
    # part's own finiteness check rejects
    return np.asarray(_list(value), dtype=float)


def _unique_names(value) -> tuple:
    # predict finds columns by name, so a repeated name would read one column twice
    names = tuple(map(_string, _list(value)))
    if len(set(names)) != len(names):
        raise ValueError(f"names must be unique, got {list(names)}")
    return names


# a part field's reader, by its declared type (annotations are strings here)
_READERS = {
    "str": _string,
    "int": _integer,
    "float": lambda value: float(_number(value)),
    "np.ndarray": _floats,
    "tuple[int, ...]": lambda value: tuple(map(_integer, _list(value))),
}


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


def _part_to_dict(part) -> dict:
    """Every field of a dataclass part that is not None, arrays and tuples as lists."""
    out = {}
    for f in fields(part):
        value = getattr(part, f.name)
        if isinstance(value, np.ndarray):
            out[f.name] = value.tolist()
        elif isinstance(value, tuple):
            out[f.name] = list(value)
        elif value is not None:
            out[f.name] = value
    return out


def _part_from_dict(blob: dict, path: str, cls, **given):
    """The ``cls`` whose fields sit at ``path``, each read by its declared type.

    An absent field whose default is None is None, as :func:`_part_to_dict`
    leaves it out; ``given`` fields are not read. A part its constructor
    rejects raises :class:`DatasetError` naming all its fields but those.
    """
    part = _get(blob, path, _object)
    read = [f for f in fields(cls) if f.name not in given]
    for f in read:
        if f.name in part or f.default is not None:
            reader = _READERS[f.type.removesuffix(" | None")]
            given[f.name] = _get(blob, f"{path}.{f.name}", reader)
    try:
        return cls(**given)
    except (TypeError, ValueError) as exc:
        names = ", ".join(f"{path}.{f.name}" for f in read)
        raise DatasetError(f"model fields {names}: {exc}") from None


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
        "regressor": _part_to_dict(model.regressor),
        "standardizer": _part_to_dict(model.standardizer),
        "projection": None if model.projection is None else _part_to_dict(model.projection),
        # the kernel's fields sit beside the points they weigh
        "quantile_estimator": {
            **_part_to_dict(est.kernel),
            "points": est.points.tolist(),
            "values": est.values.tolist(),
        },
        "config": model.config,
    }


def model_from_dict(blob: dict) -> CalibratedModel:
    """The model a :func:`model_to_dict` document describes.

    A missing or malformed field raises :class:`DatasetError` naming its
    dotted path, a part its constructor rejects names every field of that
    part, and parts whose widths disagree name both.
    """
    if not isinstance(blob, dict):
        raise DatasetError(f"not a {MODEL_FORMAT} document: expected a JSON object")
    fmt = blob.get("format")
    if fmt != MODEL_FORMAT:
        raise DatasetError(f"not a {MODEL_FORMAT} document: model field format is {fmt!r}")
    version = _get(blob, "version", _integer)  # true == 1 in Python
    if version != MODEL_VERSION:
        raise DatasetError(f"model field version: unsupported model version {version!r}")
    kernel = _part_from_dict(blob, "quantile_estimator", KernelConfig)
    model = CalibratedModel(
        regressor=_part_from_dict(blob, "regressor", FittedRegressor),
        quantile_estimator=_part_from_dict(
            blob, "quantile_estimator", QuantileEstimator, kernel=kernel
        ),
        standardizer=_part_from_dict(blob, "standardizer", Standardizer),
        projection=None
        if _get(blob, "projection") is None
        else _part_from_dict(blob, "projection", ProjectionMap),
        feature_names=_get(blob, "feature_names", _unique_names),
        target_name=_get(blob, "target_name", _string),
        config=_get(blob, "config", _object),
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
    """Read a saved model; a file that is not JSON, or not a model document,
    raises DatasetError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return model_from_dict(json.load(fh))
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: {exc}") from exc
