"""Model-agnostic quantile calibration via local residual quantiles.

Wrap any point regressor, estimate conditional quantiles of its residuals
from held-out data with a distance-cutoff kernel, and ship predictive
quantiles and intervals that are calibrated per input region rather than
only on average. Includes evaluation metrics, synthetic benchmark
generators, dimension reduction for the quantile step, and a CLI
(``qcalib --help``).
"""

from . import calibration, data, metrics, projection, quantile, reference, regressors, synthetic
from .calibration import *  # noqa: F403
from .data import *  # noqa: F403
from .metrics import *  # noqa: F403
from .projection import *  # noqa: F403
from .quantile import *  # noqa: F403
from .reference import *  # noqa: F403
from .regressors import *  # noqa: F403
from .synthetic import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (calibration, data, metrics, projection, quantile, reference, regressors, synthetic)
    for name in module.__all__
)
