"""Two-level outlier detection and refit.

Level 1 fits the full series and flags points whose residual exceeds the
99% t-band scaled by threshold1. Level 2 refits without those points (full
hyperparameter re-selection) and flags survivors beyond threshold2 times
the new band. The final model is fit on the doubly cleaned series. Points
flagged at level 1 are never reconsidered. A level that flags nothing does
not refit: the next stage keeps the model it already has, which is the
refit bit for bit.

The flagging band is a prediction-type band: per-point standard deviation
sigma_hat * sqrt(1 + q_i), where q_i is the fit-variance quadratic form.
An observation deviates from the fitted curve by its own noise plus the
fit's error, so both terms belong in the gate; a mean-curve band alone
narrows with n and would reject a large fraction of perfectly clean
points at the default thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .basis import _local_basis
# Not called here (flagging takes local values), but the benchmark's tracer
# (perfbench/tracing.py) wraps the name in this module.
from .basis import eval_basis  # noqa: F401
from .errors import ConfigError, InsufficientDataAfterRejectionError, InsufficientDataError
from .timeseries import TimeSeries

# Level-1 and level-2 multiples of the 99% band beyond which a point is flagged.
DEFAULT_THRESHOLD1 = 3.0
DEFAULT_THRESHOLD2 = 1.2


@dataclass(frozen=True)
class OutlierReport:
    level1_indices: tuple
    level2_indices: tuple
    thresholds: tuple
    final_model: core.AlpsModel
    clean_data: TimeSeries


def _flag(model: core.AlpsModel, series: TimeSeries, threshold: float) -> np.ndarray:
    _, first, values = _local_basis(model.knot_vector, series.times)
    mean, quad = core._mean_and_quad(model, first, values)
    resid = np.abs(series.values - mean)
    # Half-width of the 99% band for a new observation.
    sigma = math.sqrt(max(model.sigma2, 0.0))
    width = core._t_quantile(model, 0.01) * sigma * np.sqrt(1.0 + quad)
    # Guard against flagging pure floating-point noise when the fit is an
    # exact reproduction (band widths collapse to ~0 along with residuals).
    scale = 1e-12 * max(float(np.max(np.abs(series.values))), 1.0)
    return resid > np.maximum(threshold * width, scale)


def _fit_stage(series: TimeSeries, config: core.FitConfig, flagged,
               stage: str) -> core.AlpsModel:
    """Fit one pass, or fail with the flags accumulated so far."""
    try:
        return core.fit(series, config)
    except InsufficientDataError as exc:
        flagged = tuple(int(i) for i in flagged)
        raise InsufficientDataAfterRejectionError(
            f"{stage}: {exc}; flagged so far: {sorted(flagged)}", flagged_so_far=flagged,
        ) from exc


def detect_and_refit(
    data: TimeSeries,
    config: core.FitConfig = core.FitConfig(),
    threshold1: float = DEFAULT_THRESHOLD1,
    threshold2: float = DEFAULT_THRESHOLD2,
) -> OutlierReport:
    """Run the two-pass rejection and return flags plus the cleaned fit."""
    if threshold1 <= 0 or threshold2 <= 0:
        raise ConfigError("outlier thresholds must be positive")
    n = len(data)
    indices = np.arange(n)

    model1 = core.fit(data, config)
    level1_mask = _flag(model1, data, threshold1)
    level1 = indices[level1_mask]

    survivors = data.subset(~level1_mask)
    survivor_idx = indices[~level1_mask]
    model2 = _fit_stage(survivors, config, level1, "level 2") if level1.size else model1
    level2_mask = _flag(model2, survivors, threshold2)
    level2 = survivor_idx[level2_mask]

    clean = survivors.subset(~level2_mask)
    flagged_all = np.concatenate((level1, level2))
    final = _fit_stage(clean, config, flagged_all, "final fit") if level2.size else model2
    return OutlierReport(
        level1_indices=tuple(int(i) for i in level1),
        level2_indices=tuple(int(i) for i in level2),
        thresholds=(threshold1, threshold2),
        final_model=final,
        clean_data=clean,
    )
