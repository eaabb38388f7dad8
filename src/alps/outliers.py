"""Two-level outlier detection and refit.

Each level runs the same stage on the series that is left: flag the points
whose residual from the current model exceeds the 99% t-band scaled by the
level's threshold (threshold1, then threshold2), drop them, and refit the
rest with full hyperparameter re-selection. Level 1 flags against the fit
of the full series, level 2 against the refit without level 1's points,
and the final model is the refit after level 2. Points flagged at level 1
are never reconsidered. A level that flags nothing does not refit: the next
stage keeps the model it already has, which is the refit bit for bit.

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

from . import _student_t, core
from .basis import eval_basis
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
    mean, quad = core._mean_and_quad(model, eval_basis(model.knot_vector, series.times))
    resid = np.abs(series.values - mean)
    # Half-width of the 99% band for a new observation.
    sigma = math.sqrt(max(model.sigma2, 0.0))
    width = _student_t.quantile(model.df_res, 0.01) * sigma * np.sqrt(1.0 + quad)
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
    """Run the two-level rejection and return flags plus the cleaned fit."""
    if not (0 < threshold1 < math.inf and 0 < threshold2 < math.inf):
        raise ConfigError(f"outlier thresholds must be finite and > 0, got "
                          f"{threshold1!r} and {threshold2!r}")
    series, origin, model = data, np.arange(len(data)), core.fit(data, config)
    levels = []
    for threshold, stage in ((threshold1, "level 2"), (threshold2, "final fit")):
        mask = _flag(model, series, threshold)
        levels.append(tuple(int(i) for i in origin[mask]))
        if levels[-1]:
            series, origin = series.subset(~mask), origin[~mask]
            model = _fit_stage(series, config, sum(levels, ()), stage)
    return OutlierReport(
        level1_indices=levels[0],
        level2_indices=levels[1],
        thresholds=(threshold1, threshold2),
        final_model=model,
        clean_data=series,
    )
