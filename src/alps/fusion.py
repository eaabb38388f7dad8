"""Fusion of sparse observations with a dense companion series.

The dense series (e.g. a surface-process model sampled every 10 days) is
shifted vertically onto the first observation, the slowly varying residual
component is extracted at the observation epochs, modeled with the spline
fit, and added back to the dense series to produce a high-resolution
reconstruction with confidence bands. Band widths reflect the residual
model only; systematic errors of both inputs are assumed negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import CoverageError, InvalidInputError, OutOfDomainError
from .timeseries import TimeSeries


@dataclass(frozen=True)
class FusionInput:
    observations: TimeSeries
    dense_model: TimeSeries

    def __post_init__(self):
        if np.any(np.diff(self.dense_model.times) <= 0):
            raise InvalidInputError("dense model epochs must be strictly increasing")
        lo, hi = self.dense_model.span
        obs = self.observations.times
        outside = (obs < lo) | (obs > hi)
        if np.any(outside):
            raise CoverageError(
                f"observation epochs outside dense-model span [{lo}, {hi}]: "
                f"{np.asarray(obs)[outside].tolist()}"
            )


@dataclass(frozen=True)
class FusionResult:
    difference_series: TimeSeries
    dibc_model: core.AlpsModel
    reconstruction: core.PredictionBand


def align_dense_model(inp: FusionInput) -> TimeSeries:
    """Shift the dense series by a constant so it passes through the first
    observation (linear interpolation between the bracketing samples)."""
    obs, dense = inp.observations, inp.dense_model
    at_first = float(np.interp(obs.times[0], dense.times, dense.values))
    shift = float(obs.values[0]) - at_first
    return dense.with_values(dense.values + shift)


def compute_difference(inp: FusionInput) -> TimeSeries:
    """Observation minus the aligned dense series at each observation epoch."""
    aligned = align_dense_model(inp)
    obs = inp.observations
    dense_at_obs = np.interp(obs.times, aligned.times, aligned.values)
    return TimeSeries(obs.times, obs.values - dense_at_obs, obs.sigma)


def reconstruct(
    inp: FusionInput, config: core.FitConfig = core.FitConfig(), alpha: float = core.DEFAULT_ALPHA
) -> FusionResult:
    """High-resolution reconstruction: aligned dense series plus the fitted
    slow component, evaluated at every dense epoch inside the observation
    span."""
    diff = compute_difference(inp)
    dibc_model = core.fit(diff, config)
    aligned = align_dense_model(inp)
    lo, hi = dibc_model.domain
    mask = (aligned.times >= lo) & (aligned.times <= hi)
    epochs = aligned.times[mask]
    band = core.predict(dibc_model, epochs, alpha=alpha)
    reconstruction = core.PredictionBand(
        epochs=epochs,
        mean=aligned.values[mask] + band.mean,
        std=band.std,
        half_width=band.half_width,
        alpha=alpha,
    )
    return FusionResult(
        difference_series=diff, dibc_model=dibc_model, reconstruction=reconstruction
    )


def month_start_grid(start_year: int, end_year: int) -> np.ndarray:
    """Decimal-year epochs for the first day of each calendar month from
    January of start_year through December of end_year."""
    years = np.arange(start_year, end_year + 1)
    months = np.arange(12)
    return (years[:, None] + months[None, :] / 12.0).ravel()


@dataclass(frozen=True)
class CrossSeriesTable:
    """Monthly pairing of one model's rate of change against another
    model's value, with the rate's standard deviation."""

    epochs: np.ndarray
    rate_a: np.ndarray
    rate_a_std: np.ndarray
    value_b: np.ndarray


def cross_series_table(
    model_a: core.AlpsModel,
    model_b: core.AlpsModel,
    grid,
    monthly_rate: bool = False,
) -> CrossSeriesTable:
    """Tabulate d(model_a)/dt (with its std) against model_b's mean on a
    shared epoch grid.

    ``monthly_rate=True`` rescales per-year rates to per-month, the
    convention used when quoting thinning rates against kilometre-scale
    terminus positions.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    for model, name in ((model_a, "model_a"), (model_b, "model_b")):
        lo, hi = model.domain
        if np.any((grid < lo) | (grid > hi)):
            raise OutOfDomainError(f"grid epochs outside {name} domain [{lo}, {hi}]")
    deriv = core.predict_derivative(model_a, grid)
    value = core.predict(model_b, grid)
    scale = 1.0 / 12.0 if monthly_rate else 1.0
    return CrossSeriesTable(
        epochs=grid,
        rate_a=deriv.mean * scale,
        rate_a_std=deriv.std * scale,
        value_b=value.mean,
    )


def linear_trend(table: CrossSeriesTable) -> tuple[float, float]:
    """Least-squares slope and intercept of rate_a against value_b."""
    A = np.column_stack((table.value_b, np.ones_like(table.value_b)))
    coef, *_ = np.linalg.lstsq(A, table.rate_a, rcond=None)
    return float(coef[0]), float(coef[1])
