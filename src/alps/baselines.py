"""Comparator models: global polynomials, local linear interpolation, and
fixed-window linear approximation, each with derivative output."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, RankDeficiencyError
from .timeseries import TimeSeries


@dataclass(frozen=True)
class PolyModel:
    """Global least-squares polynomial on centered/scaled epochs.

    Centering is internal conditioning only; predictions are invariant to
    it. Raw decimal years raised to the 5th power are numerically hostile.
    """

    degree: int
    coefficients: np.ndarray  # ascending powers of the scaled epoch
    centering: tuple[float, float]  # (t_mean, t_scale)

    def _scaled(self, epochs) -> np.ndarray:
        t_mean, t_scale = self.centering
        return (np.atleast_1d(np.asarray(epochs, dtype=float)) - t_mean) / t_scale

    def predict(self, epochs) -> np.ndarray:
        return np.polynomial.polynomial.polyval(self._scaled(epochs), self.coefficients)

    def predict_derivative(self, epochs) -> np.ndarray:
        dcoef = np.polynomial.polynomial.polyder(self.coefficients)
        return np.polynomial.polynomial.polyval(self._scaled(epochs), dcoef) / self.centering[1]


def fit_polynomial(data: TimeSeries, degree: int) -> PolyModel:
    if degree < 0:
        raise InvalidInputError(f"degree must be >= 0, got {degree}")
    n = len(data)
    if n < degree + 1:
        raise InvalidInputError(f"need at least degree + 1 = {degree + 1} points, got {n}")
    t, y = data.times, data.values
    t_min, t_max = float(t[0]), float(t[-1])
    t_mean = 0.5 * (t_min + t_max)
    t_scale = 0.5 * (t_max - t_min) or 1.0
    x = (t - t_mean) / t_scale
    V = np.vander(x, degree + 1, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(V, y, rcond=None)
    if rank < degree + 1:
        raise RankDeficiencyError(
            f"degree-{degree} polynomial is rank deficient on {np.unique(t).size} distinct epochs"
        )
    return PolyModel(degree=degree, coefficients=coef, centering=(t_mean, t_scale))


@dataclass(frozen=True)
class PiecewiseLinearModel:
    """Either an interpolant through (averaged) points or independent
    per-window least-squares lines.

    For the windowed kind, ``values``/``slopes`` hold each window's line
    anchored at the window's left edge; NaN marks windows without enough
    support (no-estimate)."""

    breakpoints: np.ndarray
    values: np.ndarray
    kind: str
    slopes: np.ndarray | None = None

    def predict(self, epochs) -> np.ndarray:
        t = np.atleast_1d(np.asarray(epochs, dtype=float))
        if self.kind == "interpolation":
            return np.interp(t, self.breakpoints, self.values)
        k = self._window(t)
        out = np.full(t.shape, np.nan)
        ok = k >= 0
        out[ok] = self.values[k[ok]] + self.slopes[k[ok]] * (t[ok] - self.breakpoints[k[ok]])
        return out

    def predict_derivative(self, epochs) -> np.ndarray:
        t = np.atleast_1d(np.asarray(epochs, dtype=float))
        if self.kind == "interpolation":
            slopes = np.diff(self.values) / np.diff(self.breakpoints)
            k = np.clip(np.searchsorted(self.breakpoints, t, side="right") - 1,
                        0, slopes.size - 1)
            return slopes[k]
        k = self._window(t)
        out = np.full(t.shape, np.nan)
        ok = k >= 0
        out[ok] = self.slopes[k[ok]]
        return out

    def _window(self, t: np.ndarray) -> np.ndarray:
        k = np.searchsorted(self.breakpoints, t, side="right") - 1
        k = np.where(t == self.breakpoints[-1], len(self.breakpoints) - 2, k)
        bad = (k < 0) | (k > len(self.breakpoints) - 2)
        return np.where(bad, -1, k).astype(int)


def linear_interpolation(data: TimeSeries) -> PiecewiseLinearModel:
    """Interpolant through every point; duplicate epochs are averaged first."""
    epochs, inverse = np.unique(data.times, return_inverse=True)
    if epochs.size < 2:
        raise InvalidInputError("need at least 2 distinct epochs to interpolate")
    sums = np.zeros(epochs.size)
    counts = np.zeros(epochs.size)
    np.add.at(sums, inverse, data.values)
    np.add.at(counts, inverse, 1.0)
    return PiecewiseLinearModel(
        breakpoints=epochs, values=sums / counts, kind="interpolation"
    )


def windowed_linear(
    data: TimeSeries, window: float = 0.5, anchor: float = 0.0
) -> PiecewiseLinearModel:
    """Independent least-squares line per fixed window.

    Window edges fall at ``anchor + k * window``; the default half-year
    width with zero anchor gives calendar windows Jan 1-Jun 30 and
    Jul 1-Dec 31 in decimal years. Windows with fewer than two distinct
    epochs carry NaN (no-estimate) markers.
    """
    if not (0 < window < math.inf and math.isfinite(anchor)):
        raise InvalidInputError(f"window must be finite and > 0 and anchor finite, "
                                f"got window={window!r}, anchor={anchor!r}")
    t, y = data.times, data.values
    first = anchor + np.floor((t[0] - anchor) / window) * window
    n_windows = int(np.floor((t[-1] - first) / window)) + 1
    edges = first + window * np.arange(n_windows + 1)
    values = np.full(n_windows, np.nan)
    slopes = np.full(n_windows, np.nan)
    for k in range(n_windows):
        in_window = (t >= edges[k]) & (t < edges[k + 1])
        if k == n_windows - 1:
            in_window |= t == edges[k + 1]
        tw, yw = t[in_window], y[in_window]
        if np.unique(tw).size < 2:
            continue
        A = np.column_stack((tw - edges[k], np.ones(tw.size)))
        coef, *_ = np.linalg.lstsq(A, yw, rcond=None)
        slopes[k], values[k] = float(coef[0]), float(coef[1])
    return PiecewiseLinearModel(
        breakpoints=edges, values=values, kind="windowed", slopes=slopes
    )
