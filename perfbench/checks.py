"""Output checks computed apart from the program.

Every reference here is rebuilt from the program's outputs (knots, degree,
coefficients, lambda) and the benchmark's own inputs with SciPy's
``BSpline`` and dense linear algebra; nothing below calls into ``alps``.
Each check raises ``CheckFailed`` with a message naming what disagreed.

Tolerances are fixed here, from float64 arithmetic, before any run:

- ``VALUE_RTOL``: the curve and its rate at given coefficients. Both sides
  sum at most p+1 products per epoch, so they agree to a few ulps of the
  largest term; 1e-9 of that term leaves room for any evaluation order.
- ``SOLVE_RTOL``: quantities that pass through a c x c solve (fitted
  values, tr(H), df_res, sigma2, band std, GCV). The normal matrix of a
  fit at lambda >= 1e-4 has a condition number well under 1e8, so a
  correct solver of any kind (dense, banded, reordered) lands within
  1e8 * eps ~ 2e-8 of another; 1e-6 adds margin on top.
- ``COST_RTOL``: the GCV cost reported against the scan's least finite
  cost. Both are numbers the program itself returned for the same rows,
  so they may differ only by its tie rule; 1e-9 covers it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.stats
from scipy.interpolate import BSpline

VALUE_RTOL = 1e-9
SOLVE_RTOL = 1e-6
COST_RTOL = 1e-9
# GCV's near-interpolation cut-off and the default lambda grid's endpoints,
# as documented for the program's fit.
GCV_DENOM_FLOOR = 1e-8
LAMBDA_LO, LAMBDA_HI = 1e-4, 1e4


class CheckFailed(AssertionError):
    """An output disagrees with its independent reference."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def design(knots, p: int, x, derivative: bool = False) -> np.ndarray:
    """Dense B-spline design matrix (or its first derivative) at x."""
    x = np.asarray(x, dtype=float)
    c = len(knots) - p - 1
    if not derivative:
        return BSpline.design_matrix(x, knots, p).toarray()
    return BSpline(knots, np.eye(c), p).derivative()(x)


class Reference:
    """Dense penalized least-squares solution for one fitted model, built
    from its knots, degree, penalty order and lambda on the training data."""

    def __init__(self, model, times, y):
        kv = model.knot_vector
        self.knots, self.p, self.q = np.asarray(kv.knots, float), model.p, model.q
        self.times = np.asarray(times, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.B = design(self.knots, self.p, self.times)
        c = self.B.shape[1]
        require(c == model.theta.size, f"model has {model.theta.size} coefficients, basis has {c}")
        D = np.diff(np.eye(c), self.q, axis=0)
        self.K = D.T @ D
        self.G = self.B.T @ self.B
        self.lam = float(model.lambda_hat)
        self.cho = scipy.linalg.cho_factor(self.G + self.lam * self.K, lower=True)
        self.theta = scipy.linalg.cho_solve(self.cho, self.B.T @ self.y)

    def gcv(self, lam: float) -> float:
        """GCV as the program defines it: RSS / (1 - tr(H)/n)^2."""
        n = self.y.size
        cho = scipy.linalg.cho_factor(self.G + lam * self.K, lower=True)
        theta = scipy.linalg.cho_solve(cho, self.B.T @ self.y)
        resid = self.y - self.B @ theta
        denom = 1.0 - np.trace(scipy.linalg.cho_solve(cho, self.G)) / n
        if denom < GCV_DENOM_FLOOR:
            return math.inf
        return float(resid @ resid) / denom**2

    def statistics(self):
        """(tr(H), df_res, sigma2, GCV cost) at the model's lambda."""
        n = self.y.size
        M = scipy.linalg.cho_solve(self.cho, self.G)
        tr_h = float(np.trace(M))
        df_res = n - 2.0 * tr_h + float(np.sum(M * M.T))
        resid = self.y - self.B @ self.theta
        rss = float(resid @ resid)
        return tr_h, df_res, rss / df_res, rss / (1.0 - tr_h / n) ** 2

    def quad(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise b' A^{-1} b for the rows of a design matrix."""
        X = scipy.linalg.cho_solve(self.cho, rows.T)
        return np.clip(np.einsum("ij,ji->i", rows, X), 0.0, None)


def _close(a, b, rtol, scale, what):
    a, b = np.asarray(a, float), np.asarray(b, float)
    require(a.shape == b.shape, f"{what}: shape {a.shape} against {b.shape}")
    err = float(np.max(np.abs(a - b))) if a.size else 0.0
    require(np.all(np.isfinite(a)), f"{what}: non-finite output")
    require(err <= rtol * scale, f"{what}: off by {err:.3e} (allowed {rtol * scale:.3e})")


def check_fit(model, times, y) -> Reference:
    """Coefficients, tr(H), df_res, sigma2 and GCV cost at (m_hat,
    lambda_hat), and GCV at lambda_hat no greater than at either endpoint
    of the default lambda grid on the same basis."""
    ref = Reference(model, times, y)
    yscale = max(1.0, float(np.max(np.abs(ref.y))))
    _close(ref.B @ model.theta, ref.B @ ref.theta, SOLVE_RTOL, yscale, "fitted values")
    tr_h, df_res, sigma2, gcv = ref.statistics()
    n = ref.y.size
    _close(model.df_res, df_res, SOLVE_RTOL, n, f"df_res (tr(H) = {tr_h:.6g})")
    _close(model.sigma2, sigma2, SOLVE_RTOL, abs(sigma2), "sigma2")
    _close(model.fit_metadata.gcv_cost, gcv, SOLVE_RTOL, abs(gcv), "GCV cost at lambda_hat")
    ends = [ref.gcv(LAMBDA_LO), ref.gcv(LAMBDA_HI)]
    require(gcv <= min(ends) * (1.0 + SOLVE_RTOL),
            f"GCV at lambda_hat {gcv:.6g} exceeds an endpoint's {min(ends):.6g}")
    return ref


def check_scan(model) -> None:
    """gcv_cost is the least finite cost of the scan and is one of its rows."""
    meta = model.fit_metadata
    rows = [(int(m), float(lam), float(cost)) for m, lam, cost in meta.scan]
    finite = [cost for _, _, cost in rows if math.isfinite(cost)]
    require(finite, "scan has no finite cost")
    best = min(finite)
    require(meta.gcv_cost <= best * (1.0 + COST_RTOL),
            f"gcv_cost {meta.gcv_cost!r} is not the scan's least cost {best!r}")
    require((model.knot_vector.m, model.lambda_hat, meta.gcv_cost) in rows,
            "selected (m, lambda, cost) is not a row of the scan")


def check_curve(model, ref: Reference, band, derivative: bool = False) -> None:
    """Values (or rates) against BSpline on the model's coefficients, band
    std and half-width against the dense normal matrix, and
    ci_lo <= mean <= ci_hi."""
    epochs = np.asarray(band.epochs, dtype=float)
    rows = design(ref.knots, ref.p, epochs, derivative)
    spline = BSpline(ref.knots, model.theta, ref.p)
    mean = (spline.derivative() if derivative else spline)(epochs)
    scale = max(1.0, float(np.max(np.abs(rows) @ np.abs(model.theta))))
    what = "rate" if derivative else "value"
    _close(band.mean, mean, VALUE_RTOL, scale, f"{what} against BSpline")
    std = math.sqrt(max(model.sigma2, 0.0)) * np.sqrt(ref.quad(rows))
    _close(band.std, std, SOLVE_RTOL, max(float(np.max(std)), 1e-300), f"{what} band std")
    tq = float(scipy.stats.t.ppf(1.0 - band.alpha / 2.0, model.df_res))
    _close(band.half_width, tq * std, SOLVE_RTOL, max(float(np.max(tq * std)), 1e-300),
           f"{what} band half-width")
    require(np.all(band.lower <= band.mean) and np.all(band.mean <= band.upper),
            f"{what} band: ci_lo <= mean <= ci_hi fails")


def check_outliers(times, y, report) -> np.ndarray:
    """Flag sets are disjoint valid indices and the clean data is the input
    minus the flagged points; returns the kept mask."""
    n = len(times)
    l1, l2 = list(report.level1_indices), list(report.level2_indices)
    for name, idx in (("level 1", l1), ("level 2", l2)):
        require(all(0 <= i < n for i in idx), f"{name} flags outside [0, {n})")
        require(len(set(idx)) == len(idx), f"{name} flags repeat an index")
    require(not set(l1) & set(l2), "level 1 and level 2 flags overlap")
    keep = np.ones(n, dtype=bool)
    keep[l1 + l2] = False
    clean = report.clean_data
    require(np.array_equal(clean.times, np.asarray(times)[keep])
            and np.array_equal(clean.values, np.asarray(y)[keep]),
            "clean data is not the input minus the flagged points")
    return keep


def check_spikes_flagged(report, spikes) -> None:
    flagged = set(report.level1_indices) | set(report.level2_indices)
    missed = sorted(set(int(i) for i in spikes) - flagged)
    require(not missed, f"planted spikes not flagged: {missed}")


def check_fusion(obs_t, obs_y, dense_t, dense_y, result) -> None:
    """Difference series, and additivity: reconstruction mean equals the
    aligned dense series plus the difference model's curve; the band
    itself is the difference model's band."""
    obs_t, obs_y = np.asarray(obs_t, float), np.asarray(obs_y, float)
    dense_t, dense_y = np.asarray(dense_t, float), np.asarray(dense_y, float)
    aligned = dense_y + (obs_y[0] - np.interp(obs_t[0], dense_t, dense_y))
    diff = obs_y - np.interp(obs_t, dense_t, aligned)
    yscale = max(1.0, float(np.max(np.abs(obs_y))))
    _close(result.difference_series.values, diff, VALUE_RTOL, yscale, "difference series")
    model = result.dibc_model
    ref = check_fit(model, obs_t, diff)
    check_scan(model)
    recon = result.reconstruction
    lo, hi = model.knot_vector.domain
    inside = (dense_t >= lo) & (dense_t <= hi)
    require(np.array_equal(recon.epochs, dense_t[inside]), "reconstruction epochs")
    curve = BSpline(ref.knots, model.theta, ref.p)(recon.epochs)
    scale = max(yscale, float(np.max(np.abs(aligned))))
    _close(recon.mean, aligned[inside] + curve, VALUE_RTOL, scale,
           "reconstruction mean against aligned + curve")
    rows = design(ref.knots, ref.p, recon.epochs)
    std = math.sqrt(max(model.sigma2, 0.0)) * np.sqrt(ref.quad(rows))
    _close(recon.std, std, SOLVE_RTOL, max(float(np.max(std)), 1e-300), "reconstruction std")


def check_same_file(path, expected_path, what: str) -> None:
    with open(path, "rb") as a, open(expected_path, "rb") as b:
        require(a.read() == b.read(), f"{what}: {path} differs")


def check_bit_exact(band, expected, what: str) -> None:
    """Epochs, mean, std and both interval ends equal bit for bit."""
    for field in ("epochs", "mean", "std", "lower", "upper"):
        require(np.array_equal(getattr(band, field), getattr(expected, field)),
                f"{what}: {field} not bit-exact")
