"""Penalized least squares, the smoother matrix, GCV scoring, and the
smoothing-parameter search.

The normal matrix ``A = B'B + P`` is always handled through a symmetric
positive-definite factorization, never an explicit inverse. The lambda
search diagonalizes the pencil ``(D'D, B'B + D'D)`` once, which makes every
subsequent GCV evaluation O(c); a direct per-lambda Cholesky path serves as
fallback for pathological designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._blas import blas_threads_for
from .basis import BasisMatrix
from .errors import (
    DegenerateVarianceError,
    InvalidInputError,
    NoValidLambdaError,
    RankDeficiencyError,
)
from .penalty import PenaltySpec, difference_matrix

# GCV denominator (1 - tr(H)/n) below this scores +inf: the configuration is
# effectively interpolating and carries no generalization information.
GCV_DENOM_FLOOR = 1e-8

# Relative tolerance for treating two GCV costs as tied.
COST_TIE_RTOL = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 32


@dataclass(frozen=True)
class LambdaGrid:
    """Logarithmic candidate grid for the smoothing parameter."""

    lo: float = 1e-4
    hi: float = 1e4
    num: int = 41

    def __post_init__(self):
        if not (0 < self.lo <= self.hi) or self.num < 1:
            raise InvalidInputError("lambda grid needs 0 < lo <= hi and num >= 1")

    def points(self) -> np.ndarray:
        if self.num == 1:
            return np.array([self.lo])
        return np.geomspace(self.lo, self.hi, self.num)


DEFAULT_LAMBDA_GRID = LambdaGrid()


@dataclass(frozen=True)
class FitResult:
    """Penalized least-squares solution with its cached factorization."""

    theta: np.ndarray
    normal_factorization: tuple
    residual_ss: float
    df_res: float
    sigma2: float
    ridged: bool = False


def _design(B) -> np.ndarray:
    values = B.values if isinstance(B, BasisMatrix) else np.asarray(B, dtype=float)
    if values.ndim != 2:
        raise InvalidInputError("design matrix must be 2-d")
    return values


def _factorize(A: np.ndarray):
    """Cholesky with a single relative-ridge retry; reports whether the
    ridge was needed."""
    try:
        return scipy.linalg.cho_factor(A, lower=True), False
    except scipy.linalg.LinAlgError:
        pass
    ridge = 1e-12 * float(np.trace(A))
    if not np.isfinite(ridge) or ridge <= 0:
        raise RankDeficiencyError("normal matrix is singular and has no usable scale")
    try:
        return scipy.linalg.cho_factor(A + ridge * np.eye(A.shape[0]), lower=True), True
    except scipy.linalg.LinAlgError:
        raise RankDeficiencyError(
            "normal matrix not positive definite even after ridge repair"
        ) from None


def _check_support(Bv: np.ndarray, P: PenaltySpec) -> None:
    """A basis function with no data support and no penalty coupling makes
    the normal matrix exactly singular; name the offending index range."""
    empty = ~np.any(Bv != 0.0, axis=0)
    unpinned = np.diag(P.P) == 0.0
    dead = np.flatnonzero(empty & unpinned)
    if dead.size:
        raise RankDeficiencyError(
            f"basis functions {dead.min()}..{dead.max()} have empty data support "
            "and zero penalty; increase lambda or reduce the section count"
        )


def fit_penalized(B, y, P: PenaltySpec) -> FitResult:
    """Minimize ||y - B theta||^2 + theta' P theta.

    Also evaluates the residual degrees of freedom and the unbiased error
    variance on the c x c scale (no n x n smoother matrix is formed).
    """
    Bv = _design(B)
    y = np.asarray(y, dtype=float)
    n, c = Bv.shape
    if y.shape != (n,):
        raise InvalidInputError(f"y must have length {n}, got {y.shape}")
    if P.c != c:
        raise InvalidInputError(f"penalty built for c={P.c}, design has c={c}")
    _check_support(Bv, P)
    with blas_threads_for(c):
        G = Bv.T @ Bv
        A = G + P.P
        cho, ridged = _factorize(A)
        theta = scipy.linalg.cho_solve(cho, Bv.T @ y)
        resid = y - Bv @ theta
        rss = float(resid @ resid)
        M = scipy.linalg.cho_solve(cho, G)  # A^{-1} B'B
        tr_h = float(np.trace(M))
        tr_hh = float(np.sum(M * M.T))
    df_res = n - 2.0 * tr_h + tr_hh
    sigma2 = rss / df_res if df_res > 0 else float("nan")
    return FitResult(
        theta=theta,
        normal_factorization=cho,
        residual_ss=rss,
        df_res=df_res,
        sigma2=sigma2,
        ridged=ridged,
    )


def smoother_matrix(B, P: PenaltySpec) -> np.ndarray:
    """n x n matrix H mapping observations to fitted values."""
    Bv = _design(B)
    _check_support(Bv, P)
    with blas_threads_for(Bv.shape[1]):
        A = Bv.T @ Bv + P.P
        cho, _ = _factorize(A)
        return Bv @ scipy.linalg.cho_solve(cho, Bv.T)


def gcv_score(B, y, P: PenaltySpec) -> float:
    """Sum of squared residuals, each normalized by (1 - tr(H)/n).

    Returns +inf when the normalization denominator falls below the
    degeneracy floor (near-interpolating configuration).
    """
    Bv = _design(B)
    y = np.asarray(y, dtype=float)
    n, c = Bv.shape
    with blas_threads_for(c):
        result = fit_penalized(Bv, y, P)
        cho = result.normal_factorization
        tr_h = float(np.trace(scipy.linalg.cho_solve(cho, Bv.T @ Bv)))
    denom = 1.0 - tr_h / n
    if denom < GCV_DENOM_FLOOR:
        return float("inf")
    return result.residual_ss / denom**2


def residual_df(H: np.ndarray) -> float:
    """n - 2 tr(H) + tr(H H') for a square smoother matrix."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvalidInputError("H must be square")
    n = H.shape[0]
    return float(n - 2.0 * np.trace(H) + np.sum(H * H))


def error_variance(y, B, theta, df_res: float) -> float:
    """Unbiased residual variance ||y - B theta||^2 / df_res."""
    if df_res <= 0:
        raise DegenerateVarianceError(f"df_res must be positive, got {df_res}")
    Bv = _design(B)
    resid = np.asarray(y, dtype=float) - Bv @ np.asarray(theta, dtype=float)
    return float(resid @ resid) / df_res


def _cost_zero_floor(y: np.ndarray) -> float:
    # Residual sums of squares at or below this level are floating-point
    # noise from an exact reproduction; such costs are treated as ties so
    # the smoothness/parsimony tie-breaks can act on them.
    return 1e-24 * max(float(y @ y), 1.0)


def _tied(a: float, b: float, floor: float) -> bool:
    hi = max(a, b)
    return hi <= floor or abs(a - b) <= COST_TIE_RTOL * hi


def _replaces(cost: float, lam: float, best_cost: float, best_lam: float, floor: float) -> bool:
    """Whether (cost, lam) should displace the incumbent: strictly smaller
    cost wins; on ties the larger lambda (smoother model) wins."""
    if not np.isfinite(cost):
        return False
    if not np.isfinite(best_cost):
        return True
    if _tied(cost, best_cost, floor):
        return lam > best_lam
    return cost < best_cost


class _GcvProfile:
    """GCV as a function of lambda for a fixed design and penalty order.

    Diagonalizes D'D against B'B + D'D once; each evaluation is then O(c).
    Falls back to direct factorizations when the pencil is not definite.
    """

    def __init__(self, Bv: np.ndarray, y: np.ndarray, q: int):
        n, c = Bv.shape
        if not 1 <= q < c:
            raise InvalidInputError(f"penalty order must satisfy 1 <= q < c, got q={q}, c={c}")
        self.n = n
        self.q = q
        self._Bv = Bv
        self._y = y
        D = difference_matrix(q, c)
        self._K = D.T @ D
        G = Bv.T @ Bv
        self._G = G
        try:
            mu, W = scipy.linalg.eigh(self._K, G + self._K)
        except scipy.linalg.LinAlgError:
            self._mu = None
            return
        self._mu = np.clip(mu, 0.0, 1.0)
        self._g = 1.0 - self._mu  # diag of W' G W
        z = W.T @ (Bv.T @ y)
        self._z2 = z * z
        self._yty = float(y @ y)

    def __call__(self, lam: float) -> float:
        if self._mu is None:
            return self._direct(lam)
        d = 1.0 / (1.0 + (lam - 1.0) * self._mu)
        tr_h = float(self._g @ d)
        denom = 1.0 - tr_h / self.n
        if denom < GCV_DENOM_FLOOR:
            return float("inf")
        rss = self._yty - 2.0 * float(d @ self._z2) + float((d * d * self._g) @ self._z2)
        return max(rss, 0.0) / denom**2

    def _direct(self, lam: float) -> float:
        A = self._G + lam * self._K
        try:
            cho, _ = _factorize(A)
        except RankDeficiencyError:
            return float("inf")
        theta = scipy.linalg.cho_solve(cho, self._Bv.T @ self._y)
        resid = self._y - self._Bv @ theta
        tr_h = float(np.trace(scipy.linalg.cho_solve(cho, self._G)))
        denom = 1.0 - tr_h / self.n
        if denom < GCV_DENOM_FLOOR:
            return float("inf")
        return float(resid @ resid) / denom**2


def minimize_gcv_lambda(B, y, q: int, grid: LambdaGrid = DEFAULT_LAMBDA_GRID):
    """Grid scan plus one golden-section refinement of GCV over lambda.

    Returns (lambda_hat, cost). Deterministic for fixed inputs; exact cost
    ties resolve toward the larger (smoother) lambda. Raises
    NoValidLambdaError when every candidate is degenerate.
    """
    Bv = _design(B)
    y = np.asarray(y, dtype=float)
    with blas_threads_for(Bv.shape[1]):
        profile = _GcvProfile(Bv, y, q)
        floor = _cost_zero_floor(y)

        points = grid.points()
        evaluated = [(float(lam), profile(float(lam))) for lam in points]
        finite = [i for i, (_, cost) in enumerate(evaluated) if np.isfinite(cost)]
        if finite:
            best_idx = 0
            for i in range(1, len(points)):
                if _replaces(evaluated[i][1], evaluated[i][0], evaluated[best_idx][1],
                             evaluated[best_idx][0], floor):
                    best_idx = i
            lo = points[max(best_idx - 1, 0)]
            hi = points[min(best_idx + 1, len(points) - 1)]
            if hi > lo:
                evaluated.extend(_golden_section(profile, math.log(lo), math.log(hi)))

    best_lam, best_cost = float("nan"), float("inf")
    for lam, cost in sorted(evaluated):
        if _replaces(cost, lam, best_cost, best_lam, floor):
            best_lam, best_cost = lam, cost
    if not np.isfinite(best_cost):
        raise NoValidLambdaError(
            "every candidate lambda produced a degenerate GCV score"
        )
    return best_lam, best_cost


def _golden_section(profile, log_lo: float, log_hi: float):
    """Fixed-iteration golden-section pass on log-lambda; returns the
    evaluated (lambda, cost) pairs."""
    a, b = log_lo, log_hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = profile(math.exp(x1))
    f2 = profile(math.exp(x2))
    out = [(math.exp(x1), f1), (math.exp(x2), f2)]
    for _ in range(_REFINE_ITERS):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = profile(math.exp(x1))
            out.append((math.exp(x1), f1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = profile(math.exp(x2))
            out.append((math.exp(x2), f2))
    return out
