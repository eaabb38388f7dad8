"""Penalized least squares, GCV scoring, and the smoothing-parameter
search.

The normal matrix ``A = B'B + lam D'D`` is always handled through a symmetric
positive-definite factorization, never an explicit inverse. The lambda
search runs in two phases. First each design is diagonalized once in data
space (``gcv_profile``): rows at one epoch are merged, so a design of r
distinct epochs and c columns costs one Cholesky factor and one standard
``eigh`` of size min(r, c), after which a GCV cost is O(min(r, c))
arithmetic on the eigenvalues. Then ``search_lambda`` scores a whole stack
of profiles in lock-step as arrays: every grid point of every row, then the
golden-section steps of all rows together. ``minimize_gcv_lambda`` runs
both phases for one design or for a sequence of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._blas import blas_threads_for
from .basis import BasisMatrix
from .errors import (
    InvalidInputError,
    NoValidLambdaError,
    RankDeficiencyError,
)
from .penalty import add_difference_gram

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
        if not (0 < self.lo <= self.hi < math.inf) or self.num < 1:
            raise InvalidInputError("lambda grid needs 0 < lo <= hi < inf and num >= 1")

    def points(self) -> np.ndarray:
        return np.geomspace(self.lo, self.hi, self.num)


@dataclass(frozen=True)
class FitResult:
    """Penalized least-squares solution with its cached factorization."""

    theta: np.ndarray
    normal_factorization: tuple
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
    import scipy.linalg

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


def _check_support(Bv: np.ndarray) -> None:
    """Without a penalty, a basis function with no data support makes the
    normal matrix exactly singular; name the offending index range."""
    dead = np.flatnonzero(~np.any(Bv != 0.0, axis=0))
    if dead.size:
        raise RankDeficiencyError(
            f"basis functions {dead.min()}..{dead.max()} have empty data support "
            "and zero penalty; increase lambda or reduce the section count"
        )


def fit_penalized(B, y, q: int, lam: float) -> FitResult:
    """Minimize ||y - B theta||^2 + lam ||D_q theta||^2.

    Also evaluates the residual degrees of freedom and the unbiased error
    variance on the c x c scale (no n x n smoother matrix is formed).
    """
    import scipy.linalg

    Bv = _design(B)
    y = np.asarray(y, dtype=float)
    n, c = Bv.shape
    if y.shape != (n,):
        raise InvalidInputError(f"y must have length {n}, got {y.shape}")
    if not (math.isfinite(lam) and lam >= 0):
        raise InvalidInputError(f"smoothing parameter must be finite and >= 0, got {lam}")
    # With q < c every column of D_q is nonzero: only lam = 0 leaves one unpinned.
    if lam == 0:
        _check_support(Bv)
    with blas_threads_for(c):
        G = Bv.T @ Bv
        cho, ridged = _factorize(add_difference_gram(G, q, lam))
        theta = scipy.linalg.cho_solve(cho, Bv.T @ y)
        resid = y - Bv @ theta
        rss = float(resid @ resid)
        M = scipy.linalg.cho_solve(cho, G)  # A^{-1} B'B: its trace is tr(H)
        tr_h = float(np.trace(M))
        tr_hh = float(np.sum(M * M.T))
    df_res = n - 2.0 * tr_h + tr_hh
    sigma2 = rss / df_res if df_res > 0 else float("nan")
    return FitResult(
        theta=theta,
        normal_factorization=cho,
        df_res=df_res,
        sigma2=sigma2,
        ridged=ridged,
    )


def _gcv_cost(rss, tr_h, n):
    """GCV from the residual sum of squares and tr(H), elementwise; +inf where
    1 - tr(H)/n is below the floor (near-interpolating configuration)."""
    denom = 1.0 - tr_h / n
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom < GCV_DENOM_FLOOR, np.inf, np.maximum(rss, 0.0) / denom**2)


def best_columns(cost: np.ndarray, key: np.ndarray, sign: int) -> np.ndarray:
    """Index of each row's best column, scanning left to right: a finite
    cost displaces the incumbent when smaller and not tied with it, or tied
    with a larger ``sign * key``. Costs tie when they differ by at most
    COST_TIE_RTOL of the larger."""
    rows, best = np.arange(cost.shape[0]), np.zeros(cost.shape[0], dtype=np.intp)
    with np.errstate(invalid="ignore"):
        for j in range(1, cost.shape[1]):
            c, b = cost[:, j], cost[rows, best]
            tied = np.abs(c - b) <= COST_TIE_RTOL * np.maximum(c, b)
            wins = np.where(tied, sign * key[:, j] > sign * key[rows, best], c < b)
            best = np.where(np.isfinite(c) & (~np.isfinite(b) | wins), j, best)
    return best


class GcvProfile(NamedTuple):
    """One design's GCV against lambda, O(min(r, c)) per cost. The
    design's r distinct epochs give rows B_u (an epoch's row times the
    square root of its count) and ys (an epoch's sum of y over that root),
    so that B_u'B_u = B'B and B_u'ys = B'y. With L the Cholesky factor of
    B_u'B_u + D'D and X = L^-1 B_u', g = 1 - mu are the eigenvalues of the
    smaller of X'X and XX', z ys's coordinates in X'X's eigenvectors for
    them, d = 1/(g + lam mu), e = lam mu d: tr(H) is sum g d and
    rss = r0 + sum w e^2, w = z^2, r0 = y'y - sum w. The directions this
    leaves out have g = 0 and add nothing to either sum. No
    lambda-dependent term cancels against y'y, so shifting y moves lambda
    by rounding only. An rss at or below ``zero`` is rounding of y'y and
    scores 0. mu is None where B_u'B_u + D'D is not definite (fewer than q
    distinct epochs, which ``core.fit`` rejects): such a profile scores
    +inf at every lambda."""

    mu: np.ndarray | None
    w: np.ndarray | None = None
    r0: float = 0.0
    zero: float = 0.0


# With more epochs than columns, z comes from XX''s eigenvectors V as
# V'X ys / sqrt(g). Directions with g at or below this lie in B'B's null
# space, where V'X ys is rounding noise that the division would amplify:
# they get w = 0, which is their exact share of rss and tr(H).
_NULL_G = 1e-12

# y'y - sum w rounds to within about 25 ulps of y'y when y is reproduced
# exactly (splines in the basis, c up to 150). An rss at or below this
# fraction of y'y, some 20 times higher, counts as such a reproduction:
# it scores 0, so those configurations tie and the tie rule picks among
# them rather than the sign of the rounding.
_RSS_ROUNDING = 1e-13


def gcv_profile(Bu: np.ndarray, ys: np.ndarray, yy: float, q: int) -> GcvProfile:
    """Diagonalize one design from its distinct-epoch rows ``Bu``, the
    matching ``ys`` and y'y (in the caller's BLAS scope)."""
    import scipy.linalg

    r, c = Bu.shape
    G = Bu.T @ Bu
    # LAPACK directly: at these sizes the checked wrappers cost as much as
    # the factorization. info > 0 is a factor that is not definite.
    L, info = scipy.linalg.lapack.dpotrf(add_difference_gram(G, q), lower=1, clean=0)
    if info:
        return GcvProfile(None)
    solve = functools.partial(scipy.linalg.lapack.dtrtrs, L, lower=1)
    try:
        if r <= c:
            X = solve(Bu.T)[0]
            g, U = scipy.linalg.eigh(X.T @ X, check_finite=False, driver="evd")
            w = (ys @ U) ** 2
        else:
            # XX' as L^-1 G L^-T: c^3 work where X itself would cost c^2 r.
            XXt = solve(solve(G)[0].T)[0]
            g, V = scipy.linalg.eigh(XXt, check_finite=False, driver="evd")
            z2, null = (solve(Bu.T @ ys)[0] @ V) ** 2, g <= _NULL_G
            w = np.where(null, 0.0, z2 / np.where(null, 1.0, g))
    except scipy.linalg.LinAlgError:
        return GcvProfile(None)
    return GcvProfile(1.0 - np.clip(g, 0.0, 1.0), w, yy - math.fsum(w), _RSS_ROUNDING * yy)


def _distinct_rows(epochs, y: np.ndarray):
    """(merge, ys): ``merge`` maps a design's rows at ``epochs`` to one row
    per distinct epoch times the square root of its count, and ys holds
    each epoch's sum of y over that root. Without epochs (a raw array's
    rows count as distinct), or when no epoch repeats, merge returns the
    design itself and ys is y."""
    if epochs is not None:
        _, first, inverse, counts = np.unique(
            epochs, return_index=True, return_inverse=True, return_counts=True)
        if first.size < y.size:
            root = np.sqrt(counts)
            return (lambda Bv: Bv[first] * root[:, None]), np.bincount(inverse, weights=y) / root
    return (lambda Bv: Bv), y


# Most padded entries (width x rows x lambdas) scored at once: 128 kB per
# temporary, which keeps the scan's peak memory near the scalar search's.
_BLOCK = 1 << 14


def _scorer(profiles, n: int, k: int):
    """costs(lam): the cost of profile r at lam[r, j], for every r and each
    of k columns j; +inf on rows whose pencil was not definite. The others
    are scored in blocks of consecutive rows, zero-padded to the block's
    widest. Sums run over the first axis of a C-ordered array whose other
    axes hold at least the two sums, so NumPy adds left to right and
    padding adds exact zeros last: no row depends on its block, and no cost
    on k."""
    eigen = [r for r, pr in enumerate(profiles) if pr.mu is not None]
    widest = max((profiles[r].mu.size for r in eigen), default=1)
    per, blocks = max(1, _BLOCK // (widest * k)), []
    for rows in (eigen[i : i + per] for i in range(0, len(eigen), per)):
        padded = np.zeros((3, max(profiles[r].mu.size for r in rows), len(rows), 1))
        for i, (mu, w, *_) in enumerate(profiles[r] for r in rows):
            padded[:, : mu.size, i, 0] = mu, 1.0 - mu, w
        blocks.append((rows, padded, np.array([profiles[r][2:] for r in rows]).T[..., None]))

    def costs(lam: np.ndarray) -> np.ndarray:
        out = np.full(lam.shape, np.inf)
        for rows, (mu, g, w), (r0, zero) in blocks:
            lam_b = lam[rows]
            d = 1.0 / (1.0 + (lam_b - 1.0) * mu)
            e = lam_b * mu * d
            terms = np.stack((g * d, w * e * e), axis=1)
            tr_h, delta = np.add.reduce(terms, axis=0)
            rss = r0 + delta
            out[rows] = _gcv_cost(np.where(rss <= zero, 0.0, rss), tr_h, n)
        return out

    return costs


def _each(f, x: np.ndarray) -> np.ndarray:
    # Per element: a vector exp/log may round by position; rows must not.
    return np.array([f(v) for v in x])


def search_lambda(profiles, n: int, points: np.ndarray):
    """Lambda search of every profile at once: all grid ``points``, then a
    fixed-iteration golden section on log-lambda between the best grid
    point's neighbours. The least cost scored wins, ties (``best_columns``)
    the larger lambda. Arrays (lambda_hat, cost); (nan, inf) if degenerate.
    ``n`` is the number of observations behind the profiles."""
    rows = np.arange(len(profiles))
    lam = np.broadcast_to(points, (rows.size, points.size))
    cost = _scorer(profiles, n, points.size)(lam)
    best = best_columns(cost, lam, 1)
    lo, hi = points[np.maximum(best - 1, 0)], points[np.minimum(best + 1, points.size - 1)]
    # Rows with a finite grid cost and a bracket of positive width refine.
    active = np.flatnonzero(np.isfinite(cost).any(axis=1) & (hi > lo))
    if active.size:
        lam_g = np.full((rows.size, 2 + _REFINE_ITERS), np.inf)
        cost_g = np.full_like(lam_g, np.inf)
        costs = _scorer([profiles[r] for r in active], n, 1)
        lam_g[active], cost_g[active] = _golden_section(costs, lo[active], hi[active])
        lam, cost = np.hstack((lam, lam_g)), np.hstack((cost, cost_g))
        order = np.lexsort((cost, lam))
        lam, cost = np.take_along_axis(lam, order, 1), np.take_along_axis(cost, order, 1)
    pick = best_columns(cost, lam, 1)
    lam, cost = lam[rows, pick], cost[rows, pick]
    return np.where(np.isfinite(cost), lam, np.nan), np.where(np.isfinite(cost), cost, np.inf)


def _golden_section(costs, lo: np.ndarray, hi: np.ndarray):
    """Every row's golden-section steps in lock-step; returns the
    (rows, 2 + _REFINE_ITERS) lambdas and costs scored."""
    a, b = _each(math.log, lo), _each(math.log, hi)
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    lams = [_each(math.exp, x1), _each(math.exp, x2)]
    f1, f2 = scored = [costs(x[:, None])[:, 0] for x in lams]
    for _ in range(_REFINE_ITERS):
        left = f1 <= f2
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        lams.append(_each(math.exp, x))
        scored.append(costs(lams[-1][:, None])[:, 0])
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, scored[-1], f2), np.where(left, f1, scored[-1])
    return np.column_stack(lams), np.column_stack(scored)


def minimize_gcv_lambda(B, y, q: int, grid: LambdaGrid = LambdaGrid()):
    """The GCV-minimizing lambda of design ``B``: (lambda_hat, cost),
    deterministic for fixed inputs. Raises NoValidLambdaError when every
    candidate is degenerate.

    ``B`` may instead be an iterable of designs. Each is diagonalized in its
    own BLAS scope and dropped before the next is drawn, then
    ``search_lambda`` searches all of them together. The result is then
    arrays (lambda_hat, cost), one entry per design, (nan, inf) where every
    candidate is degenerate; each entry equals the one-design search. A
    None design (``basis.scan_bases``' degenerate knots) scores as a pencil
    that is not definite.

    A ``BasisMatrix``'s rows are merged by epoch before diagonalizing (rows
    at one epoch are equal); designs that share one epochs array share the
    merge.
    """
    import scipy.linalg  # noqa: F401  (loaded before any BLAS scope opens)

    y = np.asarray(y, dtype=float)
    yy, one = float(y @ y), isinstance(B, (BasisMatrix, np.ndarray))
    profiles, epochs, (merge, ys) = [], None, _distinct_rows(None, y)
    for design in [B] if one else B:
        if design is None:
            profiles.append(GcvProfile(None))
            continue
        Bv = _design(design)
        at = design.epochs if isinstance(design, BasisMatrix) else None
        if at is not epochs:
            epochs, (merge, ys) = at, _distinct_rows(at, y)
        with blas_threads_for(Bv.shape[1]):
            profiles.append(gcv_profile(merge(Bv), ys, yy, q))
        # Drop it before the next is drawn: with two large designs alive at
        # once, a strided n = 1500 fit peaked 50 MB higher.
        del design, Bv
    lam, cost = search_lambda(profiles, y.size, grid.points())
    if not one:
        return lam, cost
    if not np.isfinite(cost[0]):
        raise NoValidLambdaError("every candidate lambda produced a degenerate GCV score")
    return float(lam[0]), float(cost[0])
