"""Penalized least squares, GCV scoring, and the smoothing-parameter
search.

A design is a ``BasisMatrix`` of degree p, so the normal matrix
``A = B'B + lam D'D`` has bandwidth p. It is only ever held as its p + 1
lower diagonals (``_normal_band``), built from the design's rows merged by
epoch (``_distinct_rows``: r rows for r distinct epochs, never n), and
factored by the banded Cholesky ``dpbtrf``; there is no explicit inverse.
The lambda search runs in two phases. First each design is diagonalized
once in data space (``gcv_profile``): a design of c columns costs one
banded factor and one standard ``eigh`` of size min(r, c), after which a
GCV cost is O(min(r, c)) arithmetic on the eigenvalues. Then
``search_lambda`` scores a whole stack of profiles in lock-step as arrays:
every grid point of every row, then the golden-section steps of all rows
together. ``minimize_gcv_lambda`` runs both phases on an iterable of
designs; ``fit_penalized`` solves the system it scored.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._blas import blas_threads_for
from .basis import BasisMatrix
from .errors import InvalidInputError, RankDeficiencyError, _require_integer
from .penalty import difference_band

# GCV denominator (1 - tr(H)/n) below this scores +inf: the configuration is
# effectively interpolating and carries no generalization information.
GCV_DENOM_FLOOR = 1e-8

# A GCV cost within this fraction of its row's least cost ties with it.
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
        _require_integer(self.num, "lambda grid num")
        if not (0 < self.lo <= self.hi < math.inf) or self.num < 1:
            raise InvalidInputError("lambda grid needs 0 < lo <= hi < inf and num >= 1")

    def points(self) -> np.ndarray:
        return np.geomspace(self.lo, self.hi, self.num)


@dataclass(frozen=True)
class FitResult:
    """Penalized least-squares solution and the p + 1 diagonals of L, the
    Cholesky factor of A = LL' (or of A plus ``_factorize``'s ridge), the
    main one first: diagonal k holds the c - k entries L[k + i, i]."""

    theta: np.ndarray
    factor_diagonals: tuple
    df_res: float
    sigma2: float
    ridged: bool = False


def _degree(B) -> int:
    """The degree p of design ``B``, which must be a ``BasisMatrix``."""
    if not isinstance(B, BasisMatrix):
        raise InvalidInputError(f"a design must be a BasisMatrix, got {type(B).__name__}")
    return B.local.shape[0] - 1


def _normal_band(G: np.ndarray, p: int, q: int, lam: float) -> np.ndarray:
    """A = G + lam D_q'D_q in LAPACK lower band storage (row k holds
    A[j + k, j] at column j), from the p + 1 diagonals of G = B'B for a
    basis of degree p."""
    c = G.shape[0]
    band = np.zeros((max(p, q) + 1, c))
    for k in range(p + 1):
        band[k, : c - k] = np.diagonal(G, -k)
    band[: q + 1] += lam * difference_band(q, c)
    return band


def _factorize(band: np.ndarray):
    """L's band from A's (``dpbtrf``), retried once with 1e-12 of A's
    trace added to A's diagonal; and whether that ridge was needed."""
    import scipy.linalg

    L, info = scipy.linalg.lapack.dpbtrf(band, lower=1)
    if not info:
        return L, False
    band[0] += 1e-12 * float(np.sum(band[0]))
    L, info = scipy.linalg.lapack.dpbtrf(band, lower=1)
    if info:
        raise RankDeficiencyError("normal matrix not positive definite even after ridge repair")
    return L, True


def _sum_of_squares(y: np.ndarray) -> float:
    """y'y, which enters every GCV score and the refit's sigma2; an
    InvalidInputError where y is not finite or y'y is past the float range,
    which leaves no usable score."""
    with np.errstate(over="ignore", invalid="ignore"):
        yy = float(y @ y)
    if not math.isfinite(yy):
        if not np.all(np.isfinite(y)):
            raise InvalidInputError("y must be finite")
        raise InvalidInputError("the sum of squared values overflows; rescale the series")
    return yy


def fit_penalized(B, y, q: int, lam: float) -> FitResult:
    """Minimize ||y - B theta||^2 + lam ||D_q theta||^2 for a ``BasisMatrix``
    B, whose local values give its degree p, from its rows merged by epoch;
    its fitted values are ``B.dot``, a band's mean. Also evaluates the
    residual degrees of freedom and the unbiased error variance on the
    c x c scale (no n x n smoother matrix is formed). Fewer than q distinct
    epochs leave A singular at every lambda: a RankDeficiencyError.
    """
    import scipy.linalg

    p, n, c = _degree(B), B.first.size, B.n_bases
    _require_integer(q, "penalty order q")
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise InvalidInputError(f"y must have length {n}, got {y.shape}")
    if not (math.isfinite(lam) and lam >= 0):
        raise InvalidInputError(f"smoothing parameter must be finite and >= 0, got {lam}")
    _sum_of_squares(y)
    merge, ys = _distinct_rows(B.epochs, y)
    Bu = merge(B)
    if Bu.shape[0] < q:
        raise RankDeficiencyError(
            f"need q = {q} distinct epochs for a definite normal matrix, got {Bu.shape[0]}")
    with blas_threads_for(c):
        G = Bu.T @ Bu
        # With q < c every column of D_q is nonzero: only lam = 0 leaves
        # one unpinned, a column of B_u without data (zero on G's diagonal).
        dead = np.flatnonzero(np.diagonal(G) == 0.0)
        if lam == 0 and dead.size:
            raise RankDeficiencyError(
                f"basis functions {dead.min()}..{dead.max()} have empty data support "
                "and zero penalty; increase lambda or reduce the section count"
            )
        L, ridged = _factorize(_normal_band(G, p, q, lam))
        solve = functools.partial(scipy.linalg.lapack.dpbtrs, L, lower=1)
        theta = solve(Bu.T @ ys)[0]
        M = solve(G)[0]  # A^{-1} B'B: its trace is tr(H)
        tr_h = float(np.trace(M))
        tr_hh = float(np.sum(M * M.T))
    resid = y - B.dot(theta)
    rss = float(resid @ resid)
    df_res = n - 2.0 * tr_h + tr_hh
    sigma2 = rss / df_res if df_res > 0 else float("nan")
    return FitResult(
        theta=theta,
        factor_diagonals=tuple(d[: c - k] for k, d in enumerate(L)),
        df_res=df_res,
        sigma2=sigma2,
        ridged=ridged,
    )


def _gcv_cost(rss, tr_h, n):
    """GCV from the residual sum of squares and tr(H), elementwise; +inf where
    1 - tr(H)/n is below the floor (near-interpolating configuration)."""
    denom = 1.0 - tr_h / n
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom < GCV_DENOM_FLOOR, np.inf, rss / denom**2)


def best_columns(cost: np.ndarray, key: np.ndarray, sign: int) -> np.ndarray:
    """Index of each row's best column, whatever the columns' order: among
    the finite costs within COST_TIE_RTOL of the row's least (cost - least
    <= COST_TIE_RTOL * cost), the largest ``sign * key``, the first of equal
    keys; column 0 where no cost is finite."""
    finite = np.isfinite(cost)
    least = np.min(cost, axis=1, keepdims=True, initial=np.inf, where=finite)
    with np.errstate(invalid="ignore"):  # inf - inf on rows with no finite cost
        tied = finite & (cost - least <= COST_TIE_RTOL * cost)
    return np.argmax(np.where(tied, sign * key, -np.inf), axis=1)


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
    scores 0. mu is None where ``dpbtrf`` rejects the factor of
    B_u'B_u + D'D, or ``eigh`` fails: such a profile scores +inf at every
    lambda. It is None, with no factorization, for fewer than q distinct
    epochs (``core.fit`` rejects them), where that matrix is singular.
    With exactly q distinct epochs, the splines that D leaves unpenalized
    interpolate the epochs' values: every mu is 0 and w = ys^2, so every
    (m, lambda) scores the same float and the tie rule decides."""

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


def gcv_profile(Bu: np.ndarray, ys: np.ndarray, yy: float, p: int, q: int) -> GcvProfile:
    """Diagonalize one design of degree p from its distinct-epoch rows
    ``Bu``, the matching ``ys`` and y'y (in the caller's BLAS scope)."""
    import scipy.linalg

    r, c = Bu.shape
    if r < q:
        return GcvProfile(None)
    if r == q:
        w = ys * ys
        return GcvProfile(np.zeros(r), w, yy - math.fsum(w), _RSS_ROUNDING * yy)
    G = Bu.T @ Bu
    # LAPACK directly: at these sizes the checked wrappers cost as much as
    # the factorization. info > 0 is a factor that is not definite.
    L, info = scipy.linalg.lapack.dpbtrf(_normal_band(G, p, q, 1.0), lower=1)
    if info:
        return GcvProfile(None)
    solve = functools.partial(scipy.linalg.lapack.dtbtrs, L, uplo="L")
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
    """(merge, ys): ``merge`` maps a ``BasisMatrix`` at ``epochs`` to its
    dense rows, one per distinct epoch times the square root of its count,
    and ys holds each epoch's sum of y over that root. The local rows are
    merged first, so only those r dense rows are built. For sorted epochs
    that never repeat, these are the design's rows and y, bit for bit."""
    _, first, inverse, counts = np.unique(
        epochs, return_index=True, return_inverse=True, return_counts=True)
    root = np.sqrt(counts)
    return (lambda B: B.at(first).values * root[:, None]), np.bincount(inverse, weights=y) / root


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
    point's neighbours. Of every lambda scored, in no particular order,
    ``best_columns`` picks the largest whose cost ties with the least.
    Arrays (lambda_hat, cost); (nan, inf) if degenerate. ``n`` is the
    number of observations behind the profiles."""
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


def minimize_gcv_lambda(designs, y, q: int, grid: LambdaGrid = LambdaGrid()):
    """The GCV-minimizing lambda of each ``BasisMatrix`` in the iterable
    ``designs``: arrays (lambda_hat, cost), one entry per design, (nan, inf)
    where every candidate is degenerate; deterministic for fixed inputs,
    and each entry equals the search on that design alone. A None design
    (``basis.scan_bases``' degenerate knots) scores as a pencil that is not
    definite. A design of any other type, a bare ``BasisMatrix`` in place
    of the iterable, a q that is not an integer, a grid that is not a
    ``LambdaGrid``, a y that is not 1-D or that ``_sum_of_squares`` rejects
    (all checked before any design is drawn), or a design whose epoch count
    is not y's length, is an InvalidInputError.

    Each design is diagonalized in its own BLAS scope and dropped before the
    next is drawn, then ``search_lambda`` searches all of them together. A
    design's rows are merged by epoch before diagonalizing (rows at one
    epoch are equal), from its local values, so that its dense rows are
    built at the distinct epochs only; designs that share one epochs array
    share the merge.
    """
    if isinstance(designs, BasisMatrix):
        raise InvalidInputError("designs must be an iterable of BasisMatrix; pass [B] for one")
    _require_integer(q, "penalty order q")
    if not isinstance(grid, LambdaGrid):
        raise InvalidInputError(f"grid must be a LambdaGrid, got {grid!r}")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise InvalidInputError(f"y must have length N, one value per epoch, got {y.shape}")
    yy, profiles, epochs = _sum_of_squares(y), [], None
    for design in designs:
        if design is None:
            profiles.append(GcvProfile(None))
            continue
        p = _degree(design)
        if design.epochs is not epochs:
            if design.epochs.size != y.size:
                raise InvalidInputError(
                    f"y must have length {design.epochs.size}, got {y.shape}")
            epochs, (merge, ys) = design.epochs, _distinct_rows(design.epochs, y)
        Bu = merge(design)
        with blas_threads_for(Bu.shape[1]):
            profiles.append(gcv_profile(Bu, ys, yy, p, q))
        # Drop it before the next is drawn: with two large designs alive at
        # once, a strided n = 1500 fit peaked 50 MB higher.
        del design, Bu
    return search_lambda(profiles, y.size, grid.points())
