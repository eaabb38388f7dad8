"""Model fitting: scan section counts, select (m, lambda) by GCV, refit,
and produce predictions, derivatives, and t-confidence bands.

The scan places the knots and evaluates the basis of section counts
m = 1..n-1 in one stacked pass per block of them, and hands the bases, one
dense basis at a time, to one lambda search, which diagonalizes each in
turn and then scores all of them in lock-step. It keeps the configuration
with the smallest GCV cost, preferring fewer sections on ties. The refit
at the winning configuration caches the normal factorization, and the
model its inverse factor, so bands at new epochs never re-solve the fit.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import _student_t
from ._blas import blas_threads_for
from .basis import (
    PLACEMENTS,
    KnotVector,
    _local_basis,
    build_knot_vector,
    eval_basis,
    # Not called here (bands take local values), but the benchmark's tracer
    # (perfbench/tracing.py) wraps the name in this module.
    eval_basis_derivative,  # noqa: F401
    scan_bases,
)
from .errors import (
    ConfigError,
    FitFailureError,
    InsufficientDataError,
    InvalidInputError,
    ParseError,
)
from .solver import (
    LambdaGrid,
    best_columns,
    fit_penalized,
    minimize_gcv_lambda,
)
from .timeseries import TimeSeries

MODEL_FORMAT = "alps-model"
MODEL_VERSION = 1

# Strided scan kicks in above this size when requested.
STRIDE_THRESHOLD = 500

M_SCANS = ("exhaustive", "strided")

DEFAULT_ALPHA = 0.05

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FitConfig:
    """Every hyperparameter of one fit: basis degree ``p``, penalty order
    ``q``, knot placement, lambda grid and section-count scan. Validated on
    construction.

    ``m_scan='strided'`` replaces the exhaustive section-count scan with a
    stride-then-refine pass for series longer than 500 points. It is an
    approximation: it can miss the exhaustive scan's GCV minimum (on
    Gramacy-Lee series of 520 points it chose a worse m on two of three seeds).
    """

    p: int = 4
    q: int = 2
    placement: str = "quantile"
    lambda_grid: LambdaGrid = LambdaGrid()
    m_scan: str = "exhaustive"

    def __post_init__(self):
        if not 2 <= self.p <= 4:
            raise ConfigError(f"degree p must be in [2, 4], got {self.p}")
        if not 1 <= self.q < self.p:
            raise ConfigError(
                f"penalty order q must satisfy 1 <= q < p, got q={self.q}, p={self.p}"
            )
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"unknown knot placement {self.placement!r}")
        if self.m_scan not in M_SCANS:
            raise ConfigError(f"m_scan must be 'exhaustive' or 'strided', got {self.m_scan!r}")


@dataclass(frozen=True)
class FitMetadata:
    gcv_cost: float
    placement: str
    n: int
    # One (m, lambda, cost) row per section count evaluated; cost is +inf
    # for degenerate configurations.
    scan: tuple = ()
    ridged: bool = False
    # lambda_hat equals the lambda grid's first or last point. Not saved in
    # the model document.
    lambda_at_grid_end: bool = False


@dataclass(frozen=True)
class AlpsModel:
    """Immutable fitted model; all prediction state is cached here.

    ``inverse_factor`` is W = L^{-1} for the normal matrix A = LL', built
    from ``normal_factorization`` when the model is made, by the same
    routine for a fit and for a loaded document."""

    knot_vector: KnotVector
    p: int
    q: int
    lambda_hat: float
    theta: np.ndarray
    df_res: float
    sigma2: float
    normal_factorization: tuple
    fit_metadata: FitMetadata
    inverse_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factor, lower = self.normal_factorization
        upper = np.tril(factor).T if lower else np.triu(factor)
        with blas_threads_for(upper.shape[0]):
            # inv(L') = W', so W comes out Fortran-ordered: its columns,
            # which bands gather, are contiguous.
            object.__setattr__(self, "inverse_factor", np.linalg.inv(upper).T)

    @property
    def m_hat(self) -> int:
        return self.knot_vector.m

    @property
    def domain(self) -> tuple[float, float]:
        return self.knot_vector.domain


@dataclass(frozen=True)
class PredictionBand:
    """Mean curve (or its rate of change) with pointwise t-CIs."""

    epochs: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    half_width: np.ndarray
    alpha: float

    @property
    def lower(self) -> np.ndarray:
        return self.mean - self.half_width

    @property
    def upper(self) -> np.ndarray:
        return self.mean + self.half_width


def fit(data: TimeSeries, config: FitConfig = FitConfig()) -> AlpsModel:
    """Fit a penalized spline with GCV-selected section count and lambda."""
    p, q, placement = config.p, config.q, config.placement
    n = len(data)
    if n < p + 2:
        raise InsufficientDataError(f"need at least p + 2 = {p + 2} samples, got {n}")
    times, y = data.times, data.values
    # Splines in D's null space have < q zeros, so B'B + D'D is definite from q epochs.
    distinct = np.unique(times).size
    if distinct < max(2, q):
        raise InsufficientDataError(f"need max(2, q) = {max(2, q)} distinct epochs, got {distinct}")
    # y'y enters every GCV score: past the float range none is usable.
    with np.errstate(over="ignore"):
        if not np.isfinite(y @ y):
            raise InvalidInputError("the sum of squared values overflows; rescale the series")

    def scan(ms):
        """Rows (m, lambda_hat, cost), from one lambda search over all ms;
        an m whose knots are degenerate scores (nan, inf)."""
        designs = scan_bases(times, ms, p, placement)
        lam, cost = minimize_gcv_lambda(designs, y, q, config.lambda_grid)
        return list(zip(ms, lam.tolist(), cost.tolist()))

    if config.m_scan == "strided" and n > STRIDE_THRESHOLD:
        stride = math.ceil(n / 100)
        rows = scan(range(1, n, stride))
        best_m = _select(rows)[0]
        seen = {m for m, _, _ in rows}
        refine = [m for m in range(max(1, best_m - stride), min(n - 1, best_m + stride) + 1)
                  if m not in seen]
        rows = sorted(rows + scan(refine))
    else:
        rows = scan(range(1, n))

    m_hat, lambda_hat, cost = _select(rows)
    if not np.isfinite(cost):
        raise FitFailureError(
            "every (m, lambda) configuration was degenerate", diagnostics=tuple(rows)
        )

    lo, hi = config.lambda_grid.points()[[0, -1]]
    at_end = lambda_hat in (lo, hi)
    if at_end:
        log.warning("lambda_hat=%g (m_hat=%d) sits on the %s end of the lambda grid [%g, %g]; "
                    "GCV's minimum may lie beyond it", lambda_hat, m_hat,
                    "lower" if lambda_hat == lo else "upper", lo, hi)

    kv = build_knot_vector(times, m_hat, p, placement)
    B = eval_basis(kv, times)
    result = fit_penalized(B, y, q, lambda_hat)
    meta = FitMetadata(
        gcv_cost=cost, placement=placement, n=n,
        scan=tuple(rows), ridged=result.ridged, lambda_at_grid_end=at_end,
    )
    return AlpsModel(
        knot_vector=kv, p=p, q=q, lambda_hat=lambda_hat, theta=result.theta,
        df_res=result.df_res, sigma2=result.sigma2,
        normal_factorization=result.normal_factorization, fit_metadata=meta,
    )


def _select(rows):
    """Least cost over rows sorted by m; ties keep the smaller m. With no
    finite cost this is rows[0], which the search left at (m, nan, inf)."""
    ms, _, costs = zip(*rows)
    return rows[best_columns(np.array([costs]), np.array([ms], dtype=float), -1)[0]]


# Most entries (basis functions x epochs) of one block of a band's
# gathered columns: 512 kB, however many epochs the band covers.
_BAND_BLOCK = 1 << 16


def _mean_and_quad(model: AlpsModel, first: np.ndarray, values: np.ndarray):
    """Fitted values at epochs given by their local basis values
    (``basis._local_basis``: ``values[k, e]`` belongs to function
    ``first[e] + k``) and, per epoch's basis row b, the fit-variance
    quadratic form b'A^{-1}b = ||Wb||^2, W = L^{-1} for A = LL'. The mean
    sums p + 1 products; Wb sums the p + 1 columns of W that b weights, for
    blocks of at most ``_BAND_BLOCK`` entries, each epoch's bit for bit the
    same in any block."""
    cols = first + np.arange(values.shape[0])[:, None]
    mean = np.add.reduce(values * model.theta[cols], axis=0)
    columns = model.inverse_factor.T  # row j is W's column j
    n = first.size
    quad, per = np.empty(n), max(1, _BAND_BLOCK // columns.shape[1])
    for lo in range(0, n, per):
        block = slice(lo, lo + per)
        x = columns[cols[0, block]] * values[0, block, None]
        for k in range(1, values.shape[0]):
            x += columns[cols[k, block]] * values[k, block, None]
        quad[block] = np.einsum("ij,ij->i", x, x)
    return mean, quad


def _t_quantile(model: AlpsModel, alpha: float) -> float:
    return _student_t.quantile(model.df_res, alpha)


def _band(model: AlpsModel, local, alpha: float) -> PredictionBand:
    """The band at ``local``, ``basis._local_basis``'s (epochs, first, values)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    epochs, first, values = local
    mean, quad = _mean_and_quad(model, first, values)
    std = math.sqrt(max(model.sigma2, 0.0)) * np.sqrt(quad)
    tq = _t_quantile(model, alpha)
    return PredictionBand(
        epochs=epochs, mean=mean, std=std, half_width=tq * std, alpha=alpha
    )


def predict(model: AlpsModel, epochs, alpha: float = DEFAULT_ALPHA) -> PredictionBand:
    """Mean prediction with 100(1-alpha)% pointwise t-confidence bands."""
    return _band(model, _local_basis(model.knot_vector, epochs), alpha)


def predict_derivative(model: AlpsModel, epochs, alpha: float = DEFAULT_ALPHA) -> PredictionBand:
    """First derivative of the fitted curve with t-confidence bands."""
    return _band(model, _local_basis(model.knot_vector, epochs, derivative=True), alpha)


def model_to_dict(model: AlpsModel) -> dict:
    factor, lower = model.normal_factorization
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "p": model.p,
        "q": model.q,
        "m": model.m_hat,
        "placement": model.fit_metadata.placement,
        "n": model.fit_metadata.n,
        "lambda": model.lambda_hat,
        "gcv_cost": model.fit_metadata.gcv_cost,
        "df_res": model.df_res,
        "sigma2": model.sigma2,
        "ridged": model.fit_metadata.ridged,
        "knots": model.knot_vector.knots.tolist(),
        "theta": model.theta.tolist(),
        # The factor as produced by the factorization routine; storing it
        # verbatim makes load-then-predict bit-identical to in-memory use.
        "normal_factor": np.asarray(factor).tolist(),
        "factor_lower": bool(lower),
    }


def save_model(model: AlpsModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)
        fh.write("\n")


def model_from_dict(doc: dict) -> AlpsModel:
    try:
        if doc.get("format") != MODEL_FORMAT:
            raise ParseError(f"not a {MODEL_FORMAT} document")
        p, q, m = int(doc["p"]), int(doc["q"]), int(doc["m"])
        FitConfig(p=p, q=q)  # a degree or order no fit accepts gives broken bands
        kv = KnotVector(np.array(doc["knots"], dtype=float), p=p, m=m)
        theta = np.array(doc["theta"], dtype=float)
        factor = np.array(doc["normal_factor"], dtype=float)
        c = m + p
        if theta.shape != (c,) or factor.shape != (c, c):
            raise ParseError("coefficient/factor dimensions inconsistent with m + p")
        lower = bool(doc["factor_lower"])
        # Every fit leaves the stored triangle exactly zero beyond p places
        # off a positive diagonal; bands invert it.
        beyond = np.tril(factor, -p - 1) if lower else np.triu(factor, p + 1)
        if np.any(beyond != 0) or not np.all(np.diagonal(factor) > 0):
            raise ParseError(f"normal_factor is not a Cholesky factor with bandwidth p = {p}")
        lam, sigma2, df_res = float(doc["lambda"]), float(doc["sigma2"]), float(doc["df_res"])
        finite = all(np.all(np.isfinite(v)) for v in (lam, sigma2, df_res, theta, factor, kv.knots))
        if not (finite and sigma2 >= 0 and df_res > 0 and kv.domain[0] < kv.domain[1]):
            raise ParseError(f"NaN or zero-width bands: {sigma2=}, {df_res=}, {kv.domain=}")
        meta = FitMetadata(
            gcv_cost=float(doc["gcv_cost"]), placement=doc["placement"],
            n=int(doc["n"]), scan=(), ridged=bool(doc.get("ridged", False)),
        )
        return AlpsModel(
            knot_vector=kv, p=p, q=q, lambda_hat=lam, theta=theta,
            df_res=df_res, sigma2=sigma2,
            normal_factorization=(factor, lower),
            fit_metadata=meta,
        )
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError, InvalidInputError) as exc:
        raise ParseError(f"malformed model document: {exc}") from exc


def load_model(path) -> AlpsModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: cannot open ({exc})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return model_from_dict(doc)
