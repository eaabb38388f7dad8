"""Model fitting: scan section counts, select (m, lambda) by GCV, refit,
and produce predictions, derivatives, and t-confidence bands.

The scan places the knots and evaluates the basis of section counts
m = 1..n-1 in one stacked pass per block of them, and hands the bases, as
each epoch's p + 1 local values, to one lambda search, which diagonalizes
each in turn and then scores all of them in lock-step. It keeps the
configuration with the smallest GCV cost, preferring fewer sections on
ties. The refit at the winning configuration keeps the p + 1 diagonals of
its Cholesky factor L; a model's first band inverts L, on the caller's BLAS
threads, and later bands reuse that inverse, so bands at new epochs never
re-solve the fit.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _student_t
from .basis import (
    PLACEMENTS,
    BasisMatrix,
    KnotVector,
    build_knot_vector,
    eval_basis,
    eval_basis_derivative,
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
MODEL_VERSION = 2

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
        for name in ("p", "q"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not 2 <= self.p <= 4:
            raise ConfigError(f"degree p must be in [2, 4], got {self.p}")
        if not 1 <= self.q < self.p:
            raise ConfigError(
                f"penalty order q must satisfy 1 <= q < p, got q={self.q}, p={self.p}"
            )
        if not isinstance(self.lambda_grid, LambdaGrid):
            raise ConfigError(f"lambda_grid must be a LambdaGrid, got {self.lambda_grid!r}")
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        if self.m_scan not in M_SCANS:
            raise ConfigError(f"m_scan must be one of {M_SCANS}, got {self.m_scan!r}")


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
    """Immutable fitted model: exactly the state its document stores.

    ``factor_diagonals`` holds the p + 1 diagonals of L, the Cholesky factor
    of the normal matrix A = LL' (A has bandwidth p), the main one first:
    diagonal k holds the c - k entries L[k + i, i]. ``inverse_factor`` is
    W = L^{-1}, built from them by the model's first band, by the same
    routine for a fit and for a loaded document, and kept for later ones."""

    knot_vector: KnotVector
    q: int
    lambda_hat: float
    theta: np.ndarray
    df_res: float
    sigma2: float
    factor_diagonals: tuple
    fit_metadata: FitMetadata

    @functools.cached_property
    def inverse_factor(self) -> np.ndarray:
        c = self.factor_diagonals[0].size
        upper = np.zeros((c, c))  # L'
        # L'[i, i + k] is flat entry i(c + 1) + k: each diagonal is a basic
        # strided slice, which assigns without building an index array.
        flat = upper.ravel()
        for k, diagonal in enumerate(self.factor_diagonals):
            flat[k :: c + 1][: c - k] = diagonal
        # inv(L') = W', so W comes out Fortran-ordered: its columns, which
        # bands gather, are contiguous. It runs on the caller's BLAS threads.
        return np.linalg.inv(upper).T

    @property
    def p(self) -> int:
        return self.knot_vector.p

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
        knot_vector=kv, q=q, lambda_hat=lambda_hat, theta=result.theta,
        df_res=result.df_res, sigma2=result.sigma2,
        factor_diagonals=result.factor_diagonals, fit_metadata=meta,
    )


def _select(rows):
    """The least-cost row (m, lambda, cost), the smallest m of its ties; with
    no finite cost rows[0], which the search left at (m, nan, inf)."""
    ms, _, costs = zip(*rows)
    return rows[best_columns(np.array([costs]), np.array([ms], dtype=float), -1)[0]]


# Most entries (p + 1 gathered columns of c entries, times epochs) of one
# block of a band: 512 kB, however many epochs the band covers.
_BAND_BLOCK = 1 << 16


def _mean_and_quad(model: AlpsModel, B: BasisMatrix):
    """Fitted values at the epochs of basis ``B`` and, per epoch's basis
    row b, the fit-variance quadratic form b'A^{-1}b = ||Wb||^2,
    W = L^{-1} for A = LL'. Both read B's local values only: the mean is
    ``B.dot``, as for the refit's fitted values; Wb is one einsum over the
    p + 1 columns of W that b weights, summed in order, for blocks of at
    most ``_BAND_BLOCK`` gathered entries, each epoch's bit for bit the
    same in any block."""
    first, values = B.first, B.local
    mean = B.dot(model.theta)
    columns = model.inverse_factor.T  # row j is W's column j
    k = np.arange(values.shape[0])
    quad, per = np.empty(first.size), max(1, _BAND_BLOCK // (columns.shape[1] * k.size))
    for lo in range(0, first.size, per):
        block = slice(lo, lo + per)
        x = np.einsum("ekc,ke->ec", np.take(columns, first[block, None] + k, axis=0),
                      values[:, block])
        quad[block] = np.einsum("ij,ij->i", x, x)
    return mean, quad


def _band(model: AlpsModel, B: BasisMatrix, alpha: float) -> PredictionBand:
    """The band at the epochs of basis (or basis-derivative) ``B``."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    mean, quad = _mean_and_quad(model, B)
    std = math.sqrt(max(model.sigma2, 0.0)) * np.sqrt(quad)
    tq = _student_t.quantile(model.df_res, alpha)
    return PredictionBand(
        epochs=B.epochs, mean=mean, std=std, half_width=tq * std, alpha=alpha
    )


def predict(model: AlpsModel, epochs, alpha: float = DEFAULT_ALPHA) -> PredictionBand:
    """Mean prediction with 100(1-alpha)% pointwise t-confidence bands."""
    return _band(model, eval_basis(model.knot_vector, epochs), alpha)


def predict_derivative(model: AlpsModel, epochs, alpha: float = DEFAULT_ALPHA) -> PredictionBand:
    """First derivative of the fitted curve with t-confidence bands."""
    return _band(model, eval_basis_derivative(model.knot_vector, epochs), alpha)


def model_to_dict(model: AlpsModel) -> dict:
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
        # L's band as produced by the factorization routine; storing it
        # verbatim makes load-then-predict bit-identical to in-memory use.
        "factor_diagonals": [d.tolist() for d in model.factor_diagonals],
    }


def save_model(model: AlpsModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)
        fh.write("\n")


def _version_1_diagonals(doc: dict, p: int, c: int) -> tuple:
    """L's diagonals from a version-1 document, which stores the factorization
    routine's whole c x c output with L in its lower triangle."""
    if doc.get("factor_lower") is not True:
        raise ParseError(f"version 1 needs factor_lower true, got {doc.get('factor_lower')!r}")
    factor = np.array([_numbers(row, "normal_factor") for row in doc["normal_factor"]])
    if factor.shape != (c, c):
        raise ParseError("factor dimensions inconsistent with m + p")
    # Every fit leaves L exactly zero beyond p places below its diagonal.
    if np.any(np.tril(factor, -p - 1) != 0):
        raise ParseError(f"normal_factor is not a Cholesky factor with bandwidth p = {p}")
    return tuple(np.diagonal(factor, -k).copy() for k in range(p + 1))


def _scalar(doc: dict, key: str, types: tuple, default=None):
    """doc[key], or ``default`` where it is missing, whose type is exactly
    one of ``types``: JSON true is no integer and "2" no number."""
    value = doc.get(key, default)
    if type(value) not in types:
        raise ParseError(f"{key} must be {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _numbers(value, key: str) -> np.ndarray:
    """``value`` as a float array where it is a list of JSON numbers, each
    an int or a float, not a bool: "0.5" and true are no coefficients."""
    if type(value) is not list:
        raise ParseError(f"{key} must be a list of numbers, got {type(value).__name__}")
    for entry in value:
        if type(entry) not in (int, float):
            raise ParseError(f"{key} must hold numbers only, got {entry!r}")
    return np.array(value, dtype=float)


def model_from_dict(doc: dict) -> AlpsModel:
    """The model of a version-2 or a version-1 document. Scalar fields and
    the entries of array fields must have their JSON types: nothing is
    coerced, so a document that loads saves back unchanged."""
    try:
        if doc.get("format") != MODEL_FORMAT:
            raise ParseError(f"not a {MODEL_FORMAT} document")
        version = doc.get("version")
        if type(version) is not int or version not in (1, 2):
            raise ParseError(f"unsupported document version {version!r}; known: 1, 2")
        p, q, m, n = (_scalar(doc, key, (int,)) for key in ("p", "q", "m", "n"))
        # A degree, order or placement that no fit accepts gives broken bands.
        placement = FitConfig(p=p, q=q, placement=doc["placement"]).placement
        kv = KnotVector(_numbers(doc["knots"], "knots"), p=p, m=m)
        theta = _numbers(doc["theta"], "theta")
        c = m + p
        if theta.shape != (c,):
            raise ParseError("coefficient dimensions inconsistent with m + p")
        if version == 1:
            diagonals = _version_1_diagonals(doc, p, c)
        else:
            diagonals = tuple(_numbers(d, "factor_diagonals") for d in doc["factor_diagonals"])
            if [d.shape for d in diagonals] != [(c - k,) for k in range(p + 1)]:
                raise ParseError(f"factor_diagonals must be p + 1 = {p + 1} lists of "
                                 f"lengths c = {c} down to c - p = {c - p}")
        if not np.all(diagonals[0] > 0):
            raise ParseError("the factor's diagonal is not positive")
        lam, sigma2, df_res, gcv_cost = (
            float(_scalar(doc, key, (float, int)))
            for key in ("lambda", "sigma2", "df_res", "gcv_cost"))
        finite = all(np.all(np.isfinite(v))
                     for v in (lam, sigma2, df_res, theta, kv.knots, *diagonals))
        if not (finite and sigma2 >= 0 and df_res > 0 and kv.domain[0] < kv.domain[1]):
            raise ParseError(f"NaN or zero-width bands: {sigma2=}, {df_res=}, {kv.domain=}")
        if not math.isfinite(gcv_cost):
            raise ParseError(f"gcv_cost must be finite, got {gcv_cost!r}")
        ridged = _scalar(doc, "ridged", (bool,), False)
        meta = FitMetadata(gcv_cost=gcv_cost, placement=placement, n=n, scan=(), ridged=ridged)
        return AlpsModel(
            knot_vector=kv, q=q, lambda_hat=lam, theta=theta,
            df_res=df_res, sigma2=sigma2,
            factor_diagonals=diagonals, fit_metadata=meta,
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
