"""B-spline knot vectors and basis evaluation.

A knot vector over ``m`` sections of degree ``p`` carries ``m + 2p + 1``
knots: ``p`` extension knots on each side of the data domain, the domain
endpoints, and ``m - 1`` interior knots. The number of basis functions is
``c = m + p``. Basis values follow the classic two-term recursion from the
degree-0 indicator functions, with 0/0 terms evaluating to 0. Intervals are
half-open except that the last data-domain span is closed on the right, so
the final observation epoch is representable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKnotsError, InvalidInputError, OutOfDomainError

PLACEMENTS = ("quantile", "equidistant")


@dataclass(frozen=True)
class KnotVector:
    """Non-decreasing knot sequence with degree ``p`` and ``m`` sections."""

    knots: np.ndarray
    p: int
    m: int

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        if knots.size != self.m + 2 * self.p + 1:
            raise InvalidInputError(
                f"knot vector needs m + 2p + 1 = {self.m + 2 * self.p + 1} knots, got {knots.size}"
            )
        if np.any(np.diff(knots) < 0):
            raise InvalidInputError("knots must be non-decreasing")
        object.__setattr__(self, "knots", knots)

    @property
    def n_bases(self) -> int:
        return self.m + self.p

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[self.p]), float(self.knots[self.p + self.m])

    def interior_knots(self) -> np.ndarray:
        return self.knots[self.p + 1 : self.p + self.m]

    def span_index(self, t: float) -> int:
        """Index (0-based, within the data domain) of the span containing t."""
        lo, hi = self.domain
        if t >= hi:
            return int(np.searchsorted(self.knots, hi, side="left")) - 1 - self.p
        return int(np.searchsorted(self.knots, t, side="right")) - 1 - self.p


@dataclass(frozen=True)
class BasisMatrix:
    """Dense basis (or basis-derivative) values at evaluation epochs."""

    values: np.ndarray
    epochs: np.ndarray
    derivative_order: int = 0

    @property
    def n_bases(self) -> int:
        return self.values.shape[1]


def build_knot_vector(times, m: int, p: int, placement: str = "quantile") -> KnotVector:
    """Place interior knots by sample quantiles of the unique epochs (or
    equidistantly) and extend ``p`` knots past each domain endpoint.

    Interior knot a (1 <= a <= m-1) sits at the (a/m)-th sample quantile of
    the unique epochs, computed with linear interpolation between order
    statistics. The extension step on each side is the mean interior span
    width, which keeps the recursion away from zero-length end spans.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise InvalidInputError("times must be non-empty")
    if not np.all(np.isfinite(times)):
        raise InvalidInputError("times must be finite")
    if m < 1:
        raise InvalidInputError(f"section count m must be >= 1, got {m}")
    if p < 1:
        raise InvalidInputError(f"degree p must be >= 1, got {p}")
    if placement not in PLACEMENTS:
        raise InvalidInputError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    unique = np.unique(times)
    if unique.size < 2:
        raise InvalidInputError("need at least 2 unique epochs to span a domain")
    u0, um = unique[0], unique[-1]
    if m == 1:
        interior = np.empty(0)
    elif placement == "quantile":
        interior = np.quantile(unique, np.arange(1, m) / m, method="linear")
    else:
        interior = u0 + np.arange(1, m) * (um - u0) / m
    domain_knots = np.concatenate(([u0], interior, [um]))
    # Repeated quantiles may coincide; multiplicity beyond p would create
    # zero-support basis functions.
    _, counts = np.unique(domain_knots, return_counts=True)
    if np.any(counts > p):
        raise DegenerateKnotsError(
            f"coincident knots with multiplicity {counts.max()} exceed degree {p}; reduce m"
        )
    step = (um - u0) / m
    left = u0 - step * np.arange(p, 0, -1)
    right = um + step * np.arange(1, p + 1)
    return KnotVector(np.concatenate((left, domain_knots, right)), p=p, m=m)


def _check_domain(kv: KnotVector, epochs: np.ndarray) -> None:
    lo, hi = kv.domain
    bad = (epochs < lo) | (epochs > hi)
    if np.any(bad):
        offenders = np.asarray(epochs)[bad]
        raise OutOfDomainError(
            f"{offenders.size} epoch(s) outside [{lo}, {hi}], first offender {offenders[0]}"
        )


def _indicator_rows(kv: KnotVector, t: np.ndarray) -> np.ndarray:
    """Degree-0 indicators over every span of the full knot list, with the
    last data-domain span closed on the right."""
    knots = kv.knots
    ind = (knots[None, :-1] <= t[:, None]) & (t[:, None] < knots[None, 1:])
    ind = ind.astype(float)
    hi = kv.domain[1]
    at_end = t == hi
    if np.any(at_end):
        # Snap right-endpoint epochs into the last positive-length span that
        # ends at the domain boundary; the recursion then yields the left
        # limit, which is the closed-span value.
        last = int(np.searchsorted(knots, hi, side="left")) - 1
        ind[at_end, :] = 0.0
        ind[at_end, last] = 1.0
    return ind


def _term(weight: np.ndarray, values: np.ndarray) -> np.ndarray:
    """weight * values, with exactly 0 where the lower-degree value is 0.

    Two knots a subnormal distance apart overflow their weight to inf away
    from the pair, where the lower-degree value is 0; inf * 0 would be NaN.
    """
    with np.errstate(invalid="ignore"):
        return np.where(values == 0.0, 0.0, weight * values)


def _raise_degree(knots: np.ndarray, values: np.ndarray, t: np.ndarray, d: int) -> np.ndarray:
    """One step of the recursion: degree d-1 values -> degree d values."""
    n_funcs = knots.size - 1 - d
    den1 = knots[d : d + n_funcs] - knots[:n_funcs]
    den2 = knots[d + 1 : d + 1 + n_funcs] - knots[1 : 1 + n_funcs]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w1 = np.where(den1 > 0, (t[:, None] - knots[None, :n_funcs]) / den1, 0.0)
        w2 = np.where(den2 > 0, (knots[None, d + 1 : d + 1 + n_funcs] - t[:, None]) / den2, 0.0)
    return _term(w1, values[:, :n_funcs]) + _term(w2, values[:, 1 : 1 + n_funcs])


def _basis_values(kv: KnotVector, t: np.ndarray, degree: int) -> np.ndarray:
    values = _indicator_rows(kv, t)
    for d in range(1, degree + 1):
        values = _raise_degree(kv.knots, values, t, d)
    return values


def eval_basis(kv: KnotVector, epochs) -> BasisMatrix:
    """Evaluate all ``c = m + p`` degree-p basis functions at the epochs."""
    t = np.atleast_1d(np.asarray(epochs, dtype=float))
    _check_domain(kv, t)
    values = _basis_values(kv, t, kv.p)
    return BasisMatrix(values=values, epochs=t, derivative_order=0)


def eval_basis_derivative(kv: KnotVector, epochs) -> BasisMatrix:
    """First derivatives of the basis functions at the epochs.

    Terms whose knot-span denominator vanishes evaluate to 0.
    """
    if kv.p < 1:
        raise InvalidInputError("derivative needs degree p >= 1")
    t = np.atleast_1d(np.asarray(epochs, dtype=float))
    _check_domain(kv, t)
    lower = _basis_values(kv, t, kv.p - 1)  # c + 1 columns
    knots, p, c = kv.knots, kv.p, kv.n_bases
    den1 = knots[p : p + c] - knots[:c]
    den2 = knots[p + 1 : p + 1 + c] - knots[1 : 1 + c]
    with np.errstate(divide="ignore", over="ignore"):
        f1 = np.where(den1 > 0, p / den1, 0.0)
        f2 = np.where(den2 > 0, p / den2, 0.0)
    values = _term(f1, lower[:, :c]) - _term(f2, lower[:, 1 : 1 + c])
    return BasisMatrix(values=values, epochs=t, derivative_order=1)
