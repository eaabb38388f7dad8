"""B-spline knot vectors and basis evaluation.

A knot vector over ``m`` sections of degree ``p`` carries ``m + 2p + 1``
knots: ``p`` extension knots on each side of the data domain, the domain
endpoints, and ``m - 1`` interior knots. The number of basis functions is
``c = m + p``. Basis values follow the classic two-term recursion from the
degree-0 indicator functions, with 0/0 terms evaluating to 0, restricted to
the p + 1 functions that can be nonzero at each epoch (de Boor's triangular
scheme). Intervals are half-open except that the last data-domain span is
closed on the right, so the final observation epoch is representable.
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
    knots, ok = _knot_rows(unique, np.array([m]), p, placement)
    if not ok[0]:
        _, counts = np.unique(knots[0, p : p + m + 1], return_counts=True)
        raise DegenerateKnotsError(
            f"coincident knots with multiplicity {counts.max()} exceed degree {p}; reduce m"
        )
    return KnotVector(knots[0], p=p, m=m)


def _knot_rows(unique: np.ndarray, ms: np.ndarray, p: int, placement: str):
    """The knot vector of each section count in ``ms`` over the sorted
    unique epochs, one per row (m + 2p + 1 knots, then NaN), with every
    row's interior knots from one quantile call; and whether each row's
    domain knots stay within multiplicity p, counted as ``np.unique``
    counts them. Raises InvalidInputError if such a row is out of order."""
    u0, um = unique[0], unique[-1]
    rows, inner = np.arange(ms.size), ms - 1
    # Interior knot a = 1..m-1 of every row, rows one after another.
    m_of = np.repeat(ms, inner)
    a = np.arange(m_of.size) - np.repeat(np.cumsum(inner) - inner, inner) + 1
    if placement == "quantile":
        interior = np.quantile(unique, a / m_of, method="linear")
    else:
        interior = u0 + a * (um - u0) / m_of
    domain = np.full((ms.size, ms.max() + 1), np.nan)
    domain[:, 0], domain[rows, ms] = u0, um
    domain[np.repeat(rows, inner), a] = interior
    # Repeated quantiles may coincide; multiplicity beyond p would create
    # zero-support basis functions.
    ordered = np.sort(domain, axis=1)
    ok = ~np.any(ordered[:, p:] == ordered[:, :-p], axis=1)
    step = ((um - u0) / ms)[:, None]
    knots = np.full((ms.size, ms.max() + 2 * p + 1), np.nan)
    knots[:, :p] = u0 - step * np.arange(p, 0, -1)
    knots[:, p : p + domain.shape[1]] = domain
    knots[rows[:, None], p + ms[:, None] + np.arange(1, p + 1)] = um + step * np.arange(1, p + 1)
    if np.any(np.diff(knots[ok], axis=1) < 0):
        raise InvalidInputError("knots must be non-decreasing")
    return knots, ok


def _check_domain(kv: KnotVector, epochs: np.ndarray) -> None:
    lo, hi = kv.domain
    bad = ~((epochs >= lo) & (epochs <= hi))  # NaN too
    if np.any(bad):
        offenders = np.asarray(epochs)[bad]
        raise OutOfDomainError(
            f"{offenders.size} epoch(s) outside [{lo}, {hi}], first offender {offenders[0]}"
        )


def _term(num, den, lower: np.ndarray) -> np.ndarray:
    """num/den (0 where den <= 0) times the lower-degree values, exactly 0
    where those are 0: knots a subnormal distance apart overflow the ratio
    to inf, and inf * 0 would be NaN. Callers ignore the warnings."""
    return np.where((lower == 0.0) | ~(den > 0), 0.0, num / den * lower)


def _local_values(knots: np.ndarray, p: int, hi: float, t: np.ndarray, degree: int):
    """For each knot vector (rows of ``knots``, domain end ``hi``) and each
    epoch, one column per pair, knot vector by knot vector: the degree+1
    functions that may be nonzero there, between two zero rows, by the
    two-term recursion restricted to them (so bit for bit the full
    recursion's values); the index of the first; the knots around each
    span. Pairs run along the last axis, so every step works on contiguous
    rows. An epoch at the domain's right end falls in the last
    positive-length span ending there: the recursion then yields the left
    limit, the closed-span value."""
    span = np.concatenate([np.searchsorted(row, t, side="right") for row in knots]) - 1
    last = np.array([np.searchsorted(row, hi, side="left") for row in knots]) - 1
    tc = np.tile(t, len(knots))
    span = np.where(tc == hi, np.repeat(last, t.size), span)
    # Row p + k: knot span + k, in the pair's own knot vector.
    at = np.repeat(np.arange(len(knots)) * knots.shape[1], t.size) + span
    near = knots.ravel()[at + np.arange(-p, p + 2)[:, None]]
    values = np.zeros((degree + 3, span.size))
    values[1] = 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for d in range(1, degree + 1):
            # Functions j = span-d..span: knots j, j+d, then j+1, j+d+1.
            lower = values[: d + 2]
            lo, up = near[p - d : p + 1], near[p : p + d + 1]
            rising = _term(tc - lo, up - lo, lower[:-1])
            lo, up = near[p - d + 1 : p + 2], near[p + 1 : p + d + 2]
            values[1 : d + 2] = rising + _term(up - tc, up - lo, lower[1:])
    return span - degree, values, near


def _dense(first: np.ndarray, values: np.ndarray, n_cols: int) -> np.ndarray:
    """Dense (epochs, n_cols) matrix whose row e holds column e of the
    local ``values`` from index ``first[e]`` on."""
    out = np.zeros((first.size, n_cols))
    out[np.arange(first.size)[:, None], first[:, None] + np.arange(values.shape[0])] = values.T
    return out


def _local_basis(kv: KnotVector, epochs, derivative: bool = False):
    """(epochs, first, values) of the basis (or, with ``derivative``, its
    first derivative) at the epochs: ``values[k, e]`` belongs to basis
    function ``first[e] + k``, k = 0..p, the only ones that can be nonzero
    at epoch e. Derivative terms whose knot-span denominator vanishes are
    0."""
    p = kv.p
    if derivative and p < 1:
        raise InvalidInputError("derivative needs degree p >= 1")
    t = np.atleast_1d(np.asarray(epochs, dtype=float))
    _check_domain(kv, t)
    degree = p - 1 if derivative else p
    first, lower, near = _local_values(kv.knots[None], p, kv.domain[1], t, degree)
    if not derivative:
        return t, first, lower[1:-1]
    # Functions i = first-1..first+p-1: knots i, i+p, then i+1, i+p+1.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = (_term(p, near[p : 2 * p + 1] - near[: p + 1], lower[:-1])
                  - _term(p, near[p + 1 :] - near[1 : p + 2], lower[1:]))
    return t, first - 1, values


def eval_basis(kv: KnotVector, epochs) -> BasisMatrix:
    """Evaluate all ``c = m + p`` degree-p basis functions at the epochs."""
    t, first, values = _local_basis(kv, epochs)
    return BasisMatrix(values=_dense(first, values, kv.n_bases), epochs=t)


def eval_basis_derivative(kv: KnotVector, epochs) -> BasisMatrix:
    """First derivatives of the basis functions at the epochs.

    Terms whose knot-span denominator vanishes evaluate to 0.
    """
    t, first, values = _local_basis(kv, epochs, derivative=True)
    return BasisMatrix(values=_dense(first, values, kv.n_bases), epochs=t)


# Most (section count, epoch) pairs one stacked pass of ``scan_bases``
# evaluates, so that its arrays stay a few hundred kB however many m a scan
# covers.
_SCAN_ROWS = 2048


def scan_bases(times: np.ndarray, ms, p: int, placement: str):
    """For each section count in ``ms``, in order, the basis at ``times``
    (finite, two or more unique), or None where its knots are degenerate.
    Knots and local values come from one stacked pass per block of
    ``_SCAN_ROWS`` pairs, bit for bit ``build_knot_vector`` and
    ``eval_basis``; each dense basis is built as it is drawn, so the caller
    can keep one alive at a time."""
    unique, ms = np.unique(times), np.asarray(ms, dtype=int)
    per = max(1, _SCAN_ROWS // times.size)
    for block in (ms[i : i + per] for i in range(0, ms.size, per)):
        knots, ok = _knot_rows(unique, block, p, placement)
        if ok.any():
            first, values, _ = _local_values(knots[ok], p, unique[-1], times, p)
        for m, good, r in zip(block.tolist(), ok.tolist(), (np.cumsum(ok) - 1).tolist()):
            if not good:
                yield None
                continue
            pairs = slice(r * times.size, (r + 1) * times.size)
            yield BasisMatrix(values=_dense(first[pairs], values[1:-1, pairs], m + p),
                              epochs=times)
