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


@dataclass(frozen=True)
class BasisMatrix:
    """Basis (or basis-derivative) values at evaluation epochs, kept as the
    p + 1 functions that can be nonzero at each: ``local[k, e]`` belongs to
    function ``first[e] + k`` of ``n_bases``. ``values`` is the dense
    (epochs, n_bases) matrix, built on each access."""

    epochs: np.ndarray
    first: np.ndarray
    local: np.ndarray
    n_bases: int

    @property
    def values(self) -> np.ndarray:
        out = np.zeros((self.first.size, self.n_bases))
        rows = np.arange(self.first.size)[:, None]
        out[rows, self.first[:, None] + np.arange(self.local.shape[0])] = self.local.T
        return out

    def dot(self, theta: np.ndarray) -> np.ndarray:
        """B theta: each epoch's p + 1 local products, summed in order."""
        cols = self.first + np.arange(self.local.shape[0])[:, None]
        return np.add.reduce(self.local * theta[cols], axis=0)

    def at(self, rows) -> BasisMatrix:
        """The basis at the epochs indexed by ``rows``."""
        return BasisMatrix(self.epochs[rows], self.first[rows], self.local[:, rows], self.n_bases)


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
    # One min and one max clear an in-domain array; a NaN fails both.
    if epochs.size and lo <= epochs.min() and epochs.max() <= hi:
        return
    bad = ~((epochs >= lo) & (epochs <= hi))  # NaN too
    if np.any(bad):
        offenders = np.asarray(epochs)[bad]
        raise OutOfDomainError(
            f"{offenders.size} epoch(s) outside [{lo}, {hi}], first offender {offenders[0]}"
        )


def _local_values(knots: np.ndarray, p: int, hi: float, t: np.ndarray, derivative: bool = False):
    """For each knot vector (rows of ``knots``, domain end ``hi``) and each
    epoch, one column per pair, knot vector by knot vector: the p + 1
    degree-p functions (or, with ``derivative``, their first derivatives)
    that may be nonzero there, by the two-term recursion restricted to them
    (so bit for bit the full recursion's values); and the index of the
    first. Pairs run along the last axis, so every step works on contiguous
    rows. An epoch at the domain's right end falls in the last
    positive-length span ending there: the recursion then yields the left
    limit, the closed-span value."""
    # Knots from hi on search as +inf, so an epoch at hi lands in the last
    # span below it and every other epoch in the span that holds it.
    below = np.where(knots < hi, knots, np.inf)
    span = np.concatenate([np.searchsorted(row, t, side="right") for row in below]) - 1
    tc = np.tile(t, len(knots))
    # Row p + k: knot span + k, in the pair's own knot vector.
    at = np.repeat(np.arange(len(knots)) * knots.shape[1], t.size) + span
    near = knots.ravel()[at + np.arange(-p, p + 2)[:, None]]
    # Rising numerators t - knots[j] (j <= span) and falling ones
    # knots[j] - t (j > span), each computed once for every degree.
    rise, fall = tc - near[: p + 1], near[p + 1 :] - tc
    values = np.zeros((p + 3, span.size))
    values[1] = 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for d in range(1, p + 1):
            # Functions j = span-d..span from the degree d - 1 values of
            # j = span-d..span+1 (between two zero rows) and their knot
            # gaps knots[j + d] - knots[j]: function j's rising term and
            # function j - 1's falling term divide by gap j. A term is
            # exactly 0 where its value is 0 or its gap is not positive:
            # knots a subnormal distance apart overflow the ratio to inf,
            # and inf * 0 would be NaN.
            lower = values[: d + 2]
            gap = near[p : p + d + 2] - near[p - d : p + 2]
            keep = (lower != 0.0) & (gap > 0)
            if derivative and d == p:
                # d/dt of the last step: p / gap in place of each ratio.
                term = np.where(keep, p / gap * lower, 0.0)
                return span - p, term[:-1] - term[1:]
            np.add(np.where(keep[:-1], rise[p - d :] / gap[:-1] * lower[:-1], 0.0),
                   np.where(keep[1:], fall[: d + 1] / gap[1:] * lower[1:], 0.0),
                   out=values[1 : d + 2])
    return span - p, values[1:-1]


def eval_basis(kv: KnotVector, epochs, derivative: bool = False) -> BasisMatrix:
    """All ``c = m + p`` degree-p basis functions (or, with ``derivative``,
    their first derivatives) at the epochs. Derivative terms whose
    knot-span denominator vanishes are 0."""
    if derivative and kv.p < 1:
        raise InvalidInputError("derivative needs degree p >= 1")
    t = np.atleast_1d(np.asarray(epochs, dtype=float))
    _check_domain(kv, t)
    first, local = _local_values(kv.knots[None], kv.p, kv.domain[1], t, derivative)
    return BasisMatrix(t, first, local, kv.n_bases)


def eval_basis_derivative(kv: KnotVector, epochs) -> BasisMatrix:
    """First derivatives of the basis functions at the epochs."""
    return eval_basis(kv, epochs, derivative=True)


# Most (section count, epoch) pairs one stacked pass of ``scan_bases``
# evaluates, so that its arrays stay a few hundred kB however many m a scan
# covers.
_SCAN_ROWS = 2048


def scan_bases(times: np.ndarray, ms, p: int, placement: str):
    """For each section count in ``ms``, in order, the basis at ``times``
    (finite, two or more unique), or None where its knots are degenerate.
    Knots and local values come from one stacked pass per block of
    ``_SCAN_ROWS`` pairs, bit for bit ``build_knot_vector`` and
    ``eval_basis``; each basis holds its slice of the block's local values,
    and no dense basis is built here."""
    unique, ms = np.unique(times), np.asarray(ms, dtype=int)
    per = max(1, _SCAN_ROWS // times.size)
    for block in (ms[i : i + per] for i in range(0, ms.size, per)):
        knots, ok = _knot_rows(unique, block, p, placement)
        if ok.any():
            first, values = _local_values(knots[ok], p, unique[-1], times)
        for m, good, r in zip(block.tolist(), ok.tolist(), (np.cumsum(ok) - 1).tolist()):
            if not good:
                yield None
                continue
            pairs = slice(r * times.size, (r + 1) * times.size)
            yield BasisMatrix(times, first[pairs], values[:, pairs], m + p)
