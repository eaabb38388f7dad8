"""Difference operators and the coefficient-difference penalty matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class PenaltySpec:
    """Order-q difference penalty P = lam * D_q' D_q on c coefficients."""

    q: int
    lam: float
    c: int
    P: np.ndarray


def difference_matrix(q: int, c: int) -> np.ndarray:
    """(c-q) x c matrix applying the q-fold first difference to a
    coefficient vector; rows of the q=1 matrix are [-1, 1, 0, ...]."""
    if not 1 <= q < c:
        raise InvalidInputError(f"difference order must satisfy 1 <= q < c, got q={q}, c={c}")
    D = np.eye(c)
    for _ in range(q):
        D = np.diff(D, axis=0)
    return D


def penalty_matrix(q: int, c: int, lam: float) -> PenaltySpec:
    """Build the c x c penalty lam * D_q' D_q."""
    if lam < 0:
        raise InvalidInputError(f"smoothing parameter must be >= 0, got {lam}")
    D = difference_matrix(q, c)
    return PenaltySpec(q=q, lam=float(lam), c=c, P=lam * (D.T @ D))
