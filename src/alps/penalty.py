"""Difference operators of the coefficient-difference penalty lam * D_q' D_q."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def difference_matrix(q: int, c: int) -> np.ndarray:
    """(c-q) x c matrix applying the q-fold first difference to a
    coefficient vector; rows of the q=1 matrix are [-1, 1, 0, ...]."""
    if not 1 <= q < c:
        raise InvalidInputError(f"difference order must satisfy 1 <= q < c, got q={q}, c={c}")
    D = np.eye(c)
    for _ in range(q):
        D = np.diff(D, axis=0)
    return D
