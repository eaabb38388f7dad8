"""Difference operators of the coefficient-difference penalty lam * D_q' D_q."""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=256)
def difference_band(q: int, c: int) -> np.ndarray:
    """D_q'D_q's q + 1 lower diagonals in LAPACK lower band storage, for
    the (c-q) x c ``difference_matrix`` D_q: row k holds diagonal k,
    ``band[k, j] = (D'D)[j + k, j]``, zero past its c - k entries
    (read-only).

    Row r of D_q holds the stencil s (s_k = (-1)^(q-k) binom(q, k)) in
    columns r..r+q, so diagonal k sums s_i s_{i+k} over the rows covering
    both columns: the stencil products convolved with the c - q rows'
    indicator. The entries are small integers, so these are exactly the
    entries of ``D.T @ D``."""
    if not 1 <= q < c:
        raise InvalidInputError(f"difference order must satisfy 1 <= q < c, got q={q}, c={c}")
    stencil = difference_matrix(q, q + 1)[0]
    band = np.zeros((q + 1, c))
    for k in range(q + 1):
        band[k, : c - k] = np.convolve(np.ones(c - q), stencil[: q + 1 - k] * stencil[k:])
    band.flags.writeable = False
    return band
