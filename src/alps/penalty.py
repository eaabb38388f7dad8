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


def difference_gram(q: int, c: int) -> np.ndarray:
    """D_q'D_q for the (c-q) x c ``difference_matrix`` D_q, built without D.

    Row r of D_q holds the stencil s (s_k = (-1)^(q-k) binom(q, k)) in
    columns r..r+q, so the diagonal at offset o sums s_k s_{k+o} over the
    rows covering both columns: the stencil products convolved with the
    c - q rows' indicator. The entries are small integers, so this is
    exactly ``D.T @ D``."""
    if not 1 <= q < c:
        raise InvalidInputError(f"difference order must satisfy 1 <= q < c, got q={q}, c={c}")
    stencil = difference_matrix(q, q + 1)[0]
    rows = np.ones(c - q)
    K = np.zeros((c, c))
    for o in range(q + 1):
        diagonal = np.convolve(rows, stencil[: q + 1 - o] * stencil[o:])
        np.fill_diagonal(K[:, o:], diagonal)
        np.fill_diagonal(K[o:, :], diagonal)
    return K
