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
def _gram_diagonals(q: int, c: int):
    """Flat indices into a c x c array of D_q'D_q's 2q + 1 nonzero
    diagonals, and their values (read-only; O(qc) each, for the
    (c-q) x c ``difference_matrix`` D_q).

    Row r of D_q holds the stencil s (s_k = (-1)^(q-k) binom(q, k)) in
    columns r..r+q, so the diagonal at offset o sums s_k s_{k+o} over the
    rows covering both columns: the stencil products convolved with the
    c - q rows' indicator. The entries are small integers, so these are
    exactly the entries of ``D.T @ D``."""
    if not 1 <= q < c:
        raise InvalidInputError(f"difference order must satisfy 1 <= q < c, got q={q}, c={c}")
    stencil = difference_matrix(q, q + 1)[0]
    rows = np.ones(c - q)
    index, values = [], []
    for o in range(q + 1):
        diagonal = np.convolve(rows, stencil[: q + 1 - o] * stencil[o:])
        i = np.arange(c - o) * (c + 1)
        index += [i + o, i + o * c] if o else [i]
        values += [diagonal, diagonal] if o else [diagonal]
    index, values = np.concatenate(index), np.concatenate(values)
    index.flags.writeable = values.flags.writeable = False
    return index, values


def add_difference_gram(G: np.ndarray, q: int, lam: float = 1.0) -> np.ndarray:
    """G + lam * D_q'D_q for a c x c array G, in a new array: G's copy
    with lam times the penalty's 2q + 1 diagonals added, the same bytes as
    ``G + lam * difference_gram(q, c)``."""
    out = np.array(G, dtype=float, order="C")
    index, values = _gram_diagonals(q, out.shape[0])
    out.reshape(-1)[index] += lam * values
    return out


def difference_gram(q: int, c: int) -> np.ndarray:
    """D_q'D_q for the (c-q) x c ``difference_matrix`` D_q, built without D."""
    return add_difference_gram(np.zeros((c, c)), q)
