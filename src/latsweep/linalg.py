"""Dense-matrix utilities: pseudoinverse, rank, nullspaces, weighted Gram,
a Householder QR in panels and the columns of its orthogonal factor,
triangular inverse.

The pseudoinverse, rank and nullspaces are SVD-based, so rank-deficient
matrices are handled uniformly.  The QR and triangle helpers work in blocks
of :data:`PANEL` columns with NumPy's LAPACK and BLAS alone, and no square
orthogonal factor is formed.  :func:`householder_qr` takes its matrix as
nonzeros in row order and factors each panel on a dense front: the rows
the panel can reach, and the columns those rows can fill.  The front takes
a raw ``numpy.linalg.qr`` of the panel's columns and the panel's
reflectors in compact-WY form (Schreiber & Van Loan, 1989) update the rest
of it, so a banded matrix is factored in its band with no dense copy of
it, and a dense one is the case where every row reaches every column.
Other matrices are plain 2-d ``numpy`` arrays; vectors are 1-d arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError

#: Default relative cutoff on singular values, sized for double precision
#: and lattice matrices with entries of order one.
DEFAULT_RANK_TOL = 1e-10

#: Width of the panels of :func:`householder_qr` and of the widest block
#: :func:`triangular_inverse` hands to ``numpy.linalg.inv``.
PANEL = 64


def _check_matrix(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidInputError(f"expected a 2-d array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("matrix has non-finite entries")
    return A


def fix_signs(N: np.ndarray) -> np.ndarray:
    """Flip columns of ``N`` in place so that each one's entry of largest
    magnitude is positive (the first such entry on ties); returns ``N``.

    The entry is told from each column's largest and smallest values, and
    only a column where the two tie is searched, so no temporary is larger
    than a column or a row."""
    if N.size:
        high, low = N.max(axis=0), N.min(axis=0)
        flip = -low > high
        for j in np.flatnonzero((-low == high) & (high > 0)):
            column = N[:, j]
            flip[j] = np.argmax(column == low[j]) < np.argmax(column == high[j])
        np.negative(N, out=N, where=flip)
    return N


def _rank(s: np.ndarray) -> int:
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])) if s.size else 0


def pseudoinverse(A: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse, cut at :data:`DEFAULT_RANK_TOL`."""
    A = _check_matrix(A)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    r = _rank(s)
    return (vt[:r].T / s[:r]) @ u[:, :r].T


def numerical_rank(A: np.ndarray) -> int:
    """Number of singular values above ``DEFAULT_RANK_TOL`` times the largest."""
    A = _check_matrix(A)
    return _rank(np.linalg.svd(A, compute_uv=False))


def nullspace_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel of ``A`` as columns.

    Returns an ``n x 0`` array when the kernel is trivial.  Columns carry a
    deterministic sign: the entry of largest magnitude is positive.
    """
    A = _check_matrix(A)
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    return fix_signs(vt[_rank(s):].T.copy())


def inverse_cholesky_factor(S: np.ndarray) -> np.ndarray:
    """``U^-1`` for the upper Cholesky factor ``U`` of a symmetric positive
    definite ``S = U^T U``: upper triangular, ``U^-T S U^-1 = I`` and
    ``S^-1 = U^-1 U^-T``, so solves with ``S`` become products.  The
    inverse is :func:`triangular_inverse`'s."""
    return triangular_inverse(np.linalg.cholesky(S).T)


def triangular_inverse(T: np.ndarray) -> np.ndarray:
    """Inverse of a square upper triangular ``T``, by halves, written over
    ``T``, which is returned.

    ``[A B; 0 D]^-1 = [A^-1, -A^-1 B D^-1; 0, D^-1]``: each half is
    inverted in its own place, the off-diagonal block costs two matrix
    products, and only blocks at most :data:`PANEL` wide go to
    ``numpy.linalg.inv``, whose LU factorization takes no pivots on a
    triangle.  Above that width the largest temporaries are the two
    products, each about a quarter of ``T``.  A zero on the diagonal raises
    ``LinAlgError`` there, with ``T`` partly overwritten, and a ``T`` that
    is not square raises it untouched.
    """
    n = T.shape[0]
    if T.ndim != 2 or T.shape[1] != n:
        raise np.linalg.LinAlgError(f"expected a square triangle, got shape {T.shape}")
    if n <= PANEL:
        T[...] = np.linalg.inv(T)
        return T
    h = n // 2
    A_inv = triangular_inverse(T[:h, :h])
    D_inv = triangular_inverse(T[h:, h:])
    T[h:, :h] = 0.0
    T[:h, h:] = -(A_inv @ T[:h, h:]) @ D_inv
    return T


class Reflectors(NamedTuple):
    """The orthogonal factor ``Q`` of a :func:`householder_qr`, kept as its
    compact-WY panels: panel ``(j0, Y, T)`` is ``I - Y T Y^T`` on rows ``j0 :
    j0 + len(Y)`` of ``n_rows``, and ``Q`` is the product of the panels in
    order."""

    panels: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    n_rows: int


def householder_qr(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray], shape: tuple[int, int],
    first: np.ndarray | None = None, last: np.ndarray | None = None,
) -> tuple[np.ndarray, Reflectors]:
    """Householder QR ``A = Q R`` in panels of :data:`PANEL` columns, of an
    ``A`` given by its nonzeros and never formed: ``R`` (``min(m, n) x n``,
    upper triangular) and the :class:`Reflectors` of ``Q``.

    ``entries`` is ``(i, j, v)``, ``A[i, j] = v``, sorted by row ``i``, and
    ``shape`` is ``(m, n)``.  ``first[i]`` and ``last[i]`` bound the columns
    of row ``i`` that may hold a nonzero (``last[i] = -1`` for a zero row),
    and ``first`` must not decrease down the rows; by default every row spans
    every column, as a dense matrix does.  A panel on columns ``j0:j1`` works
    on a dense front: rows ``j0`` to ``r1``, the last row with ``first <
    j1``, and columns ``j0`` to ``j1`` or up to the largest ``last`` of
    those rows, which bounds the fill.  The front holds the rows the
    previous panel left, with its update, and the rows that start in this
    panel, scattered in from ``entries``; it takes a raw
    ``numpy.linalg.qr`` of its first ``j1 - j0`` columns and applies the
    reflectors ``Y`` to the rest in compact-WY form, with ``T^-1 =
    striu(Y^T Y) + diag(1/tau)`` (Joffrain et al., 2006) inverted by
    :func:`triangular_inverse`.  A reflector with ``tau = 0`` is the
    identity, as a column already zero below its diagonal gives, and is
    kept as a zero column of ``Y``.  A row no panel reaches (its ``first``
    is past the panel that holds its diagonal) keeps its entries in ``R``.
    Beside ``R`` and the panels' ``Y`` and ``T``, one front is held at a
    time, and what it leaves to the next panel is copied out before the
    next front is allocated.
    """
    i, j, v = entries
    m, n = shape
    p = min(m, n)
    if first is None:
        first, last = np.zeros(m, dtype=int), np.full(m, n - 1)
    reach = np.maximum.accumulate(last) + 1  # columns rows 0..i can fill
    start = np.searchsorted(i, np.arange(m + 1))  # row r's entries: start[r]:start[r + 1]

    def scatter(out, r0, r1, origin):
        """Rows ``r0:r1`` of ``A`` into ``out``, whose entry ``(0, 0)`` is
        ``A``'s ``(origin, origin)``."""
        rows = slice(start[r0], start[r1])
        out[i[rows] - origin, j[rows] - origin] = v[rows]

    R = np.zeros((p, n))
    panels = []
    front, loaded = np.zeros((0, 0)), 0  # rows j0:loaded of the next panel, from column j0
    for j0 in range(0, p, PANEL):
        j1 = min(j0 + PANEL, n)
        r1 = max(int(np.searchsorted(first, j1)), j0)
        if loaded < j0:  # rows loaded:j0 reach no panel: their entries lie right of their diagonal
            scatter(R, loaded, j0, 0)
            front, loaded = np.zeros((0, 0)), j0
        if r1 == j0:
            continue
        c1 = max(reach[r1 - 1], j1)
        F = np.zeros((r1 - j0, c1 - j0))
        F[:front.shape[0], :front.shape[1]] = front
        del front
        scatter(F, loaded, r1, j0)
        loaded = r1
        block, Y, T = _panel(F, j1 - j0)
        w = block.shape[0]
        R[j0:j0 + w, j0:j1] = block
        R[j0:j0 + w, j1:c1] = F[:w, j1 - j0:]
        panels.append((j0, Y, T))
        front = F[w:, j1 - j0:].copy()
        del F  # before the next front is allocated
    scatter(R, loaded, max(loaded, p), 0)
    return R, Reflectors(tuple(panels), m)


def _panel(F: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor the first ``width`` columns of the front ``F`` and apply the
    reflectors to the rest of ``F`` in place: the panel's rows of ``R`` on
    those columns, and its compact-WY ``Y`` and ``T``."""
    h, tau = np.linalg.qr(F[:, :width], mode="raw")
    w = tau.size
    block = np.triu(h[:, :w].T)
    Y = np.tril(h[:w].T, -1)
    del h
    Y[np.arange(w), np.arange(w)] = 1.0
    Y[:, tau == 0] = 0.0
    T_inv = np.triu(Y.T @ Y, 1)
    T_inv[np.diag_indices(w)] = np.divide(1.0, tau, out=np.ones(w), where=tau != 0)
    T = triangular_inverse(T_inv)
    if F.shape[1] > width:
        F[:, width:] -= Y @ (T.T @ (Y.T @ F[:, width:]))
    return block, Y, T


def householder_columns(
    Q: Reflectors, start: int, stop: int, rows: np.ndarray | None = None,
) -> np.ndarray:
    """Columns ``start:stop`` of the orthogonal factor ``Q`` of a
    :func:`householder_qr`, from its reflectors, with no other column of
    ``Q`` formed; with ``rows``, row ``i`` of ``Q`` is row ``rows[i]`` of
    the result.

    The panels are applied to those columns of the identity, last panel
    first, each on its own rows and two matrix products.  A panel reaches a
    column only if the column has a nonzero in its rows: that is the rows
    of this panel and of every later panel chained to it by shared rows.
    """
    m = Q.n_rows
    out = np.zeros((m, stop - start))
    if start == stop:
        return out
    rows = np.arange(m) if rows is None else rows
    out[rows[start:stop], np.arange(stop - start)] = 1.0
    reach = next_j0 = m
    for j0, Y, T in reversed(Q.panels):
        r1 = j0 + Y.shape[0]
        if r1 <= next_j0:  # shares no row with the later panels
            reach = r1
        next_j0 = j0
        c0, c1 = max(start, j0) - start, min(stop, reach) - start
        if c0 < c1:
            window = rows[j0:r1]
            block = out[window, c0:c1]
            block -= Y @ (T @ (Y.T @ block))
            out[window, c0:c1] = block
    return out


def weighted_gram(V: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Gram matrix ``V^T K V`` of the columns of ``V`` under weights ``K``.

    ``K`` may be a full matrix or a 1-d array of diagonal weights.  The
    result is explicitly symmetrized.
    """
    V = np.asarray(V, dtype=float)
    K = np.asarray(K, dtype=float)
    if K.ndim == 1:
        if K.shape[0] != V.shape[0]:
            raise InvalidInputError(
                f"weight length {K.shape[0]} does not match {V.shape[0]} rows"
            )
        G = V.T @ (K[:, None] * V)
    else:
        if K.shape != (V.shape[0], V.shape[0]):
            raise InvalidInputError(
                f"weight shape {K.shape} does not match {V.shape[0]} rows"
            )
        G = V.T @ K @ V
    return 0.5 * (G + G.T)
