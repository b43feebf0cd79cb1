"""Dense-matrix utilities: pseudoinverse, rank, nullspaces, weighted Gram,
columns of a Householder QR's orthogonal factor, triangular inverse.

The pseudoinverse, rank and nullspaces are SVD-based, so rank-deficient
matrices are handled uniformly.  The QR and triangle helpers work in blocks
of :data:`PANEL` columns with NumPy's LAPACK and BLAS alone: the reflectors
of ``numpy.linalg.qr(A, mode="raw")`` are applied in compact-WY form
(Schreiber & Van Loan, 1989), so no square orthogonal factor is formed.
Matrices are plain 2-d ``numpy`` arrays; vectors are 1-d arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

#: Default relative cutoff on singular values, sized for double precision
#: and lattice matrices with entries of order one.
DEFAULT_RANK_TOL = 1e-10

#: Width of the compact-WY panels of :func:`householder_columns` and of the
#: widest block :func:`triangular_inverse` hands to ``numpy.linalg.inv``.
PANEL = 64


def _check_matrix(A: np.ndarray, rank_tol: float) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidInputError(f"expected a 2-d array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("matrix has non-finite entries")
    if not rank_tol > 0:
        raise InvalidInputError("rank_tol must be positive")
    return A


def fix_signs(N: np.ndarray) -> np.ndarray:
    """Flip columns of ``N`` in place so that each one's entry of largest
    magnitude is positive (the first such entry on ties); returns ``N``."""
    if N.size:
        top = N[np.argmax(np.abs(N), axis=0), np.arange(N.shape[1])]
        N[:, top < 0] *= -1.0
    return N


def _rank(s: np.ndarray, rank_tol: float) -> int:
    return int(np.count_nonzero(s > rank_tol * s[0])) if s.size else 0


def pseudoinverse(A: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff."""
    A = _check_matrix(A, rank_tol)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    r = _rank(s, rank_tol)
    return (vt[:r].T / s[:r]) @ u[:, :r].T


def numerical_rank(A: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``rank_tol`` times the largest one."""
    A = _check_matrix(A, rank_tol)
    return _rank(np.linalg.svd(A, compute_uv=False), rank_tol)


def nullspace_basis(A: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel of ``A`` as columns.

    Returns an ``n x 0`` array when the kernel is trivial.  Columns carry a
    deterministic sign: the entry of largest magnitude is positive.
    """
    A = _check_matrix(A, rank_tol)
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    return fix_signs(vt[_rank(s, rank_tol):].T.copy())


def inverse_cholesky_factor(S: np.ndarray) -> np.ndarray:
    """``U^-1`` for the upper Cholesky factor ``U`` of a symmetric positive
    definite ``S = U^T U``: upper triangular, ``U^-T S U^-1 = I`` and
    ``S^-1 = U^-1 U^-T``, so solves with ``S`` become products.  The
    inverse is :func:`triangular_inverse`'s."""
    return triangular_inverse(np.linalg.cholesky(S).T)


def triangular_inverse(T: np.ndarray) -> np.ndarray:
    """Inverse of a square upper triangular ``T``, by halves.

    ``[A B; 0 D]^-1 = [A^-1, -A^-1 B D^-1; 0, D^-1]``: the off-diagonal
    block costs two matrix products, and only blocks at most :data:`PANEL`
    wide go to ``numpy.linalg.inv``, whose LU factorization takes no pivots
    on a triangle.  A zero on the diagonal raises ``LinAlgError`` there, as
    does a ``T`` that is not square.
    """
    n = T.shape[0]
    if T.ndim != 2 or T.shape[1] != n:
        raise np.linalg.LinAlgError(f"expected a square triangle, got shape {T.shape}")
    if n <= PANEL:
        return np.linalg.inv(T)
    h = n // 2
    A_inv = triangular_inverse(T[:h, :h])
    D_inv = triangular_inverse(T[h:, h:])
    out = np.zeros((n, n))
    out[:h, :h] = A_inv
    out[h:, h:] = D_inv
    out[:h, h:] = -(A_inv @ T[:h, h:]) @ D_inv
    return out


def householder_columns(h: np.ndarray, tau: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Columns ``start:stop`` of the orthogonal factor ``Q`` of a Householder
    QR ``A = Q R`` from its reflectors, ``(h, tau) = numpy.linalg.qr(A,
    mode="raw")``, with no other column of ``Q`` formed.

    ``Q = H_0 ... H_(k-1)`` with ``H_j = I - tau_j y_j y_j^T``, where
    ``y_j`` is 1 in row ``j``, 0 above and column ``j`` of ``h^T`` below.
    Applied to those columns of the identity panel by panel, last panel
    first: the reflectors ``Y`` of a panel act as ``I - Y T Y^T`` with
    ``T^-1 = striu(Y^T Y) + diag(1/tau)`` (Joffrain et al., 2006), two
    matrix products each.  A reflector with ``tau = 0`` is the identity
    and is dropped; a column that is already zero below its diagonal, as
    a selection column can be, gives one.
    """
    a = h.T
    m = a.shape[0]
    out = np.zeros((m, stop - start))
    out[np.arange(start, stop), np.arange(stop - start)] = 1.0
    for j0 in reversed(range(0, tau.shape[0], PANEL)):
        cols = j0 + np.flatnonzero(tau[j0:j0 + PANEL])
        if not cols.size:
            continue
        r0 = cols[0]
        Y = np.where(np.arange(r0, m)[:, None] > cols, a[r0:, cols], 0.0)
        Y[cols - r0, np.arange(cols.size)] = 1.0
        T_inv = np.triu(Y.T @ Y, 1)
        T_inv[np.diag_indices(cols.size)] = 1.0 / tau[cols]
        block = out[r0:]
        block -= Y @ (triangular_inverse(T_inv) @ (Y.T @ block))
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
