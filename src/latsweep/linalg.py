"""Dense-matrix utilities: pseudoinverse, rank, nullspaces, weighted Gram,
inverse Cholesky factor.

Everything but the Cholesky factor is SVD-based, so rank-deficient
matrices are handled uniformly.
Matrices are plain 2-d ``numpy`` arrays; vectors are 1-d arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

#: Default relative cutoff on singular values, sized for double precision
#: and lattice matrices with entries of order one.
DEFAULT_RANK_TOL = 1e-10


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
    ``S^-1 = U^-1 U^-T``, so solves with ``S`` become products.

    The LU factorization behind ``numpy.linalg.inv`` takes no pivots on a
    triangular matrix, so the inverse is one back substitution per column.
    """
    return np.linalg.inv(np.linalg.cholesky(S).T)


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
