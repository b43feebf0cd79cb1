"""Dense-matrix utilities: pseudoinverse, rank, nullspaces, weighted Gram.

Everything is SVD-based so rank-deficient matrices are handled uniformly.
Matrices are plain 2-d ``numpy`` arrays; vectors are 1-d arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class RankedSVD:
    """SVD factors of one matrix with its numerical rank; singular values
    past ``rank`` count as zero."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    rank: int

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse."""
        r = self.rank
        return (self.vt[:r].T / self.s[:r]) @ self.u[:, :r].T

    def kernel(self) -> np.ndarray:
        """Sign-fixed kernel basis as columns; needs ``full_matrices=True``."""
        N = self.vt[self.rank:].T.copy()
        for j in range(N.shape[1]):
            if N[np.argmax(np.abs(N[:, j])), j] < 0:
                N[:, j] = -N[:, j]
        return N


def _rank(s: np.ndarray, rank_tol: float) -> int:
    return int(np.count_nonzero(s > rank_tol * s[0])) if s.size else 0


def ranked_svd(
    A: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL, full_matrices: bool = False
) -> RankedSVD:
    """SVD of ``A`` with the numerical rank under a relative cutoff."""
    A = _check_matrix(A, rank_tol)
    u, s, vt = np.linalg.svd(A, full_matrices=full_matrices)
    return RankedSVD(u, s, vt, _rank(s, rank_tol))


def pseudoinverse(A: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff."""
    return ranked_svd(A, rank_tol).pinv()


def numerical_rank(A: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``rank_tol`` times the largest one."""
    A = _check_matrix(A, rank_tol)
    return _rank(np.linalg.svd(A, compute_uv=False), rank_tol)


def nullspace_basis(A: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel of ``A`` as columns.

    Returns an ``n x 0`` array when the kernel is trivial.  Columns carry a
    deterministic sign: the entry of largest magnitude is positive.
    """
    return ranked_svd(A, rank_tol, full_matrices=True).kernel()


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
