"""Projection onto a polyhedral set in a weighted inner product.

The projection ``argmin (y-x)^T S (y-x)`` over ``{A y <= b, A_eq y = b_eq}``
is the single numerical kernel invoked by both integrators.  It is solved
with a primal active-set method: finite on these small dense problems,
deterministic (ties broken by lowest row index), and warm-startable across
time steps where the active set changes slowly.

Feasible starting points, when the caller cannot supply one, come from a
phase-1 linear program (HiGHS via scipy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from .errors import InfeasibleSetError, InvalidInputError, LatSweepError
from .linalg import nullspace_basis, pseudoinverse

DEFAULT_TOL = 1e-10

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-09,
}


@dataclass(frozen=True)
class PolyhedralSet:
    """``{x : A x <= b, A_eq x = b_eq}`` with dense coefficient rows.

    ``b_eq`` defaults to zeros when equality rows are given without it.
    """

    A: np.ndarray
    b: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if A.shape[0] != b.shape[0]:
            raise InvalidInputError(
                f"{A.shape[0]} inequality rows but {b.shape[0]} bounds"
            )
        if self.A_eq is not None:
            A_eq = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
            b_eq = np.zeros(A_eq.shape[0]) if self.b_eq is None else self.b_eq
            b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
            object.__setattr__(self, "A_eq", A_eq)
            object.__setattr__(self, "b_eq", b_eq)
            if A_eq.shape[0] != b_eq.shape[0]:
                raise InvalidInputError(
                    f"{A_eq.shape[0]} equality rows but {b_eq.shape[0]} bounds"
                )
            if A_eq.shape[1] != A.shape[1]:
                raise InvalidInputError("A and A_eq column counts differ")
        elif self.b_eq is not None:
            raise InvalidInputError("b_eq given without A_eq")
        for part in (self.A, self.b, self.A_eq, self.b_eq):
            if part is not None and not np.all(np.isfinite(part)):
                raise InvalidInputError("polyhedral set has non-finite entries")

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def n_inequalities(self) -> int:
        return self.A.shape[0]

    def violation(self, x: np.ndarray) -> float:
        """Largest constraint violation at ``x`` (0 when inside)."""
        v = 0.0
        if self.A.shape[0]:
            v = max(v, float(np.max(self.A @ x - self.b)))
        if self.A_eq is not None and self.A_eq.shape[0]:
            v = max(v, float(np.max(np.abs(self.A_eq @ x - self.b_eq))))
        return v

    def contains(self, x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        return self.violation(np.asarray(x, dtype=float)) <= tol


@dataclass(frozen=True)
class ProjectionResult:
    point: np.ndarray
    active_inequalities: tuple[int, ...]
    kkt_residual: float


@dataclass
class WarmStart:
    """Single-owner handle carrying hints between consecutive projections."""

    active: tuple[int, ...] | None = None
    _eq_ref: object = field(default=None, repr=False)
    _s_ref: object = field(default=None, repr=False)
    _Z0: np.ndarray | None = field(default=None, repr=False)
    _H0: np.ndarray | None = field(default=None, repr=False)
    _H0_chol: object = field(default=None, repr=False)


def _weight_apply(S: np.ndarray, v: np.ndarray) -> np.ndarray:
    if S.ndim == 1:
        return S[:, None] * v if v.ndim == 2 else S * v
    return S @ v


def _check_weight(S: np.ndarray, n: int) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim == 1:
        if S.shape[0] != n or np.any(S <= 0):
            raise InvalidInputError("diagonal weight must be positive, length n")
    elif S.ndim == 2:
        if S.shape != (n, n):
            raise InvalidInputError(f"weight matrix must be {n}x{n}")
        if not np.allclose(S, S.T, atol=1e-12 * (1 + np.abs(S).max())):
            raise InvalidInputError("weight matrix must be symmetric")
    else:
        raise InvalidInputError("weight must be a vector or a matrix")
    if not np.all(np.isfinite(S)):
        raise InvalidInputError("weight has non-finite entries")
    return S


def find_feasible_point(poly: PolyhedralSet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Phase-1 solve: a point of the set, or ``InfeasibleSetError``.

    Minimizes the largest inequality violation subject to the equality rows;
    the set is declared empty when the optimum exceeds ``tol``.
    """
    n = poly.dim
    l = poly.n_inequalities
    if l == 0:
        if poly.A_eq is None:
            return np.zeros(n)
        x = pseudoinverse(poly.A_eq) @ poly.b_eq
        if np.max(np.abs(poly.A_eq @ x - poly.b_eq), initial=0.0) > max(tol, 1e-9):
            raise InfeasibleSetError("equality constraints are inconsistent")
        return x
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A_ub = np.hstack([poly.A, -np.ones((l, 1))])
    if poly.A_eq is not None:
        A_eq = np.hstack([poly.A_eq, np.zeros((poly.A_eq.shape[0], 1))])
        b_eq = poly.b_eq
    else:
        A_eq = None
        b_eq = None
    bounds = [(None, None)] * n + [(0, None)]
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=poly.b,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status == 2 or (res.status == 0 and res.fun > max(tol, 1e-9)):
        raise InfeasibleSetError("polyhedral set is empty")
    if res.status != 0:
        raise LatSweepError(f"phase-1 linear program failed: {res.message}")
    return np.asarray(res.x[:n], dtype=float)


def _nullspace_machinery(S, poly, warm):
    """Kernel basis of the equality rows plus the reduced Hessian factor.

    Reused across calls through the warm handle whenever the caller passes
    the same equality-row and weight arrays (the catch-up loop does).
    """
    if (
        warm is not None
        and warm._Z0 is not None
        and warm._eq_ref is poly.A_eq
        and warm._s_ref is S
        and warm._Z0.shape[0] == poly.dim
    ):
        return warm._Z0, warm._H0, warm._H0_chol
    n = poly.dim
    if poly.A_eq is None or poly.A_eq.shape[0] == 0:
        Z0 = np.eye(n)
    else:
        Z0 = nullspace_basis(poly.A_eq)
    H0 = Z0.T @ _weight_apply(S, Z0) if Z0.shape[1] else np.zeros((0, 0))
    H0 = 0.5 * (H0 + H0.T)
    chol = scipy.linalg.cho_factor(H0) if H0.shape[0] else None
    if warm is not None:
        warm._eq_ref = poly.A_eq
        warm._s_ref = S
        warm._Z0 = Z0
        warm._H0 = H0
        warm._H0_chol = chol
    return Z0, H0, chol


def project(
    S: np.ndarray,
    x: np.ndarray,
    poly: PolyhedralSet,
    tol: float = DEFAULT_TOL,
    start: np.ndarray | None = None,
    warm: WarmStart | None = None,
) -> ProjectionResult:
    """S-weighted projection of ``x`` onto ``poly``.

    ``start``, when given and feasible within tolerance, skips the phase-1
    solve.  ``warm`` carries the previous active set and cached equality-row
    factorizations between calls; it must not be shared across threads.
    """
    x = np.asarray(x, dtype=float)
    n = poly.dim
    if x.shape != (n,):
        raise InvalidInputError(f"point has shape {x.shape}, expected ({n},)")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("point has non-finite entries")
    S = _check_weight(S, n)

    act_tol = max(tol, 1e-12)
    y = None
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape == (n,) and poly.violation(start) <= 10 * act_tol:
            y = start.copy()
    if y is None:
        y = find_feasible_point(poly, tol)

    Z0, H0, H0_chol = _nullspace_machinery(S, poly, warm)
    A, b = poly.A, poly.b
    l = A.shape[0]
    Sx = _weight_apply(S, x)

    resid = b - A @ y if l else np.zeros(0)
    active = resid <= act_tol
    if warm is not None and warm.active is not None:
        keep = np.zeros(l, dtype=bool)
        for j in warm.active:
            if 0 <= j < l and resid[j] <= act_tol:
                keep[j] = True
        active = keep

    def eqp_direction(active_mask):
        """Step to the optimum of the working-set equality problem."""
        if Z0.shape[1] == 0:
            return np.zeros(n), None
        M = A[active_mask] @ Z0 if np.any(active_mask) else np.zeros((0, Z0.shape[1]))
        N = nullspace_basis(M) if M.shape[0] else np.eye(Z0.shape[1])
        if N.shape[1] == 0:
            return np.zeros(n), M
        g = _weight_apply(S, y) - Sx
        gz = N.T @ (Z0.T @ g)
        if N.shape[1] == Z0.shape[1]:
            u = scipy.linalg.cho_solve(H0_chol, -gz)
        else:
            Hr = N.T @ H0 @ N
            u = scipy.linalg.solve(0.5 * (Hr + Hr.T), -gz, assume_a="pos")
        return Z0 @ (N @ u), M

    max_iter = 50 * (l + n + 10)
    kkt_stat = 0.0
    for _ in range(max_iter):
        p, M = eqp_direction(active)
        if np.max(np.abs(p), initial=0.0) <= tol * (1.0 + np.max(np.abs(y), initial=0.0)):
            # At the working-set optimum: check multipliers of active rows.
            g = _weight_apply(S, y) - Sx
            gz = Z0.T @ g
            if M is None or M.shape[0] == 0:
                kkt_stat = float(np.linalg.norm(gz))
                break
            lam, *_ = np.linalg.lstsq(M.T, -gz, rcond=None)
            kkt_stat = float(np.linalg.norm(M.T @ lam + gz))
            idx = np.flatnonzero(active)
            neg = lam < -max(tol, 1e-9) * (1.0 + np.abs(lam).max())
            if not np.any(neg):
                break
            worst = idx[np.flatnonzero(neg)[np.argmin(lam[neg])]]
            active[worst] = False
            continue
        # Line search toward the working-set optimum.
        alpha = 1.0
        blocking = -1
        if l:
            Ap = A @ p
            room = np.maximum(b - A @ y, 0.0)
            candidates = ~active & (Ap > 1e-14 * (1.0 + np.abs(Ap).max()))
            if np.any(candidates):
                ratios = np.full(l, np.inf)
                ratios[candidates] = room[candidates] / Ap[candidates]
                amin = ratios.min()
                if amin < 1.0:
                    alpha = amin
                    blocking = int(np.flatnonzero(ratios <= amin * (1 + 1e-12))[0])
        y = y + alpha * p
        if blocking >= 0:
            active[blocking] = True
            # land exactly on the blocking hyperplane modulo arithmetic noise
        else:
            continue
    else:
        raise LatSweepError("active-set projection exceeded its iteration cap")

    resid = b - A @ y if l else np.zeros(0)
    act_idx = tuple(int(j) for j in np.flatnonzero(resid <= act_tol * (1.0 + np.abs(b))))
    if warm is not None:
        warm.active = act_idx
    kkt = max(kkt_stat, poly.violation(y))
    return ProjectionResult(point=y, active_inequalities=act_idx, kkt_residual=kkt)


def project_cone(
    S: np.ndarray,
    x: np.ndarray,
    cone: PolyhedralSet,
    tol: float = DEFAULT_TOL,
    warm: WarmStart | None = None,
) -> ProjectionResult:
    """Projection onto a polyhedral cone (all right-hand sides zero).

    The origin is always feasible, so no phase-1 solve is ever needed and
    infeasibility cannot occur.
    """
    if np.any(cone.b != 0.0):
        raise InvalidInputError("cone has nonzero inequality right-hand sides")
    if cone.b_eq is not None and np.any(cone.b_eq != 0.0):
        raise InvalidInputError("cone has nonzero equality right-hand sides")
    x = np.asarray(x, dtype=float)
    start = x if cone.contains(x, tol) else np.zeros(cone.dim)
    return project(S, x, cone, tol=tol, start=start, warm=warm)
