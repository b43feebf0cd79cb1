"""Projection onto a polyhedral set in a weighted inner product.

The projection ``argmin (y-x)^T S (y-x)`` over ``{A y <= b, A_eq y = b_eq}``
has two kernels, which share one change of coordinates: in the kernel
``Z0`` of the equality rows, with ``Z0^T S Z0 = U^T U`` factored once per
solve, ``v -> U^-T Z0^T v`` turns the S-geometry into the Euclidean one.

:func:`project`, which the catch-up integrator calls on every step, is a
primal active-set method: finite on these small dense problems,
deterministic (ties broken by lowest row index), and warm-startable across
time steps where the active set changes slowly.  Its working-set steps are
least-squares solves against the few whitened active rows (the range-space
form).  Feasible starting points, when the caller cannot supply one, come
from a phase-1 linear program (HiGHS via scipy).

:func:`project_cone`, which the event-based integrator calls for its event
velocities, handles cones (all right-hand sides zero) by Moreau's
decomposition: the point splits S-orthogonally into its projections onto
the cone and onto the polar cone, and the polar part is one nonnegative
least-squares problem in the multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import linprog, lsq_linear

from .errors import ConeProjectionError, InfeasibleSetError, InvalidInputError, LatSweepError
from .linalg import nullspace_basis, pseudoinverse

DEFAULT_TOL = 1e-10

#: Optimality tolerance of the bounded-variable least-squares solve on
#: unit-scaled data; well under ``DEFAULT_TOL`` so the KKT check has room.
_BVLS_TOL = 1e-14

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


@dataclass(frozen=True)
class _Whitening:
    """``v -> U^-T Z0^T v`` and back, where ``Z0^T S Z0 = U^T U``."""

    Z0: np.ndarray
    U: np.ndarray

    def forward(self, v: np.ndarray) -> np.ndarray:
        """``U^-T Z0^T v`` for a vector or for the columns of a matrix."""
        return scipy.linalg.solve_triangular(self.U, self.Z0.T @ v, trans="T")

    def back(self, w: np.ndarray) -> np.ndarray:
        """``Z0 U^-1 w``: a whitened gradient back as a step in ``y``."""
        return self.Z0 @ scipy.linalg.solve_triangular(self.U, w)


@dataclass
class WarmStart:
    """Single-owner handle carrying hints between consecutive projections."""

    active: tuple[int, ...] | None = None
    _eq_ref: object = field(default=None, repr=False)
    _s_ref: object = field(default=None, repr=False)
    _white: _Whitening | None = field(default=None, repr=False)


def _weight_apply(S: np.ndarray, v: np.ndarray) -> np.ndarray:
    if S.ndim == 1:
        return S[:, None] * v if v.ndim == 2 else S * v
    return S @ v


def _check_weight(S: np.ndarray, n: int) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(S)):
        raise InvalidInputError("weight has non-finite entries")
    if S.ndim == 1:
        if S.shape[0] != n or np.any(S <= 0):
            raise InvalidInputError("diagonal weight must be positive, length n")
    elif S.ndim == 2:
        if S.shape != (n, n):
            raise InvalidInputError(f"weight matrix must be {n}x{n}")
        # np.allclose's predicate, without its per-call overhead
        if not np.all(np.abs(S - S.T) <= 1e-12 * (1 + np.abs(S).max()) + 1e-5 * np.abs(S.T)):
            raise InvalidInputError("weight matrix must be symmetric")
    else:
        raise InvalidInputError("weight must be a vector or a matrix")
    return S


def _check_point(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise InvalidInputError(f"point has shape {x.shape}, expected ({n},)")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("point has non-finite entries")
    return x


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


def _nullspace_machinery(S, poly, warm) -> _Whitening:
    """Kernel basis of the equality rows and the factor of ``Z0^T S Z0``.

    Reused across calls through the warm handle whenever the caller passes
    the same equality-row and weight arrays (both integrators do).
    """
    if (
        warm is not None
        and warm._white is not None
        and warm._eq_ref is poly.A_eq
        and warm._s_ref is S
        and warm._white.Z0.shape[0] == poly.dim
    ):
        return warm._white
    if poly.A_eq is None or poly.A_eq.shape[0] == 0:
        Z0 = np.eye(poly.dim)
    else:
        Z0 = nullspace_basis(poly.A_eq)
    H0 = Z0.T @ _weight_apply(S, Z0)
    white = _Whitening(Z0, scipy.linalg.cholesky(0.5 * (H0 + H0.T)))
    if warm is not None:
        warm._eq_ref = poly.A_eq
        warm._s_ref = S
        warm._white = white
    return white


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

    Each working-set step, with the whitened gradient ``e = U^-T Z0^T S
    (y - x)`` and active rows ``C = U^-T (A_act Z0)^T`` (one triangular solve
    per row per call), is ``-Z0 U^-1 r`` for ``r = e + C lam`` and
    ``lam = lstsq(C, -e)``.  At the working-set optimum ``lam`` holds the
    multipliers and ``||r||`` the stationarity residual; least squares keeps
    dependent or duplicated active rows exact.
    """
    n = poly.dim
    x = _check_point(x, n)
    S = _check_weight(S, n)

    act_tol = max(tol, 1e-12)
    y = None
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape == (n,) and poly.violation(start) <= 10 * act_tol:
            y = start.copy()
    if y is None:
        y = find_feasible_point(poly, tol)

    white = _nullspace_machinery(S, poly, warm)
    A, b = poly.A, poly.b
    l = A.shape[0]

    resid = b - A @ y if l else np.zeros(0)
    active = resid <= act_tol
    if warm is not None and warm.active is not None:
        keep = np.zeros(l, dtype=bool)
        keep[[j for j in warm.active if 0 <= j < l]] = True
        active &= keep

    cols: dict[int, np.ndarray] = {}  # row j -> U^-T (A_j Z0)^T
    max_iter = 50 * (l + n + 10)
    kkt_stat = 0.0
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        for j in idx:
            if j not in cols:
                cols[j] = white.forward(A[j])
        C = np.array([cols[j] for j in idx]).reshape(idx.size, white.U.shape[0]).T
        e = white.forward(_weight_apply(S, y - x))
        lam = np.linalg.lstsq(C, -e, rcond=None)[0]
        r = e + C @ lam
        p = -white.back(r)
        if np.max(np.abs(p), initial=0.0) <= tol * (1.0 + np.max(np.abs(y), initial=0.0)):
            # At the working-set optimum: check multipliers of active rows.
            kkt_stat = float(np.linalg.norm(r))
            neg = lam < -max(tol, 1e-9) * (1.0 + np.abs(lam).max(initial=0.0))
            if not np.any(neg):
                break
            active[idx[np.flatnonzero(neg)[np.argmin(lam[neg])]]] = False
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
    """S-weighted projection of ``x`` onto a cone ``{A v <= 0, A_eq v = 0}``.

    With the point and the rows whitened as in :func:`project`,
    ``d = U^-T Z0^T S x`` and ``M = U^-T (A Z0)^T``, the projection is
    ``Z0 U^-1 (d - M lam)`` where ``lam >= 0`` minimizes ``||d - M lam||``
    (Moreau's decomposition: the polar part is the Euclidean projection onto
    the cone that the columns of ``M`` generate).  The bounded-variable
    least-squares solve stays exact when those columns are dependent, as
    they are when many bounds turn active at once.

    ``warm`` caches ``Z0`` and the factor ``U`` across calls with the same
    equality-row and weight arrays.  The result is checked against the KKT
    conditions, relative to ``||x||_S`` and per row to ``||M e_i||``: primal
    feasibility ``A v <= 0``, complementarity ``lam . A v = 0`` and the sign
    of the least-squares gradient.  A residual above ``tol`` raises
    :class:`ConeProjectionError`.
    """
    if np.any(cone.b != 0.0):
        raise InvalidInputError("cone has nonzero inequality right-hand sides")
    if cone.b_eq is not None and np.any(cone.b_eq != 0.0):
        raise InvalidInputError("cone has nonzero equality right-hand sides")
    n = cone.dim
    x = _check_point(x, n)
    S = _check_weight(S, n)
    A = cone.A
    l = A.shape[0]

    Sx = _weight_apply(S, x)
    x_norm = float(np.sqrt(max(x @ Sx, 0.0)))
    white = _nullspace_machinery(S, cone, warm)
    if x_norm == 0.0 or white.U.shape[0] == 0:
        return ProjectionResult(np.zeros(n), tuple(range(l)), 0.0)

    # Work in whitened coordinates scaled by 1/||x||_S, with unit columns in
    # M, so the least-squares tolerances and the checks below are scale-free.
    d = white.forward(Sx) / x_norm
    M = white.forward(A.T)
    col = np.linalg.norm(M, axis=0)
    col[col == 0.0] = 1.0
    M /= col
    mu = lsq_linear(M, d, bounds=(0.0, np.inf), method="bvls", tol=_BVLS_TOL).x
    r = d - M @ mu
    v = x_norm * white.back(r)

    rows = (A @ v) / (col * x_norm)
    kkt = max(
        np.max(rows, initial=0.0),      # primal: A v <= 0
        abs(float(mu @ rows)),          # complementarity
        np.max(M.T @ r, initial=0.0),   # sign of the gradient -M^T r
    )
    if not kkt <= tol:
        raise ConeProjectionError(
            f"cone projection missed its KKT conditions by {kkt:.3g} "
            f"(tolerance {tol:.3g}, {l} rows)"
        )
    active = tuple(int(j) for j in np.flatnonzero(rows >= -tol))
    return ProjectionResult(point=v, active_inequalities=active, kkt_residual=kkt)
