"""Projection onto a polyhedral set in a weighted inner product.

The projection ``argmin (y-x)^T S (y-x)`` over ``{lo <= A y <= b, A_eq y =
b_eq}`` is computed in one change of coordinates, a :class:`Whitening`: an
S-orthonormal basis ``Z`` of the kernel of the equality rows, ``Z^T S Z =
I``, turns the S-geometry into the Euclidean one by ``v -> Z^T v``, so it
is applied by matrix products alone.  Each call builds its own from ``S``
and ``A_eq`` and keeps nothing.  A weight of ones with no equality rows is
the identity, told from ``S`` in O(n): no factorization, and no product
with ``Z`` or ``S``.  That is the weight of a moving set, whose coordinates
in assembly's K-orthonormal basis of the plane are already whitened.

Every dense factorization here goes through NumPy's LAPACK.  NumPy and
scipy wheels each bundle their own OpenBLAS, and a solve path that switches
between the two thread pools pays each time for waking the idle one; scipy
serves only HiGHS, for phase 1.

One kernel, a primal active-set method on two-sided bounds, serves both
integrators: finite on these small dense problems, deterministic (ties
broken by lowest bound index, upper bounds before lower ones), and
hinted by the last active set across time steps, where it changes slowly.
Every set has the one form ``lower <= A x <= b``, where an infinite bound
is no bound and never enters a working set.  The kernel runs in whitened
coordinates on the whitened rows ``M = (A Z)^T`` and the start's
slacks alone: its working-set steps are least-squares solves against the
few signed active columns of ``M`` (the range-space form).
:func:`project`, for catch-up steps, starts from a point the caller
supplies or from a phase-1 linear program (HiGHS via scipy);
:func:`project_cone`, for event velocities, takes the moving set itself
with its inactive bounds opened and its active ones at 0, starts at the
cone's apex, which lies in every cone, and checks its result.  Both take
``M`` from the whitening on every call; for a moving set it is a
read-only view of ``V^T``, with no product and no copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import ConeProjectionError, InfeasibleSetError, InvalidInputError, LatSweepError
from .linalg import DEFAULT_RANK_TOL, inverse_cholesky_factor, nullspace_basis, pseudoinverse

DEFAULT_TOL = 1e-10

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-09,
}


@dataclass(frozen=True)
class PolyhedralSet:
    """``{x : lower <= A x <= b, A_eq x = b_eq}`` with dense coefficient rows.

    Every row has two bounds, and an infinite one is no bound: ``+inf`` in
    ``b``, ``-inf`` in ``lower``.  ``lower`` None is a vector of ``-inf``,
    ``A`` None is the identity, and ``b_eq`` defaults to zeros when
    equality rows are given without it.  Bound ``j`` is the upper bound of
    row ``j`` and bound ``rows + j`` its lower bound.  A NaN bound, an upper
    bound of ``-inf`` or a lower bound of ``+inf`` is refused.  Only the
    shapes and the bound vectors are checked here: the coefficient rows are
    checked where a projection or a phase-1 solve first uses them.
    """

    A: np.ndarray | None
    b: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "b", b)
        if self.A is not None:
            A = np.atleast_2d(np.asarray(self.A, dtype=float))
            object.__setattr__(self, "A", A)
            if A.shape[0] != b.shape[0]:
                raise InvalidInputError(f"{A.shape[0]} inequality rows but {b.shape[0]} bounds")
        lower = np.full(b.shape, -np.inf) if self.lower is None else self.lower
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        object.__setattr__(self, "lower", lower)
        if lower.shape != b.shape:
            raise InvalidInputError(f"{lower.shape[0]} lower but {b.shape[0]} upper bounds")
        if np.any(np.isnan(b) | (b == -np.inf)) or np.any(np.isnan(lower) | (lower == np.inf)):
            raise InvalidInputError("polyhedral set has a NaN or a wrong-signed infinite bound")
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
            if A_eq.shape[1] != self.dim:
                raise InvalidInputError("A and A_eq column counts differ")
        elif self.b_eq is not None:
            raise InvalidInputError("b_eq given without A_eq")
        _check_finite(self.b_eq)

    @property
    def dim(self) -> int:
        return self.b.shape[0] if self.A is None else self.A.shape[1]

    @property
    def n_inequalities(self) -> int:
        """Number of bounds, two per row; infinite ones included."""
        return 2 * self.b.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``A x``, or ``x`` itself when ``A`` is the identity."""
        return x if self.A is None else self.A @ x

    def slack(self, x: np.ndarray) -> np.ndarray:
        """Room left in each bound at ``x``, in bound order (negative:
        violated, ``+inf``: no bound)."""
        values = self.apply(x)
        return np.concatenate([self.b - values, values - self.lower])

    def violation(self, x: np.ndarray, slack: np.ndarray | None = None) -> float:
        """Largest constraint violation at ``x`` (0 when inside); ``slack``
        is ``self.slack(x)`` when the caller already has it."""
        v = 0.0
        if self.b.shape[0]:
            v = max(v, float(-np.min(self.slack(x) if slack is None else slack)))
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


def _check_finite(*parts) -> None:
    for part in parts:
        if part is not None and not np.all(np.isfinite(part)):
            raise InvalidInputError("polyhedral set has non-finite entries")


@dataclass(frozen=True)
class Whitening:
    """``v -> Z^T v`` and back, for one weight and one set of equality rows.

    ``Z`` is an S-orthonormal basis, ``Z^T S Z = I``, of the kernel of the
    equality rows (of the whole space when there are none), so each
    direction is one product with ``Z``.  ``Z`` None is the identity, for a
    weight of ones with no equality rows: no product is taken.
    """

    S: np.ndarray
    Z: np.ndarray | None

    @classmethod
    def build(cls, S, A_eq, n: int) -> "Whitening":
        """Validate ``S`` and ``A_eq``.  A weight of ones with no equality
        rows is the identity.  Otherwise one SVD finds a kernel basis ``Z0``
        of ``A_eq`` (the identity when there are no equality rows) and ``Z
        = Z0 U^-1`` for the upper Cholesky factor ``U`` of ``Z0^T S Z0``."""
        S = _check_weight(S, n)
        _check_finite(A_eq)
        equalities = A_eq is not None and A_eq.shape[0] > 0
        if not equalities and S.ndim == 1 and np.all(S == 1.0):
            return cls(S, None)
        Z0 = nullspace_basis(A_eq) if equalities else None
        H0 = S if Z0 is None else Z0.T @ _weight_apply(S, Z0)
        H0 = np.diag(H0) if H0.ndim == 1 else 0.5 * (H0 + H0.T)
        Z = inverse_cholesky_factor(H0)
        return cls(S, Z if Z0 is None else Z0 @ Z)

    def weigh(self, v: np.ndarray) -> np.ndarray:
        """``Z^T S v``: a difference of points as a whitened direction
        (``v`` itself for the identity)."""
        return v if self.Z is None else self.Z.T @ _weight_apply(self.S, v)

    def norm(self, v: np.ndarray) -> float:
        """``||v||_S`` by :func:`_norm`, with no product for the identity."""
        return _norm(v, None if self.Z is None else self.S)

    def back(self, w: np.ndarray) -> np.ndarray:
        """``Z w``: a whitened step back as a step in ``y`` (``w`` itself
        for the identity)."""
        return w if self.Z is None else self.Z @ w

    def rows(self, A: np.ndarray | None) -> np.ndarray:
        """Whitened rows ``(A Z)^T`` as columns.  Where no product is
        needed, a read-only view, as a copy would double assembly's ``V``:
        of ``A^T`` for the identity (a moving set, whose ``A`` is ``V``), of
        ``Z^T`` for ``A`` None, the identity map.  Else a new array."""
        _check_finite(A)
        if A is not None and self.Z is not None:
            return self.Z.T @ A.T
        if A is None and self.Z is None:
            return np.eye(self.S.shape[0])
        rows = (self.Z if A is None else A).T
        rows.flags.writeable = False
        return rows


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

    The set is declared empty when its smallest largest bound violation,
    subject to the equality rows, exceeds ``tau = max(tol, 1e-9)``.  With
    the identity map the bounds, infinite ones included, are the variable
    bounds of one linear program; when that is empty to the solver's own
    tolerance, it is solved once more with the bounds widened by ``tau``,
    which the equality rows meet exactly when that smallest violation is
    within ``tau``.  Otherwise the finite bounds are stacked as rows ``[A;
    -A] y <= [b; -lower]`` and the violation is one more variable,
    minimized.
    """
    _check_finite(poly.A, poly.A_eq)
    n = poly.dim
    A_eq = poly.A_eq
    tau = max(tol, 1e-9)
    if poly.A is None:
        for widen in (0.0, tau):
            res = _phase_one(np.zeros(n), None, None, A_eq, poly.b_eq,
                             np.column_stack([poly.lower - widen, poly.b + widen]))
            if res.status != 2:
                break
    else:
        b_ub = np.concatenate([poly.b, -poly.lower])
        finite = np.isfinite(b_ub)
        A_ub, b_ub = np.vstack([poly.A, -poly.A])[finite], b_ub[finite]
        l = A_ub.shape[0]
        if l == 0:
            if A_eq is None:
                return np.zeros(n)
            x = pseudoinverse(A_eq) @ poly.b_eq
            if np.max(np.abs(A_eq @ x - poly.b_eq), initial=0.0) > tau:
                raise InfeasibleSetError("equality constraints are inconsistent")
            return x
        # one more variable, the violation v >= 0: A y - v <= b
        c = np.zeros(n + 1)
        c[-1] = 1.0
        A_ub = np.hstack([A_ub, -np.ones((l, 1))])
        if A_eq is not None:
            A_eq = np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))])
        res = _phase_one(c, A_ub, b_ub, A_eq, poly.b_eq, [(None, None)] * n + [(0, None)])
    if res.status == 2 or (res.status == 0 and res.fun > tau):
        raise InfeasibleSetError("polyhedral set is empty")
    if res.status != 0:
        raise LatSweepError(f"phase-1 linear program failed: {res.message}")
    return np.asarray(res.x[:n], dtype=float)


def _phase_one(c, A_ub, b_ub, A_eq, b_eq, bounds):
    return linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        options=_LP_OPTIONS,
    )


def project(
    S: np.ndarray,
    x: np.ndarray,
    poly: PolyhedralSet,
    tol: float = DEFAULT_TOL,
    start: np.ndarray | None = None,
    active: tuple[int, ...] | None = None,
) -> ProjectionResult:
    """S-weighted projection of ``x`` onto ``poly``.

    ``start``, when given and feasible within tolerance, skips the phase-1
    solve.  ``active``, a previous result's ``active_inequalities``, keeps
    out of the start's working set every bound it does not name.  The
    whitening and its rows ``M`` are built on every call: for a moving set,
    in a weight of ones, a read-only view of ``V^T``.
    """
    n = poly.dim
    x = _check_point(x, n)
    white = Whitening.build(S, poly.A_eq, n)
    M = white.rows(poly.A)

    act_tol = max(tol, 1e-12)
    y, slack = None, None
    if start is not None:
        y, slack = _checked_start(poly, start, 10 * act_tol)
    if y is None:
        y = find_feasible_point(poly, tol)
        slack = poly.slack(y)

    working = slack <= act_tol
    if active is not None:
        keep = np.zeros(poly.n_inequalities, dtype=bool)
        keep[[j for j in active if 0 <= j < keep.size]] = True
        working &= keep
    y, _, _, kkt_stat = _active_set(white, M, slack, x, y, working, tol)

    slack = poly.slack(y)
    bound = np.concatenate([poly.b, poly.lower])
    act_idx = tuple(int(j) for j in np.flatnonzero(_on_bounds(slack, bound, tol)))
    kkt = max(kkt_stat, poly.violation(y, slack))
    return ProjectionResult(point=y, active_inequalities=act_idx, kkt_residual=kkt)


def _on_bounds(slack: np.ndarray, bound: np.ndarray, tol: float) -> np.ndarray:
    """Which finite bounds a point sits on: those whose slack is at most
    ``max(tol, 1e-12) (1 + |bound|)``, the activity test of
    :func:`project`'s result.  ``slack`` may hold one column per point,
    with ``bound`` as a column."""
    act_tol = max(tol, 1e-12)
    return (slack <= act_tol * (1.0 + np.abs(bound))) & np.isfinite(bound)


def _negative_multipliers(lam: np.ndarray, tol: float) -> np.ndarray:
    """The multipliers the kernel drops from its working set: those below
    ``-max(tol, 1e-9) (1 + max |lam|)``, per column when ``lam`` has
    several."""
    return lam < -max(tol, 1e-9) * (1.0 + np.abs(lam).max(axis=0, initial=0.0))


def _checked_start(poly: PolyhedralSet, start, tol: float):
    """``start`` and its slack when it lies in ``poly`` within ``tol``, else
    ``(None, None)``."""
    start = np.asarray(start, dtype=float)
    if start.shape != (poly.dim,):
        return None, None
    slack = poly.slack(start)
    return (start, slack) if poly.violation(start, slack) <= tol else (None, None)


def _columns(M: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The signed columns of the bounds ``idx``: ``M_i`` for the upper bound
    ``i``, ``-M_i`` for the lower bound ``cols + i``; a new array."""
    cols = M.shape[1]
    lower = idx >= cols
    C = M[:, idx - cols * lower]
    C[:, lower] *= -1.0
    return C


def _norm(r: np.ndarray, S: np.ndarray | None = None) -> float:
    """``||r||``, or ``||r||_S`` in a weight ``S``, of a finite ``r``, scaled
    by the power of two of its largest entry: no square overflows, and the
    value is the unscaled one bit for bit wherever that stays in range."""
    _, exponent = np.frexp(np.max(np.abs(r), initial=0.0))
    r = np.ldexp(r, -exponent)
    norm = np.linalg.norm(r) if S is None else np.sqrt(max(r @ _weight_apply(S, r), 0.0))
    return float(np.ldexp(norm, exponent))


def _working_set_solve(C: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``lstsq(C, rhs)`` on the signed active columns ``C`` of a working set,
    with singular values up to :data:`~latsweep.linalg.DEFAULT_RANK_TOL`
    times the largest cut, the rule under which assembly counts columns as
    dependent.  The columns are rows of the whitened map, such as ``V``,
    known only to rounding: mirror-image springs have rows of ``V`` that
    agree to it, a singular value near 1e-16 of the largest.  NumPy's
    default cutoff, epsilon times the larger dimension, can keep it, and
    the multipliers then grow as its inverse until ``e + C lam`` is lost to
    cancellation; cut, the pair acts as one constraint.  A cut of a truly
    independent column misses stationarity, which the KKT checks catch.
    """
    return np.linalg.lstsq(C, rhs, rcond=DEFAULT_RANK_TOL)[0]


def _active_set(white: Whitening, M, slack, x, y0, active, tol: float):
    """The primal active-set loop of both projections, from the feasible ``y0``.

    It reads only the whitened rows ``M = (A Z)^T``, as columns, the
    start's room ``slack`` in each bound (``+inf`` where there is no bound,
    which never blocks) and the starting working set ``active`` (both
    changed in place).  Bound ``i < cols`` is the upper bound of column
    ``i``, bound ``cols + i`` its lower bound (the column negated).  With
    the target whitened once, ``g = -Z^T S (y0 - x)``, each
    working-set step of the whitened step ``d`` from ``y0`` is ``-r`` for
    ``r = e + C lam``, ``e = d - g``, ``C`` the signed active columns and
    ``lam`` the least-squares solution of ``C lam = -e`` under the rank rule
    of :func:`_working_set_solve`.  At the working-set optimum ``lam`` holds
    the multipliers and ``||r||`` the stationarity residual; least squares
    keeps dependent or duplicated active rows exact, and an empty working set
    takes no solve (``r = e``).  The ratio test reads the bounds the step
    moves toward alone and breaks ties by lowest bound index.  Returns the
    point ``y0 + Z d``, the final working set, its multipliers and
    ``||r||``.
    """
    g = white.weigh(x - y0)
    scale = 1.0 + np.max(np.abs(g), initial=0.0)
    d = np.zeros_like(g)
    known = None
    for _ in range(50 * (slack.size + y0.size + 10)):
        idx = np.flatnonzero(active)
        e = d - g
        if not idx.size:
            lam, r = np.zeros(0), e
        else:
            C = _columns(M, idx)
            lam = _working_set_solve(C, -e) if known is None else known
            r = e + C @ lam
        known = None
        if np.max(np.abs(r), initial=0.0) <= tol * scale:
            # At the working-set optimum: check multipliers of active rows.
            neg = _negative_multipliers(lam, tol)
            if not np.any(neg):
                return y0 + white.back(d), idx, lam, _norm(r)
            active[idx[np.flatnonzero(neg)[np.argmin(lam[neg])]]] = False
            continue
        # Line search toward the working-set optimum: along -r the slacks of
        # the upper bounds fall at -M^T r, those of the lower bounds at M^T r.
        q = M.T @ r
        fall = np.concatenate([-q, q])
        alpha = 1.0
        blocking = -1
        candidates = np.flatnonzero(~active & (fall > 1e-14 * (1.0 + np.abs(fall).max(initial=0.0))))
        if candidates.size:
            with np.errstate(over="ignore"):  # a bound out of reach: inf, never blocking
                ratios = np.maximum(slack[candidates], 0.0) / fall[candidates]
            amin = ratios.min()
            if amin < 1.0:
                alpha = amin
                blocking = int(candidates[np.flatnonzero(ratios <= amin * (1 + 1e-12))[0]])
        d -= alpha * r
        slack -= alpha * fall
        if blocking >= 0:
            active[blocking] = True
        else:
            # A full step lands on the working-set optimum, where C lam = -e
            # holds exactly for the multipliers just found: no second solve.
            known = lam
    raise LatSweepError("active-set projection exceeded its iteration cap")


def project_cone(
    S: np.ndarray,
    x: np.ndarray,
    cone: PolyhedralSet,
) -> ProjectionResult:
    """S-weighted projection of ``x`` onto a cone, a set whose finite bounds are 0.

    The cone is ``{A v <= 0 on the rows where b is 0, A v >= 0 on those
    where lower is 0, A_eq v = 0}``: a set with its inactive bounds opened
    to infinity.  The active-set loop of :func:`project` starts at the
    cone's apex (the origin, which lies in every cone, so no phase 1 is
    needed) with every finite bound in its working set, on ``x`` scaled to
    unit ``||x||_S``.  Its whitening is built as :func:`project` builds
    it.

    The result is checked against the KKT conditions over the finite
    bounds, per bound relative to its whitened norm ``||M e_i||`` (``M =
    (A Z)^T``): primal feasibility, complementarity ``lam . A v = 0``,
    and stationarity, ``||Z^T S (v - x) + C lam||`` recomputed from
    the returned point, with ``C`` the signed columns of the final working
    set and nonnegative multipliers ``lam``.  A residual above
    :data:`DEFAULT_TOL` raises :class:`ConeProjectionError`.
    """
    bounds = np.concatenate([cone.b, cone.lower])
    held = np.isfinite(bounds)
    if np.any(bounds[held] != 0.0):
        raise InvalidInputError("cone has nonzero finite bounds")
    if cone.b_eq is not None and np.any(cone.b_eq != 0.0):
        raise InvalidInputError("cone has nonzero equality right-hand sides")
    n = cone.dim
    x = _check_point(x, n)
    white = Whitening.build(S, cone.A_eq, n)

    x_norm = white.norm(x)
    if x_norm == 0.0 or (white.Z is not None and white.Z.shape[1] == 0):
        return ProjectionResult(np.zeros(n), tuple(int(j) for j in np.flatnonzero(held)), 0.0)

    x = x / x_norm
    M = white.rows(cone.A)
    slack = np.where(held, 0.0, np.inf)
    y, idx, lam, _ = _active_set(white, M, slack, x, np.zeros(n), held.copy(), DEFAULT_TOL)

    col = np.linalg.norm(M, axis=0)
    col[col == 0.0] = 1.0
    col = np.tile(col, 2)
    excess = -cone.slack(y) / col    # > 0: outside, -inf: no bound
    mu = lam * col[idx]    # the multipliers of the unit rows
    r = white.weigh(y - x) + _columns(M, idx) @ lam
    kkt = max(
        np.max(excess[held], initial=0.0),  # primal feasibility
        abs(float(mu @ excess[idx])),       # complementarity
        _norm(r),                           # stationarity
        -np.min(mu, initial=0.0),           # nonnegative multipliers
    )
    if not kkt <= DEFAULT_TOL:
        raise ConeProjectionError(
            f"cone projection missed its KKT conditions by {kkt:.3g} "
            f"(tolerance {DEFAULT_TOL:.3g}, {int(held.sum())} bounds)"
        )
    active = tuple(int(j) for j in np.flatnonzero(excess >= -DEFAULT_TOL))
    return ProjectionResult(point=x_norm * y, active_inequalities=active, kkt_residual=kkt)
