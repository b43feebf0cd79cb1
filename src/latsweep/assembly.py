"""Time-independent matrices of the model and rigidity diagnostics.

Everything here is assembled once per lattice: the bases of the elongation
space (feasible stretches) and its stiffness-orthogonal complement
(self-stress directions after Hooke scaling), and the coupling matrices
that turn external loads into translations of the moving set.

The checks and bases come from two Householder QR factorizations and one
values-only SVD, and no square orthogonal factor is formed: both QRs go
through :func:`~latsweep.linalg.householder_qr`, which works in panels on
the rows and columns each panel can reach, and the columns of ``Q`` that
are read are built from the panels' reflectors
(:func:`~latsweep.linalg.householder_columns`).  The constraint
matrix ``R`` is factored on its support ``S``, the columns that hold a
nonzero (see :func:`constraint_factors`): the singular values of ``R_S``
give ``rank R``, and a QR of ``R_S^T`` gives ``ker R_S`` and ``pinv R_S``.
The other degrees of freedom, ``F``, are free, so ``N = blockdiag(ker R_S,
I_F)`` spans ``ker R`` and ``U = C N = [C_S ker R_S, C_F]`` is one small
product, ``U_kernel = C_S ker R_S``, and the columns ``C_F``.  ``C_S`` is
filled straight from the spring endpoints and directions, as
:func:`compatibility_matrix` fills ``C``, and ``C_F`` is never stored: its
entries are ``+-directions`` at the free dofs of each spring's two nodes.
So neither the dense m x nd ``C`` nor the dense m x dim_u ``U`` is formed
on a solve: each is built only on request, on the first read of
:attr:`AssembledSystem.compatibility` or :attr:`AssembledSystem.U_basis`.
A spring's row of ``U`` holds at most ``2d`` nonzeros, so ``K^(1/2) U`` is
factored in a band: free dofs in a reverse Cuthill-McKee order of the node
graph, ``ker R_S`` last and springs sorted by their first column
(:func:`_band_gather`, which reads the nonzeros from the spring endpoints
and ``U_kernel``).  The QR takes those nonzeros, not a dense m x dim_u
array: each panel scatters the rows that start in it into a front of the
rows and columns it can reach.  That one QR gives the rest:

- its triangle ``T`` certifies the determinacy check, that ``U`` has full
  column rank (see :func:`_elongation_rank`), through a blocked inverse of
  ``T`` taken in ``T``'s own place, as ``T`` is dropped right after, so no
  second n x n array is allocated, and ``||U||_F`` summed from the entries
  the band gather reads; ``||T^-1||_F`` does not depend on the order of
  rows and columns;
- the trailing columns ``W`` of its orthogonal factor, built in spring
  order, span ``ker (K^(1/2) U)^T``, so ``V = K^(-1/2) W`` is a
  K-orthonormal basis of the self-stress plane, ``V^T K V = I``, at any
  stiffness contrast.

``V`` is the only copy of the plane that is kept: the K-orthogonal
projector onto it is ``v -> V V^T (K v)``, and the reduced space,
coordinates in ``V``, is Euclidean, so no Gram matrix of the plane is formed
or factored.  Of ``U`` the system keeps ``N`` and ``U_kernel``: the
balance ``U^T s`` of an initial stress is a sum per dof over the spring
endpoints (:meth:`AssembledSystem.balance`), and the force map ``F``, the
only solve-time reader of the dense ``U``, is built on first use.  Every
check of the assumptions reads ``rank [C; R]`` as ``rank R + rank U``, each
under the relative cutoff of its own matrix: no verdict moves with the
units of ``R``.  :func:`validate_assumptions` counts the bare lattice's
zero modes from one more band QR, of ``C`` gathered with every dof free:
its triangle has the singular values of ``C``, and no m x nd ``C`` is
formed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import AssumptionError, DegenerateSpringError
from .lattice import LatticeDefinition
from .linalg import (
    DEFAULT_RANK_TOL,
    Reflectors,
    fix_signs,
    householder_columns,
    householder_qr,
    nullspace_basis,
    numerical_rank,
    triangular_inverse,
    weighted_gram,
)


@dataclass(frozen=True)
class SystemDims:
    n_nodes: int
    n_springs: int
    dimension: int
    n_constraints: int
    dim_u: int
    dim_v: int


@dataclass(frozen=True)
class RigidityReport:
    """Counts from the compatibility/equilibrium matrices of a lattice.

    ``zero_modes`` and ``self_stress_states`` refer to the bare lattice
    (no external constraint); the determinacy flags account for the
    constraint rows.
    """

    zero_modes: int
    self_stress_states: int
    rigid_motion_dim: int
    index_residual: int
    kinematically_determinate: bool
    statically_determinate: bool
    constrained_zero_modes: int
    constrained_self_stress_states: int
    constraint_rank: int

    @property
    def mechanisms(self) -> int:
        """Zero modes beyond the rigid motions of the ambient space."""
        return self.zero_modes - self.rigid_motion_dim


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """All time-independent matrices of a validated lattice.

    ``V_basis`` is K-orthonormal, so ``V V^T (K v)`` is the K-orthogonal
    projection of a spring vector ``v`` onto the self-stress plane and
    ``V^T (K v)`` its coordinates.  ``V_basis`` is the one large array
    kept.  ``U = [U_kernel, C_F]`` is kept in pieces: ``N``, ``U_kernel``,
    and the spring endpoints and ``directions`` that hold ``C_F``;
    :attr:`U_basis` forms it densely on first read.  Immutable after
    assembly; safe to share across threads.
    """

    definition: LatticeDefinition
    directions: np.ndarray         # m x d, unit vectors terminus -> origin
    reference_lengths: np.ndarray  # m
    N: ConstraintKernel            # orthonormal basis of ker R, in blocks
    U_kernel: np.ndarray           # m x k, C_S ker R_S: the columns of U =
                                   # [C_S ker R_S, C_F] that C does not hold
    V_basis: np.ndarray            # m x dim_v, K-orthonormal columns (V^T K V
                                   # = I) spanning K^-1 ker U^T, the spring
                                   # blocks of ker [C^T R^T] scaled by K^-1
    G: np.ndarray                  # m x q, V V^T K C pinv(R)
    dims: SystemDims

    def __post_init__(self):
        for name in ("directions", "reference_lengths", "U_kernel", "V_basis", "G"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for arr in (self.N.support, self.N.free, self.N.block):
            arr.flags.writeable = False

    @functools.cached_property
    def compatibility(self) -> np.ndarray:
        """The m x nd linearized elongation map ``C`` of
        :func:`compatibility_matrix`, read-only, built on first read:
        nothing on a solve reads it."""
        C = compatibility_matrix(self.definition)[0]
        C.flags.writeable = False
        return C

    @functools.cached_property
    def U_basis(self) -> np.ndarray:
        """The dense m x dim_u ``U = [U_kernel, C_F]`` of
        :func:`_elongation_basis`, read-only, built on first read: only
        the safe-load linear program and tests read it."""
        U = _elongation_basis(self.definition, self.N, self.directions, self.U_kernel)
        U.flags.writeable = False
        return U

    @functools.cached_property
    def F(self) -> np.ndarray:
        """``(I - V V^T K) K^-1 H`` (m x nd) for ``H`` the top ``m`` rows of
        ``pinv [C^T R^T]``: the elastic elongations under a unit force
        load, built on first use only: a solve reads it only under a force
        load.

        ``U^T H = N^T`` because ``R N = 0``, so the K-orthogonal projection
        onto the elongation space is ``F = U (U^T K U)^-1 N^T = (N (U^T K
        U)^-1 U^T)^T``: one solve and one product with the blocks of the
        ``N`` assemble keeps, and no ``H``; this ``U`` is not kept.
        """
        U = _elongation_basis(self.definition, self.N, self.directions, self.U_kernel)
        F = (self.N @ np.linalg.solve(weighted_gram(U, self.stiffness), U.T)).T
        F.flags.writeable = False
        return F

    def balance(self, s: np.ndarray, absolute: bool = False) -> np.ndarray:
        """``U^T s`` for spring stresses ``s``, or ``|U|^T s``, with no
        ``U`` formed: ``U_kernel^T s``, then the free dofs of ``C^T s``, a
        sum per dof over the spring endpoints."""
        dofs, values = _endpoint_entries(self.definition, self.directions)
        kernel = self.U_kernel
        if absolute:
            values, kernel = np.abs(values), np.abs(kernel)
        n_dof = self.definition.n_dof
        per_dof = np.bincount(dofs.ravel(), (values * s[:, None]).ravel(), minlength=n_dof)
        return np.concatenate([kernel.T @ s, per_dof[self.N.free]])

    @property
    def stiffness(self) -> np.ndarray:
        return self.definition.stiffness

    @property
    def lower_limits(self) -> np.ndarray:
        return self.definition.lower_limits

    @property
    def upper_limits(self) -> np.ndarray:
        return self.definition.upper_limits


def _directions(definition: LatticeDefinition) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors from each spring's terminus to its origin, and the
    reference lengths."""
    with np.errstate(over="ignore"):  # a length out of range is refused below
        chords = definition.spring_vectors()
        lengths = np.linalg.norm(chords, axis=1)
    degenerate = np.flatnonzero(~((0 < lengths) & (lengths < np.inf)))
    if degenerate.size:
        j = int(degenerate[0])
        raise DegenerateSpringError(f"spring {j} has a reference length of {lengths[j]:g}")
    return chords / lengths[:, None], lengths


def _endpoint_entries(
    definition: LatticeDefinition, directions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of ``C`` by spring, read from the spring endpoints:
    ``(dofs, values)``, each m x 2d, row ``i`` holding the dofs of the
    origin of spring ``i`` and then those of its terminus, and
    ``directions[i]`` and then ``-directions[i]``."""
    origins, termini = definition.spring_endpoints()
    d = definition.dimension
    dofs = (np.stack([origins, termini], axis=1)[:, :, None] * d + np.arange(d)).reshape(-1, 2 * d)
    return dofs, np.hstack([directions, -directions])


def _fill_compatibility(
    out: np.ndarray, column: np.ndarray, definition: LatticeDefinition, directions: np.ndarray,
) -> np.ndarray:
    """Write the entries of ``C`` (:func:`_endpoint_entries`) into the
    zeros of ``out``: column ``j`` of ``C`` goes to column ``column[j]`` of
    ``out``, and a dof with ``column[j] < 0`` is left out."""
    dofs, values = _endpoint_entries(definition, directions)
    place = column[dofs]
    i, j = np.nonzero(place >= 0)
    out[i, place[i, j]] = values[i, j]
    return out


def compatibility_matrix(
    definition: LatticeDefinition,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linearized elongation map ``C`` (m x nd), unit direction rows,
    reference lengths.

    Row ``i`` of ``C`` holds ``directions[i]`` in the coordinates of the
    origin of spring ``i`` and ``-directions[i]`` in those of its terminus;
    row ``i`` of ``directions`` is the unit vector from the terminus to the
    origin.
    """
    directions, lengths = _directions(definition)
    nd = definition.n_dof
    compat = np.zeros((definition.n_springs, nd))
    return _fill_compatibility(compat, np.arange(nd), definition, directions), directions, lengths


@dataclass(frozen=True)
class ConstraintKernel:
    """An orthonormal basis ``N`` of ``ker R``, kept as its blocks and
    never formed.

    ``support`` holds the columns ``S`` of ``R`` with a nonzero and
    ``free`` the others, ``F``.  Column ``j < k`` of ``N`` is column ``j``
    of ``block``, an orthonormal basis of ``ker R_S`` (``|S| x k``), on the
    rows ``S``; the other columns are those of the identity on the rows
    ``F``.  So ``A @ N`` is one product on the support and a gather of the
    free columns of ``A``, and ``N @ Y`` a product and a scatter.
    """

    support: np.ndarray
    free: np.ndarray
    block: np.ndarray

    __array_ufunc__ = None  # ndarray @ N defers to __rmatmul__

    @property
    def shape(self) -> tuple[int, int]:
        k = self.block.shape[1]
        return self.support.size + self.free.size, k + self.free.size

    def __rmatmul__(self, A: np.ndarray) -> np.ndarray:
        """``A N = [A_S ker R_S, A_F]``."""
        k = self.block.shape[1]
        out = np.empty((A.shape[0], self.shape[1]))
        out[:, :k] = A[:, self.support] @ self.block
        # straight into out: the indices are in range, and "clip" keeps
        # take from copying through a buffer
        np.take(A, self.free, axis=1, out=out[:, k:], mode="clip")
        return out

    def __matmul__(self, Y: np.ndarray) -> np.ndarray:
        """``N Y``: rows ``S`` are ``ker R_S`` times the leading rows of
        ``Y``, rows ``F`` its trailing rows."""
        k = self.block.shape[1]
        out = np.empty((self.shape[0],) + Y.shape[1:])
        out[self.support] = self.block @ Y[:k]
        out[self.free] = Y[k:]
        return out


def constraint_factors(R: np.ndarray) -> tuple[int, ConstraintKernel, np.ndarray | None]:
    """``rank R``, the basis ``N`` of ``ker R`` as a :class:`ConstraintKernel`,
    and ``pinv R_S`` (``None`` when ``R`` lacks full row rank), all from
    ``R_S``, the columns of ``R`` that hold a nonzero.

    The rows of ``pinv R`` outside ``S`` are zero, so ``C pinv R = C_S pinv
    R_S``.  The rank comes from the singular values of ``R_S``, which are
    those of ``R``.  Under full row rank a Householder QR ``R_S^T = [Q_1
    Q_2] [T; 0]`` gives the rest: ``ker R_S = Q_2`` and ``pinv R_S = R_S^T
    (R_S R_S^T)^-1 = Q_1 T^-T``, each block of ``Q`` built on its own from
    the reflectors.  A rank-deficient ``R`` fails assumption 1; only the
    diagnostics read its kernel, from an SVD of ``R_S``.  A dense ``R`` has
    full support and takes the same path.
    """
    q = R.shape[0]
    nonzero = np.any(R != 0, axis=0)
    support, free = np.flatnonzero(nonzero), np.flatnonzero(~nonzero)
    R_S = R[:, support]
    rank = numerical_rank(R_S)
    if rank < q:
        return rank, ConstraintKernel(support, free, nullspace_basis(R_S)), None
    i, j = np.nonzero(R_S.T)
    T, Q = householder_qr((i, j, R_S.T[i, j]), R_S.T.shape)
    pinv = householder_columns(Q, 0, q) @ triangular_inverse(T).T
    block = fix_signs(householder_columns(Q, q, support.size))
    return rank, ConstraintKernel(support, free, block), pinv


def _kernel_columns(
    definition: LatticeDefinition, N: ConstraintKernel, directions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``C_S``, the columns of ``C`` on ``N``'s support, filled from the
    spring endpoints as :func:`compatibility_matrix` fills ``C``, which is
    not formed, and ``U_kernel = C_S ker R_S`` (m x k): the leading columns
    of ``U = [C_S ker R_S, C_F]``, the ones that are not columns of ``C``."""
    column = np.full(definition.n_dof, -1)
    column[N.support] = np.arange(N.support.size)
    C_S = np.zeros((definition.n_springs, N.support.size))
    _fill_compatibility(C_S, column, definition, directions)
    return C_S, C_S @ N.block


def _elongation_basis(
    definition: LatticeDefinition, N: ConstraintKernel, directions: np.ndarray,
    U_kernel: np.ndarray,
) -> np.ndarray:
    """The dense ``U = [U_kernel, C_F]``, with ``C_F`` filled from the
    spring endpoints.  Only ``U_basis``, ``F`` and the rank certificate's
    fallback form it."""
    k = U_kernel.shape[1]
    U = np.zeros((definition.n_springs, k + N.free.size))
    U[:, :k] = U_kernel
    column = np.full(definition.n_dof, -1)
    column[N.free] = np.arange(k, k + N.free.size)
    return _fill_compatibility(U, column, definition, directions)


def _band_gather(
    definition: LatticeDefinition, N: ConstraintKernel, directions: np.ndarray,
    U_kernel: np.ndarray, weights: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of ``diag(weights) U`` with its rows and columns in a
    band order, read from the spring endpoints and ``U_kernel``, with no
    ``U`` formed: ``((i, j, v), rows, first, last)``, entries sorted by row
    ``i``, with row ``i`` spring ``rows[i]``, whose nonzeros lie in columns
    ``first[i]`` to ``last[i]`` (``last[i] = -1`` for a zero row).

    Free dofs follow a reverse Cuthill-McKee order of the node graph and
    the columns of ``ker R_S`` go last.  A spring's row of ``U = [C_S ker
    R_S, C_F]`` holds ``+-directions`` in the free dofs of its two nodes,
    and all of ``U_kernel`` if a node has a dof in ``S``.  Springs are
    sorted by their first and then their last column.  The order comes from
    the spring endpoints and ``N``'s support alone.
    """
    origins, termini = definition.spring_endpoints()
    n, d, m = definition.n_nodes, definition.dimension, definition.n_springs
    k, n_free = U_kernel.shape[1], N.free.size
    # the node graph, symmetric, as CSR arrays built by counting
    heads, tails = np.concatenate([origins, termini]), np.concatenate([termini, origins])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=n))])
    tails = tails[np.argsort(heads, kind="stable")]
    graph = scipy.sparse.csr_matrix((np.ones(2 * m), tails, indptr), shape=(n, n))
    node_rank = np.empty(n, dtype=int)
    node_rank[reverse_cuthill_mckee(graph, symmetric_mode=True)] = np.arange(n)
    order = np.argsort(node_rank[N.free // d] * d + N.free % d, kind="stable")
    column = np.full(n * d, -1)  # the band column of each free dof; -1 for a dof in S
    column[N.free[order]] = np.arange(n_free)
    dofs, values = _endpoint_entries(definition, directions)
    place = column[dofs]
    free = place >= 0
    first = np.where(free, place, n_free).min(axis=1)
    last = np.where(free, place, n_free + k - 1 if k else -1).max(axis=1)
    rows = np.lexsort((last, first))
    position = np.empty(m, dtype=int)  # the band row of each spring
    position[rows] = np.arange(m)
    s, c = np.nonzero(free)
    s_k, c_k = np.nonzero(U_kernel)
    i = position[np.concatenate([s, s_k])]
    j = np.concatenate([place[s, c], n_free + c_k])
    v = np.concatenate([values[s, c] * weights[s], U_kernel[s_k, c_k] * weights[s_k]])
    by_row = np.argsort(i, kind="stable")
    return (i[by_row], j[by_row], v[by_row]), rows, first[rows], last[rows]


def _factor_elongations(
    definition: LatticeDefinition, N: ConstraintKernel, directions: np.ndarray,
    U_kernel: np.ndarray, weights: np.ndarray,
) -> tuple[np.ndarray, Reflectors, np.ndarray]:
    """Householder QR of ``diag(weights) U`` in the band of
    :func:`_band_gather`, from its nonzeros: the triangle, the reflectors,
    and the springs in band order (row ``i`` of the QR is spring
    ``rows[i]``)."""
    entries, rows, first, last = _band_gather(definition, N, directions, U_kernel, weights)
    shape = (definition.n_springs, N.free.size + U_kernel.shape[1])
    return *householder_qr(entries, shape, first, last), rows


def _elongation_norm(
    definition: LatticeDefinition, N: ConstraintKernel, directions: np.ndarray,
    U_kernel: np.ndarray,
) -> float:
    """``||U||_F`` from the entries :func:`_band_gather` reads:
    ``+-directions`` on the free dofs, and ``U_kernel``."""
    is_free = np.zeros(definition.n_dof, dtype=bool)
    is_free[N.free] = True
    dofs, values = _endpoint_entries(definition, directions)
    return float(np.hypot(np.linalg.norm(values[is_free[dofs]]), np.linalg.norm(U_kernel)))


def _elongation_rank(
    definition: LatticeDefinition, N: ConstraintKernel, directions: np.ndarray,
    U_kernel: np.ndarray, T: np.ndarray,
) -> int:
    """``rank U`` under :data:`DEFAULT_RANK_TOL`, given the triangle ``T``
    of a Householder QR ``K^(1/2) U = Q_1 T``, inverted in its own place by
    :func:`~latsweep.linalg.triangular_inverse`: the caller's triangle is
    overwritten.  The rows and columns of ``U`` may be factored in any
    order: ``||T^-1||_F`` is then that of the pseudoinverse of ``K^(1/2)
    U``, which no order moves.

    ``T^-1 Q_1^T K^(1/2)`` is a left inverse of ``U``, so ``cond_2 U <=
    ||U||_F ||T^-1||_F sqrt(k_max)``.  A bound of at most half the inverse
    cutoff certifies full column rank under the rule of
    :func:`numerical_rank`; otherwise that rule decides on the singular
    values of ``U``, formed densely for it alone.  Both give the same
    verdict where the bound holds.
    """
    n = U_kernel.shape[1] + N.free.size
    with np.errstate(all="ignore"):
        try:
            bound = (
                _elongation_norm(definition, N, directions, U_kernel)
                * np.linalg.norm(triangular_inverse(T[:n]))
                * np.sqrt(definition.stiffness.max())
            )
        except np.linalg.LinAlgError:  # singular or short triangle
            bound = np.inf
    if bound <= 0.5 / DEFAULT_RANK_TOL:
        return n
    return numerical_rank(_elongation_basis(definition, N, directions, U_kernel))


def determinacy_ranks(definition: LatticeDefinition) -> tuple[int, int]:
    """``rank R`` and ``rank U`` for ``U = C ker R``: ``rank [C; R] = rank R
    + rank U``, each under the relative cutoff of its own matrix.  The rule
    of :func:`validate_assumptions` and of ``latsweep generate``;
    :func:`assemble` applies the same two tests to the factors it keeps.
    ``U`` is read as assemble reads it, from the spring endpoints and
    ``U_kernel``, with no ``C`` or ``U`` formed."""
    rank_R, N, _ = constraint_factors(definition.constraint_matrix)
    directions = _directions(definition)[0]
    _, U_kernel = _kernel_columns(definition, N, directions)
    T = _factor_elongations(definition, N, directions, U_kernel, np.sqrt(definition.stiffness))[0]
    return rank_R, _elongation_rank(definition, N, directions, U_kernel, T)


def validate_assumptions(definition: LatticeDefinition) -> RigidityReport:
    """Rigidity diagnostics; never raises on a failed assumption.

    ``rank C`` is that of the triangle of a band QR of ``C``, gathered as
    :func:`_band_gather` gathers ``U`` with every dof free, no ``U_kernel``
    and unit weights: ``C = Q T`` with ``Q`` orthogonal, so ``T`` has the
    singular values of ``C``, and the dense m x nd ``C`` is not formed."""
    m, nd, q = definition.n_springs, definition.n_dof, definition.n_constraints
    every_dof = ConstraintKernel(np.empty(0, dtype=int), np.arange(nd), np.zeros((0, 0)))
    directions = _directions(definition)[0]
    T = _factor_elongations(definition, every_dof, directions, np.zeros((m, 0)), np.ones(m))[0]
    rank_compat = numerical_rank(T)
    zero_modes = nd - rank_compat
    self_stress = m - rank_compat
    rank_R, rank_U = determinacy_ranks(definition)
    rank_enhanced = rank_R + rank_U
    constrained_zero_modes = nd - rank_enhanced
    constrained_self_stress = (m + q) - rank_enhanced
    return RigidityReport(
        zero_modes=zero_modes,
        self_stress_states=self_stress,
        rigid_motion_dim=definition.dimension * (definition.dimension + 1) // 2,
        index_residual=zero_modes - self_stress - (nd - m),
        kinematically_determinate=constrained_zero_modes == 0,
        statically_determinate=constrained_self_stress == 0,
        constrained_zero_modes=constrained_zero_modes,
        constrained_self_stress_states=constrained_self_stress,
        constraint_rank=rank_R,
    )


def assemble(definition: LatticeDefinition) -> AssembledSystem:
    """Build all time-independent matrices, checking the standing assumptions."""
    directions, lengths = _directions(definition)
    n, m, d = definition.n_nodes, definition.n_springs, definition.dimension
    nd = n * d
    q = definition.n_constraints
    k = definition.stiffness

    rank_R, N, R_pinv = constraint_factors(definition.constraint_matrix)
    if rank_R != q:
        raise AssumptionError(
            "external displacement constraint matrix is rank deficient "
            "(full row rank assumption fails)"
        )
    C_S, U_kernel = _kernel_columns(definition, N, directions)
    dim_u = nd - q
    dim_v = m - nd + q
    T, Q, rows = _factor_elongations(definition, N, directions, U_kernel, np.sqrt(k))
    # [C; R] has a trivial kernel exactly when U = C ker(R) has full column rank
    determinate = _elongation_rank(definition, N, directions, U_kernel, T) == dim_u
    del T
    if not determinate:
        raise AssumptionError(
            "lattice is not kinematically determinate under the given "
            "constraint (enhanced compatibility matrix has a nontrivial kernel)"
        )
    if dim_v <= 0:
        raise AssumptionError(
            "lattice is statically determinate: no self-stress states "
            f"(m - nd + q = {dim_v})"
        )
    # The constrained self-stresses [s; lambda] solve C^T s + R^T lambda = 0,
    # i.e. N^T C^T s = U^T s = 0: their spring blocks s = K v span ker U^T.
    # The trailing columns W of Q, built in spring order, are orthonormal and
    # span ker (K^(1/2) U)^T = K^(-1/2) ker U^T, so V = K^(-1/2) W, scaled in
    # place, is K-orthonormal.
    V = fix_signs(householder_columns(Q, dim_u, m, rows))
    del Q
    V /= np.sqrt(k)[:, None]

    G = V @ (V.T @ (k[:, None] * (C_S @ R_pinv)))

    return AssembledSystem(
        definition=definition,
        directions=directions,
        reference_lengths=lengths,
        N=N,
        U_kernel=U_kernel,
        V_basis=V,
        G=G,
        dims=SystemDims(n, m, d, q, dim_u, dim_v),
    )
