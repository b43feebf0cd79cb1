"""Time-independent matrices of the model and rigidity diagnostics.

Everything here is assembled once per lattice: the compatibility matrix,
the bases of the elongation space (feasible stretches) and its stiffness-
orthogonal complement (self-stress directions after Hooke scaling), and
the coupling matrices that turn external loads into translations of the
moving set.

The checks and bases come from two factorizations.  An SVD of the
constraint matrix ``R`` gives its rank, kernel ``N`` and pseudoinverse.  One
complete Householder QR of ``U = C N`` gives the determinacy check (``U``
has full column rank, read off the triangular factor) and the self-stress
plane (``ker U^T``, the trailing columns of the orthogonal factor).  The
force map ``F`` and the test-only ``P_U`` and ``H`` are built on first use.
Every check of the assumptions reads ``rank [C; R]`` as ``rank R + rank U``,
each under the relative cutoff of its own matrix: no verdict moves with the
units of ``R``.

The basis ``V`` of the plane is K-orthonormal, ``V^T K V = I``: a thin QR
taken in the coordinates ``K^(1/2)`` makes it so.  The K-orthogonal
projector onto the plane is then ``V P_V`` with ``P_V = V^T K``, and the
reduced space, coordinates in ``V``, is Euclidean: no Gram matrix of the
plane is formed or factored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DegenerateSpringError
from .lattice import LatticeDefinition
from .linalg import (
    RankedSVD,
    inverse_cholesky_factor,
    nullspace_basis,
    numerical_rank,
    orthonormal_columns,
    ranked_svd,
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


@dataclass(frozen=True)
class AssembledSystem:
    """All time-independent matrices of a validated lattice.

    ``V_basis`` is K-orthonormal, so ``V_basis @ P_V`` is the K-orthogonal
    projector onto the self-stress plane and ``P_V`` gives coordinates in
    it.  Immutable after assembly; safe to share across threads.
    """

    definition: LatticeDefinition
    compatibility: np.ndarray      # m x nd, linearized elongation map
    directions: np.ndarray         # m x d, unit vectors terminus -> origin
    reference_lengths: np.ndarray  # m
    U_basis: np.ndarray            # m x dim_u, C N for N the kernel of R
    V_basis: np.ndarray            # m x dim_v, K-orthonormal columns (V^T K V
                                   # = I) spanning K^-1 ker U^T, the spring
                                   # blocks of ker [C^T R^T] scaled by K^-1
    P_V: np.ndarray                # dim_v x m, V^T K
    G: np.ndarray                  # m x q, V P_V C pinv(R)
    dims: SystemDims

    def __post_init__(self):
        for name in (
            "compatibility", "directions", "reference_lengths", "U_basis",
            "V_basis", "P_V", "G",
        ):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @functools.cached_property
    def P_U(self) -> np.ndarray:
        """``(U^T K U)^-1 U^T K`` (dim_u x m), built on first use only:
        ``U P_U = I - V P_V``, so no solve needs it."""
        T = inverse_cholesky_factor(weighted_gram(self.U_basis, self.stiffness))
        P_U = T @ (T.T @ self.equality_rows())
        P_U.flags.writeable = False
        return P_U

    @functools.cached_property
    def F(self) -> np.ndarray:
        """``(I - V P_V) K^-1 H`` (m x nd), the elastic elongations under a
        unit force load, built on first use only: a solve reads it only
        under a force load.

        ``U^T H = N^T`` because ``R N = 0``, so the K-orthogonal projection
        onto the elongation space is ``F = U (U^T K U)^-1 N^T``: one solve
        and one product, and no ``H``.  ``N`` comes from the same SVD of
        ``R`` that assemble takes; it is not kept, as only force loads
        need it.
        """
        N = nullspace_basis(self.definition.constraint_matrix)
        F = self.U_basis @ np.linalg.solve(weighted_gram(self.U_basis, self.stiffness), N.T)
        F.flags.writeable = False
        return F

    @functools.cached_property
    def H(self) -> np.ndarray:
        """The top ``m`` rows of ``pinv [C^T R^T]`` (m x nd), built on first
        use only: no solve reads it."""
        A = np.hstack([self.compatibility.T, self.definition.constraint_matrix.T])
        # assemble checked that A has full row rank: no singular value is cut
        H = RankedSVD(*np.linalg.svd(A, full_matrices=False), A.shape[0]).pinv(self.dims.n_springs)
        H.flags.writeable = False
        return H

    @property
    def stiffness(self) -> np.ndarray:
        return self.definition.stiffness

    @property
    def lower_limits(self) -> np.ndarray:
        return self.definition.lower_limits

    @property
    def upper_limits(self) -> np.ndarray:
        return self.definition.upper_limits

    def equality_rows(self) -> np.ndarray:
        """Rows ``U^T K`` whose kernel is the self-stress plane."""
        return self.U_basis.T * self.stiffness[None, :]


def compatibility_matrix(
    definition: LatticeDefinition,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linearized elongation map, unit direction rows, reference lengths.

    Entry ``(i, d*(j-1)+k)`` of the first matrix is ``directions[i, k] *
    incidence[j, i]``; row ``i`` of ``directions`` is the unit vector from
    the terminus to the origin of spring ``i``.
    """
    chords = definition.spring_vectors()
    lengths = np.linalg.norm(chords, axis=1)
    degenerate = np.flatnonzero(lengths <= 0)
    if degenerate.size:
        raise DegenerateSpringError(
            f"spring {int(degenerate[0])} has zero reference length"
        )
    directions = chords / lengths[:, None]
    n, m = definition.incidence.shape
    d = definition.dimension
    origins, termini = definition.spring_endpoints()
    compat = np.zeros((m, n * d))
    rows = np.arange(m)
    for k in range(d):
        compat[rows, origins * d + k] = directions[:, k]
        compat[rows, termini * d + k] = -directions[:, k]
    return compat, directions, lengths


def _elongation_rank(RU: np.ndarray) -> int:
    """``rank U`` from the triangular factor of a Householder QR of
    ``U = C ker R``, which has the singular values of ``U``."""
    return numerical_rank(RU[: RU.shape[1]])


def validate_assumptions(definition: LatticeDefinition) -> RigidityReport:
    """Rigidity diagnostics; never raises on a failed assumption."""
    compat, _, _ = compatibility_matrix(definition)
    m, nd, q = definition.n_springs, definition.n_dof, definition.n_constraints

    rank_compat = numerical_rank(compat)
    zero_modes = nd - rank_compat
    self_stress = m - rank_compat
    # rank [C; R] = rank R + rank U by the two rank tests of assemble
    R_svd = ranked_svd(definition.constraint_matrix, full_matrices=True)
    rank_enhanced = R_svd.rank + _elongation_rank(np.linalg.qr(compat @ R_svd.kernel(), mode="r"))
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
        constraint_rank=R_svd.rank,
    )


def assemble(definition: LatticeDefinition) -> AssembledSystem:
    """Build all time-independent matrices, checking the standing assumptions."""
    compat, directions, lengths = compatibility_matrix(definition)
    n, m = definition.incidence.shape
    d = definition.dimension
    nd = n * d
    q = definition.n_constraints
    R = definition.constraint_matrix
    k = definition.stiffness

    R_svd = ranked_svd(R, full_matrices=True)
    if R_svd.rank != q:
        raise AssumptionError(
            "external displacement constraint matrix is rank deficient "
            "(full row rank assumption fails)"
        )
    U = compat @ R_svd.kernel()
    G_R = compat @ R_svd.pinv()
    del R_svd
    dim_u = nd - q
    dim_v = m - nd + q
    # [C; R] has a trivial kernel exactly when U = C ker(R) has full column rank
    Q, RU = np.linalg.qr(U, mode="complete")
    if _elongation_rank(RU) != dim_u:
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
    # i.e. N^T C^T s = U^T s = 0: their spring blocks s = K v span ker U^T,
    # the trailing columns of the complete Q.  Orthonormal columns of
    # K^(1/2) K^-1 ker U^T, scaled back by K^(-1/2), are K-orthonormal.
    root_k = np.sqrt(k)[:, None]
    V = orthonormal_columns(Q[:, dim_u:] / root_k) / root_k
    del Q, RU

    P_V = V.T * k[None, :]
    G = V @ (P_V @ G_R)

    return AssembledSystem(
        definition=definition,
        compatibility=compat,
        directions=directions,
        reference_lengths=lengths,
        U_basis=U,
        V_basis=V,
        P_V=P_V,
        G=G,
        dims=SystemDims(n, m, d, q, dim_u, dim_v),
    )
