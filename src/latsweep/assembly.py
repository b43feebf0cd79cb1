"""Time-independent matrices of the model and rigidity diagnostics.

Everything here is assembled once per lattice: the compatibility matrix,
the bases of the elongation space (feasible stretches) and its stiffness-
orthogonal complement (self-stress directions after Hooke scaling), and
the coupling matrices that turn external loads into translations of the
moving set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import AssumptionError, DegenerateSpringError
from .lattice import LatticeDefinition
from .linalg import (
    DEFAULT_RANK_TOL,
    nullspace_basis,
    numerical_rank,
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

    @property
    def mechanisms(self) -> int:
        """Zero modes beyond the rigid motions of the ambient space."""
        return self.zero_modes - self.rigid_motion_dim


@dataclass(frozen=True)
class AssembledSystem:
    """All time-independent matrices of a validated lattice.

    Immutable after assembly; safe to share across threads.
    """

    definition: LatticeDefinition
    compatibility: np.ndarray      # m x nd, linearized elongation map
    directions: np.ndarray         # m x d, unit vectors terminus -> origin
    reference_lengths: np.ndarray  # m
    U_basis: np.ndarray            # m x dim_u
    V_basis: np.ndarray            # m x dim_v, orthonormal columns
    P_U: np.ndarray                # dim_u x m
    P_V: np.ndarray                # dim_v x m
    H: np.ndarray                  # m x nd
    G: np.ndarray                  # m x q
    F: np.ndarray                  # m x nd
    S_V: np.ndarray                # dim_v x dim_v
    dims: SystemDims

    def __post_init__(self):
        for name in (
            "compatibility", "directions", "reference_lengths", "U_basis",
            "V_basis", "P_U", "P_V", "H", "G", "F", "S_V",
        ):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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


def validate_assumptions(
    definition: LatticeDefinition, rank_tol: float = DEFAULT_RANK_TOL
) -> RigidityReport:
    """Rigidity diagnostics; never raises on a failed assumption."""
    compat, _, _ = compatibility_matrix(definition)
    n, m = definition.incidence.shape
    d = definition.dimension
    nd = n * d
    q = definition.n_constraints
    R = definition.constraint_matrix

    rank_compat = numerical_rank(compat, rank_tol)
    zero_modes = nd - rank_compat
    self_stress = m - rank_compat
    enhanced_compat = np.vstack([compat, R]) if q else compat
    rank_enhanced = numerical_rank(enhanced_compat, rank_tol)
    constrained_zero_modes = nd - rank_enhanced
    constrained_self_stress = (m + q) - rank_enhanced
    return RigidityReport(
        zero_modes=zero_modes,
        self_stress_states=self_stress,
        rigid_motion_dim=d * (d + 1) // 2,
        index_residual=zero_modes - self_stress - (nd - m),
        kinematically_determinate=constrained_zero_modes == 0,
        statically_determinate=constrained_self_stress == 0,
        constrained_zero_modes=constrained_zero_modes,
        constrained_self_stress_states=constrained_self_stress,
    )


def assemble(
    definition: LatticeDefinition, rank_tol: float = DEFAULT_RANK_TOL
) -> AssembledSystem:
    """Build all time-independent matrices, checking the standing assumptions."""
    compat, directions, lengths = compatibility_matrix(definition)
    n, m = definition.incidence.shape
    d = definition.dimension
    nd = n * d
    q = definition.n_constraints
    R = definition.constraint_matrix
    k = definition.stiffness

    R_svd = ranked_svd(R, rank_tol, full_matrices=True)
    if R_svd.rank != q:
        raise AssumptionError(
            "external displacement constraint matrix is rank deficient "
            "(full row rank assumption fails)"
        )
    enhanced_svd = ranked_svd(np.hstack([compat.T, R.T]), rank_tol)
    if enhanced_svd.rank != nd:
        raise AssumptionError(
            "lattice is not kinematically determinate under the given "
            "constraint (enhanced compatibility matrix has a nontrivial kernel)"
        )
    dim_u = nd - q
    dim_v = m - nd + q
    if dim_v <= 0:
        raise AssumptionError(
            "lattice is statically determinate: no self-stress states "
            f"(m - nd + q = {dim_v})"
        )

    U = compat @ R_svd.kernel()
    UK = U.T * k[None, :]
    V = nullspace_basis(UK, rank_tol)
    if U.shape[1] != dim_u or V.shape[1] != dim_v:
        raise AssumptionError(
            "numerical rank of the fundamental spaces disagrees with the "
            "dimension formula; tighten rank_tol or check the lattice"
        )

    P_U = scipy.linalg.solve(UK @ U, UK, assume_a="pos")
    S_V = weighted_gram(V, k)
    P_V = scipy.linalg.solve(S_V, V.T * k[None, :], assume_a="pos")

    H = enhanced_svd.pinv()[:m]
    G = V @ (P_V @ (compat @ R_svd.pinv()))
    F = U @ (P_U @ (H / k[:, None]))

    return AssembledSystem(
        definition=definition,
        compatibility=compat,
        directions=directions,
        reference_lengths=lengths,
        U_basis=U,
        V_basis=V,
        P_U=P_U,
        P_V=P_V,
        H=H,
        G=G,
        F=F,
        S_V=S_V,
        dims=SystemDims(n, m, d, q, dim_u, dim_v),
    )


def basis_independent_projector(system: AssembledSystem) -> np.ndarray:
    """The m-by-m projector onto the self-stress plane; basis independent."""
    return system.V_basis @ system.P_V
