"""Construction of the sweeping process: moving set, change of variables,
safe-load check, and stress recovery, in full and reduced coordinates.

There is one moving set, the yield box cut by the self-stress plane, seen
in one of two bases.  In the full space the sweeping variable is a spring
vector (dimension m): the basis is the identity and the plane enters as
equality rows ``U^T K z = 0``.  In the reduced space it holds coordinates
in the basis ``V`` of the plane (dimension dim_v): the box rows act through
``V`` and there are no equality rows.  :func:`build_moving_set` is the only
place that chooses between them; everything else goes through
:class:`MovingSetSpec`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .assembly import AssembledSystem
from .errors import InitialConditionError, InfeasibleSetError, InvalidInputError
from .lattice import LoadSchedule
from .projection import PolyhedralSet, find_feasible_point

#: Membership tolerance for initial conditions; small violations of the
#: yield box (file rounding) are clamped, larger ones rejected.
INITIAL_TOL = 1e-9


class Space(enum.Enum):
    FULL = "full"
    REDUCED = "reduced"


def strain_elongations(system: AssembledSystem, axis: int) -> np.ndarray:
    """Spring elongations per unit box strain along ``axis``.

    First-order elongation of spring ``i`` under an affine stretch of the
    box: reference length times the squared direction cosine on the loaded
    axis.
    """
    if not 0 <= axis < system.dims.dimension:
        raise InvalidInputError(f"strain axis {axis} out of range")
    return system.reference_lengths * system.directions[:, axis] ** 2


@dataclass(frozen=True)
class MovingSetSpec:
    """Time-independent description of the moving constraint set.

    The set at time ``t`` holds the points ``z`` whose spring-space image
    ``lift(z)`` lies in the yield box (after Hooke scaling) shifted by
    ``offset(loads, t)`` and which satisfy ``equality_rows @ z = 0``.  The
    full space is this set in the identity basis, with the self-stress
    plane as equality rows; the reduced space is the same set in the basis
    ``W`` of the plane, with no equality rows.
    """

    system: AssembledSystem
    space: Space
    box_lower: np.ndarray          # K^-1 c^-
    box_upper: np.ndarray          # K^-1 c^+
    W: np.ndarray | None           # basis of the sweeping variable; None is the identity
    weight: np.ndarray             # inner product the process is projected in
    equality_rows: np.ndarray | None   # U^T K in the identity basis, else None
    strain_direction: np.ndarray | None  # box translation per unit strain

    def offset(self, loads: LoadSchedule, t: float) -> np.ndarray:
        """Translation of the yield box at time ``t`` (a vector in R^m)."""
        sys = self.system
        out = sys.G @ loads.r(t)
        if loads.strain_times is not None:
            if self.strain_direction is None:
                raise InvalidInputError(
                    "moving set was built without a strain direction but the "
                    "schedule carries a strain load; rebuild with these loads"
                )
            out = out + self.strain_direction * loads.gamma(t)
        f = loads.f(t)
        if f is not None:
            out = out - sys.F @ f
        return out

    def offset_rate(self, loads: LoadSchedule, t: float) -> np.ndarray:
        """Right derivative of the box translation (constant-force loads)."""
        sys = self.system
        out = sys.G @ loads.rdot(t)
        if loads.strain_times is not None and self.strain_direction is not None:
            out = out + self.strain_direction * loads.gamma_rate(t)
        return out

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Coordinates in the basis ``W`` of a spring-space vector."""
        return v if self.W is None else self.system.P_V @ v

    def lift(self, y: np.ndarray) -> np.ndarray:
        """Spring-space vector of the coordinates ``y``; compared to the box."""
        return y if self.W is None else self.W @ y

    def bound_rows(self, springs: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """Rows ``signs[i] * (row springs[i] of the basis)``, one per entry."""
        if self.W is None:
            rows = np.zeros((springs.size, self.box_lower.size))
            rows[np.arange(springs.size), springs] = signs
            return rows
        return signs[:, None] * self.W[springs]

    @functools.cached_property
    def box_rows(self) -> np.ndarray:
        """Upper then lower bound rows ``[W; -W]`` of the static set, built once."""
        m = self.box_lower.size
        return self.bound_rows(np.tile(np.arange(m), 2), np.repeat([1.0, -1.0], m))


def build_moving_set(
    system: AssembledSystem, space: Space, loads: LoadSchedule | None = None
) -> MovingSetSpec:
    strain_direction = None
    if loads is not None and loads.strain_times is not None:
        # Box strain adds elongations u*gamma to the geometric constraint, so
        # it translates the moving set opposite to the way r(t) enters: by
        # -VP_V u per unit strain (stretching must load the springs in
        # tension during the elastic phase).
        elong = strain_elongations(system, loads.strain_axis)
        strain_direction = -(system.V_basis @ (system.P_V @ elong))
    k = system.stiffness
    if space is Space.FULL:
        basis, weight, equality = None, k, system.equality_rows()
    else:
        basis, weight, equality = system.V_basis, system.S_V, None
    return MovingSetSpec(
        system=system,
        space=space,
        box_lower=system.lower_limits / k,
        box_upper=system.upper_limits / k,
        W=basis,
        weight=weight,
        equality_rows=equality,
        strain_direction=strain_direction,
    )


def moving_set_at(spec: MovingSetSpec, t: float, loads: LoadSchedule) -> PolyhedralSet:
    """The constraint polyhedron at time ``t``."""
    offset = spec.offset(loads, t)
    return static_set(spec, offset)


def static_set(spec: MovingSetSpec, offset: np.ndarray) -> PolyhedralSet:
    """The constraint polyhedron for a frozen box translation.

    Its rows are the spec's own arrays, the same objects on every call, so
    the projection kernel can keep its factorizations from step to step.
    """
    b = np.concatenate([spec.box_upper + offset, -(spec.box_lower + offset)])
    return PolyhedralSet(A=spec.box_rows, b=b, A_eq=spec.equality_rows)


@dataclass(frozen=True)
class SweepingState:
    """One sample of the evolution: sweeping variable plus recovered stresses."""

    time: float
    y: np.ndarray        # sweeping variable, full or reduced coordinates
    sigma: np.ndarray    # spring stresses
    epsilon: np.ndarray  # elastic elongations


def initial_state(
    system: AssembledSystem,
    sigma0: np.ndarray,
    loads: LoadSchedule,
    space: Space,
    spec: MovingSetSpec | None = None,
    tol: float = INITIAL_TOL,
) -> SweepingState:
    """State at t=0 from an admissible, self-equilibrated initial stress.

    ``space`` is read only to build ``spec`` when none is given."""
    sigma0 = np.asarray(sigma0, dtype=float)
    sys = system
    m = sys.dims.n_springs
    if sigma0.shape != (m,):
        raise InitialConditionError(
            f"initial stress has shape {sigma0.shape}, expected ({m},)"
        )
    lo, hi = sys.lower_limits, sys.upper_limits
    over = np.maximum(sigma0 - hi, 0.0) + np.minimum(sigma0 - lo, 0.0)
    over_elongation = np.abs(over) / sys.stiffness
    if np.max(over_elongation) > tol:
        j = int(np.argmax(over_elongation))
        raise InitialConditionError(
            f"initial stress of spring {j} is outside its elastic range"
        )
    sigma0 = np.clip(sigma0, lo, hi)

    if spec is None:
        spec = build_moving_set(sys, space, loads)
    f0 = loads.f(0.0)
    balance = sys.U_basis.T @ sigma0
    if f0 is not None:
        balance = balance - sys.equality_rows() @ (sys.F @ f0)
    if np.max(np.abs(balance), initial=0.0) > tol:
        raise InitialConditionError(
            "initial stress is not self-equilibrated with the initial force load"
        )

    epsilon = sigma0 / sys.stiffness
    y = spec.reduce(epsilon + spec.offset(loads, 0.0))
    return SweepingState(time=0.0, y=y, sigma=sigma0, epsilon=epsilon)


def recover_stress(
    system: AssembledSystem,
    y: np.ndarray,
    t: float,
    loads: LoadSchedule,
    space: Space,
    spec: MovingSetSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Elastic elongations and stresses from the sweeping variable."""
    if spec is None:
        spec = build_moving_set(system, space, loads)
    epsilon = spec.lift(y) - spec.offset(loads, t)
    return epsilon, system.stiffness * epsilon


def safe_load_check(system: AssembledSystem, f: np.ndarray | None) -> bool:
    """Whether a force load can be balanced within the yield limits.

    Feasibility of the shifted yield box intersected with the zero-balance
    rows; solved as the feasibility phase of the projection kernel.
    """
    m = system.dims.n_springs
    shift = np.zeros(m) if f is None else system.stiffness * (system.F @ np.asarray(f, dtype=float))
    upper = system.upper_limits - shift
    lower = system.lower_limits - shift
    poly = PolyhedralSet(
        A=np.vstack([np.eye(m), -np.eye(m)]),
        b=np.concatenate([upper, -lower]),
        A_eq=system.U_basis.T,
    )
    try:
        find_feasible_point(poly)
    except InfeasibleSetError:
        return False
    return True
