"""Construction of the sweeping process: moving set, change of variables,
safe-load check, and initial state.

There is one moving set, the yield box cut by the self-stress plane, and
one solve of it: the sweeping variable holds coordinates ``y`` in the
K-orthonormal basis ``V`` of the plane (dimension dim_v), the box rows act
through ``V``, there are no equality rows, and the stiffness inner product
is the Euclidean one.  :class:`Space` chooses only the coordinates a state
is reported in, ``V y`` (a spring vector) in the full space and ``y`` in
the reduced space: :meth:`MovingSetSpec.view` is the only place that reads
it, where a state leaves an integrator or :func:`initial_state`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import projection
from .assembly import AssembledSystem
from .errors import InitialConditionError, InfeasibleSetError, InvalidInputError
from .lattice import LoadSchedule
from .projection import PolyhedralSet, find_feasible_point

#: Membership tolerance for initial conditions, relative to each spring's
#: elastic range: small violations of the yield box (file rounding) are
#: clamped, larger ones rejected.  The balance is held to the same fraction
#: of ``|U|^T (upper - lower)``.
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

    The set at time ``t`` holds the coordinates ``y`` whose spring-space
    image ``lift(y) = V y`` lies in the yield box (after Hooke scaling)
    translated by its in-plane part, whose coordinates :meth:`frame` gives,
    and by :meth:`force_shift`.  ``space`` is read only by :meth:`view`.
    """

    system: AssembledSystem
    space: Space
    box_lower: np.ndarray          # K^-1 c^-
    box_upper: np.ndarray          # K^-1 c^+
    strain_direction: np.ndarray | None  # box translation per unit strain

    def _in_plane(self, loads: LoadSchedule, t) -> np.ndarray:
        """``G (r(t) - r(0)) + strain_direction gamma(t)``: the part of the
        box translation that lies in the self-stress plane; at an array of
        times, one column each.  The displacement load enters as its change
        ``r(t) - r(0)``: only differences of the translation enter the
        process, and ``r(0) = -R xi0`` holds reference positions far larger
        than the box, whose rounding would land on its bounds."""
        out = self.system.G @ (loads.r(t) - loads.displacement_offset).T
        if loads.strain_times is not None:
            if self.strain_direction is None:
                raise InvalidInputError(
                    "moving set was built without a strain direction but the "
                    "schedule carries a strain load; rebuild with these loads"
                )
            out = out + np.multiply.outer(self.strain_direction, loads.gamma(t))
        return out

    def frame(self, loads: LoadSchedule, t) -> np.ndarray:
        """The in-plane translation ``c(t)`` in the coordinates of the
        sweeping variable; at an array of times, one column each, from one
        product per map.

        The box translation splits into ``c(t)`` and the force shift ``-F
        f(t)``, which is K-orthogonal to the plane.  Both integrators run in
        the frame ``u = y - c(t)``, where the set is ``static_set(spec,
        force_shift(f))``: it moves only when the force does, and a state
        is ``y = u + c(t)``.
        """
        return self.reduce(self._in_plane(loads, t))

    def force_shift(self, f: np.ndarray | None) -> np.ndarray | float:
        """The box translation ``-F f`` of the force load ``f`` (0 for
        ``None``), the part of the translation that leaves the plane and the
        only motion of the set in the frame."""
        return 0.0 if f is None else -(self.system.F @ f)

    def feasible_point(self, shift: np.ndarray | float) -> np.ndarray:
        """A point of ``static_set(self, shift)``, or ``InfeasibleSetError``.

        The phase-1 linear program :func:`safe_load_check` solves, in
        stress units, so catch-up and ``check-safe-load`` give one verdict
        on one force; its stresses ``sigma*`` are mapped by ``reduce(sigma*
        / k)``.  The phase 1 is looked up on its module, where a caller may
        wrap it.
        """
        sigma = projection.find_feasible_point(_safe_load_set(self.system, shift))
        return self.reduce(sigma / self.system.stiffness)

    def offset_rate(self, loads: LoadSchedule, t: float) -> np.ndarray:
        """Right derivative of the box translation (constant-force loads)."""
        sys = self.system
        out = sys.G @ loads.rdot(t)
        if loads.strain_times is not None and self.strain_direction is not None:
            out = out + self.strain_direction * loads.gamma_rate(t)
        return out

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Coordinates ``V^T (K v)`` in the basis ``V`` of the projection
        of a spring-space vector, or of each column of a matrix."""
        k = self.system.stiffness
        return self.system.V_basis.T @ (k[:, None] * v if v.ndim == 2 else k * v)

    def lift(self, y: np.ndarray) -> np.ndarray:
        """Spring-space vector of the coordinates ``y``, or of each column
        of a matrix; compared to the box."""
        return self.system.V_basis @ y

    def view(self, y: np.ndarray) -> np.ndarray:
        """The coordinates ``y``, or each column of a matrix of them, as a
        state reports them: ``lift(y)`` in the full space, ``y`` itself in
        the reduced space."""
        return self.lift(y) if self.space is Space.FULL else y


def build_moving_set(
    system: AssembledSystem, space: Space, loads: LoadSchedule | None = None
) -> MovingSetSpec:
    k = system.stiffness
    strain_direction = None
    if loads is not None and loads.strain_times is not None:
        # Box strain adds elongations u*gamma to the geometric constraint, so
        # it translates the moving set opposite to the way r(t) enters: by
        # -V V^T K u per unit strain (stretching must load the springs in
        # tension during the elastic phase).
        elong = strain_elongations(system, loads.strain_axis)
        strain_direction = -(system.V_basis @ (system.V_basis.T @ (k * elong)))
    return MovingSetSpec(
        system=system,
        space=space,
        box_lower=system.lower_limits / k,
        box_upper=system.upper_limits / k,
        strain_direction=strain_direction,
    )


def static_set(spec: MovingSetSpec, offset: np.ndarray) -> PolyhedralSet:
    """The constraint polyhedron for a frozen box translation.

    Two-sided bounds ``lower <= V y <= upper``.  Its rows are assembly's
    read-only ``V``, the same object on every call; ``V`` is K-orthonormal,
    so the set is projected in a weight of ones, whose whitened rows are a
    read-only view of ``V^T``.
    """
    return PolyhedralSet(A=spec.system.V_basis, b=spec.box_upper + offset, lower=spec.box_lower + offset)


@dataclass(frozen=True)
class SweepingState:
    """One sample of the evolution: sweeping variable and stresses; the
    elastic elongations are ``sigma / k``."""

    time: float
    y: np.ndarray      # sweeping variable, as MovingSetSpec.view reports it
    sigma: np.ndarray  # spring stresses


def initial_state(
    system: AssembledSystem,
    sigma0: np.ndarray,
    loads: LoadSchedule,
    space: Space,
    spec: MovingSetSpec | None = None,
) -> SweepingState:
    """State at t=0 from an admissible, self-equilibrated initial stress,
    both held to :data:`INITIAL_TOL`.

    ``space`` is read only to build ``spec`` when none is given."""
    sigma0 = np.asarray(sigma0, dtype=float)
    sys = system
    m = sys.dims.n_springs
    if sigma0.shape != (m,):
        raise InitialConditionError(
            f"initial stress has shape {sigma0.shape}, expected ({m},)"
        )
    lo, hi = sys.lower_limits, sys.upper_limits
    width = hi - lo
    over = np.abs(np.maximum(sigma0 - hi, 0.0) + np.minimum(sigma0 - lo, 0.0)) / width
    if not np.all(over <= INITIAL_TOL):  # NaN fails too; argmax finds it first
        j = int(np.argmax(over))
        raise InitialConditionError(
            f"initial stress of spring {j} is outside its elastic range"
        )
    sigma0 = np.clip(sigma0, lo, hi)

    if spec is None:
        spec = build_moving_set(sys, space, loads)
    shift = spec.force_shift(loads.f(0.0))
    balance = sys.balance(sigma0 + sys.stiffness * shift)
    # each entry sums stresses over the springs, so it is held to the sum
    # of their elastic ranges, weighted by |U|: no verdict moves with units
    # (a zero balance, as of a zero stress, passes at any scale)
    if balance.any() and np.any(np.abs(balance) > INITIAL_TOL * sys.balance(width, absolute=True)):
        raise InitialConditionError(
            "initial stress is not self-equilibrated with the initial force load"
        )

    # the frame coordinates both integrators start from, moved by c(0)
    y = spec.view(spec.reduce(sigma0 / sys.stiffness + shift) + spec.frame(loads, 0.0))
    return SweepingState(time=0.0, y=y, sigma=sigma0)


def _safe_load_set(system: AssembledSystem, shift: np.ndarray | float) -> PolyhedralSet:
    """The stresses the yield limits and the balance allow under the box
    translation ``shift``: the limits moved by ``k shift`` as variable
    bounds, and the zero-balance rows ``U^T``.  In stress units, phase 1's
    absolute ``tau`` does not move with the stiffness."""
    k = system.stiffness
    return PolyhedralSet(
        A=None,
        b=system.upper_limits + k * shift,
        A_eq=system.U_basis.T,
        lower=system.lower_limits + k * shift,
    )


def safe_load_check(system: AssembledSystem, f: np.ndarray | None) -> bool:
    """Whether a force load can be balanced within the yield limits.

    Feasibility of the stresses that balance it within the limits, solved
    as the feasibility phase of the projection kernel: the linear program
    catch-up's phase 1 solves at each force level.
    """
    shift = 0.0 if f is None else -(system.F @ np.asarray(f, dtype=float))
    try:
        find_feasible_point(_safe_load_set(system, shift))
    except InfeasibleSetError:
        return False
    return True
