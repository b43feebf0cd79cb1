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
import functools
from dataclasses import dataclass

import numpy as np

from . import projection
from .assembly import AssembledSystem
from .errors import InitialConditionError, InfeasibleSetError, InvalidInputError
from .lattice import LoadSchedule
from .projection import PolyhedralSet, WarmStart, Whitening, find_feasible_point

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

    The set at time ``t`` holds the coordinates ``y`` whose spring-space
    image ``lift(y) = V y`` lies in the yield box (after Hooke scaling)
    shifted by ``offset(loads, t)``.  ``space`` is read only by
    :meth:`view`.
    """

    system: AssembledSystem
    space: Space
    box_lower: np.ndarray          # K^-1 c^-
    box_upper: np.ndarray          # K^-1 c^+
    strain_direction: np.ndarray | None  # box translation per unit strain

    def offset(self, loads: LoadSchedule, t: float) -> np.ndarray:
        """Translation of the yield box at time ``t`` (a vector in R^m).

        The displacement load enters as its change ``r(t) - r(0)``: only
        differences of the offset enter the process, and ``r(0) = -R xi0``
        holds reference positions far larger than the box, whose rounding
        would land on its bounds.
        """
        out = self._in_plane(loads, t)
        f = loads.f(t)
        if f is not None:
            out = out - self.system.F @ f
        return out

    def _in_plane(self, loads: LoadSchedule, t) -> np.ndarray:
        """``G (r(t) - r(0)) + strain_direction gamma(t)``: the part of the
        offset that lies in the self-stress plane; at an array of times, one
        column each."""
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

        The offset splits into ``c(t)`` and the force shift ``-F f(t)``,
        which is K-orthogonal to the plane.  In the frame ``u = y - c(t)``
        the set is ``static_set(spec, force_shift(f))``: it moves only
        when the force does.
        """
        return self.reduce(self._in_plane(loads, t))

    def force_shift(self, f: np.ndarray | None) -> np.ndarray | float:
        """The box translation ``-F f`` of the force load ``f`` (0 for
        ``None``), the part of the offset that leaves the plane."""
        return 0.0 if f is None else -(self.system.F @ f)

    def feasible_point(self, shift: np.ndarray | float) -> np.ndarray:
        """A point of ``static_set(self, shift)``, or ``InfeasibleSetError``.

        One phase-1 linear program in the full form: the shifted box is its
        variable bounds and the plane its equality rows ``U^T K``.  Its
        point is mapped by ``reduce``.  The phase 1 is looked up on its
        module, where a caller may wrap it.
        """
        rows = self.system.equality_rows()
        full = PolyhedralSet(A=None, b=self.box_upper + shift, A_eq=rows, lower=self.box_lower + shift)
        return self.reduce(projection.find_feasible_point(full))

    def offset_rate(self, loads: LoadSchedule, t: float) -> np.ndarray:
        """Right derivative of the box translation (constant-force loads)."""
        sys = self.system
        out = sys.G @ loads.rdot(t)
        if loads.strain_times is not None and self.strain_direction is not None:
            out = out + self.strain_direction * loads.gamma_rate(t)
        return out

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Coordinates in the basis ``V`` of a spring-space vector, or of
        each column of a matrix."""
        return self.system.P_V @ v

    def lift(self, y: np.ndarray) -> np.ndarray:
        """Spring-space vector of the coordinates ``y``, or of each column
        of a matrix; compared to the box."""
        return self.system.V_basis @ y

    def coordinates(self, epsilon: np.ndarray, loads: LoadSchedule, t: float) -> np.ndarray:
        """The coordinates ``y`` of the elastic elongations ``epsilon`` at
        time ``t``: ``reduce(epsilon + offset(loads, t))``.  An integrator
        starts from its first state's elongations, so a state reported in
        either space enters the same solve."""
        return self.reduce(epsilon + self.offset(loads, t))

    def view(self, y: np.ndarray) -> np.ndarray:
        """The coordinates ``y``, or each column of a matrix of them, as a
        state reports them: ``lift(y)`` in the full space, ``y`` itself in
        the reduced space."""
        return self.lift(y) if self.space is Space.FULL else y

    @functools.cached_property
    def whitening(self) -> Whitening:
        """The projections' change of coordinates: the identity, with the
        identity weight, as ``V`` is K-orthonormal.  Nothing is factored."""
        eye = np.eye(self.system.dims.dim_v)
        eye.flags.writeable = False
        return Whitening.build(eye, None, eye.shape[0], eye)

    def warm_start(self) -> WarmStart:
        """A projection handle seeded with this set's whitening."""
        return WarmStart(white=self.whitening)


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
    read-only ``V``, the same object on every call, whose whitened rows in
    the spec's identity whitening are a read-only view of ``V^T``.
    """
    return PolyhedralSet(A=spec.system.V_basis, b=spec.box_upper + offset, lower=spec.box_lower + offset)


@dataclass(frozen=True)
class SweepingState:
    """One sample of the evolution: sweeping variable plus recovered stresses."""

    time: float
    y: np.ndarray        # sweeping variable, as MovingSetSpec.view reports it
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
    y = spec.view(spec.coordinates(epsilon, loads, 0.0))
    return SweepingState(time=0.0, y=y, sigma=sigma0, epsilon=epsilon)


def safe_load_check(system: AssembledSystem, f: np.ndarray | None) -> bool:
    """Whether a force load can be balanced within the yield limits.

    Feasibility of the shifted yield box intersected with the zero-balance
    rows; solved as the feasibility phase of the projection kernel, with
    the box as the variable bounds of its linear program.
    """
    m = system.dims.n_springs
    shift = np.zeros(m) if f is None else system.stiffness * (system.F @ np.asarray(f, dtype=float))
    poly = PolyhedralSet(
        A=None,
        b=system.upper_limits - shift,
        A_eq=system.U_basis.T,
        lower=system.lower_limits - shift,
    )
    try:
        find_feasible_point(poly)
    except InfeasibleSetError:
        return False
    return True
