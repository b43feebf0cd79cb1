"""Time-stepping (catch-up) integration of the sweeping process.

Each step projects the previous point onto the next constraint set
(Moreau's catch-up scheme); the stresses are recovered from the projected
point.  Under a frozen force that set is the self-stress plane cut by a
yield box that only translates, and a projection commutes with a
translation: in the frame that moves with the box the set stays put and
only the target moves.  :func:`catchup` runs there, with one constraint set
per force level, and each step's start check is read from the step
before.  Events have no native notion here and are detected a posteriori
from springs sitting on their yield bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSetError, InvalidInputError, SafeLoadError
from .lattice import LoadSchedule
from .projection import PolyhedralSet, WarmStart, project
from .sweeping import MovingSetSpec, SweepingState, static_set
from .trajectory import EventRecord, Trajectory

#: Fraction of the elastic range within which a stress counts as sitting
#: on a yield bound during a posteriori event detection.
EVENT_TOL_FRACTION = 1e-7

#: Most steps a uniform partition takes: its float64 time points must fit
#: in one addressable array.
MAX_STEPS = np.iinfo(np.intp).max // 8 - 1


@dataclass(frozen=True)
class TimePartition:
    """Strictly increasing time points starting at 0."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.shape[0] < 2:
            raise InvalidInputError("partition needs at least two points")
        if pts[0] != 0.0 or np.any(np.diff(pts) <= 0):
            raise InvalidInputError("partition must increase strictly from 0")

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimePartition":
        if steps < 1:
            raise InvalidInputError("need at least one step")
        if steps > MAX_STEPS:
            raise InvalidInputError(f"{steps:.3g} steps are more than the {MAX_STEPS} a partition holds")
        return cls(np.linspace(0.0, float(horizon), steps + 1))

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.points)))


def bound_activity(
    sigma: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    tol: np.ndarray,
) -> frozenset:
    """Set of (spring, side) pairs whose stress sits on a yield bound."""
    active = []
    on_upper = np.abs(sigma - upper) <= tol
    on_lower = np.abs(sigma - lower) <= tol
    for j in np.flatnonzero(on_upper):
        active.append((int(j), "upper"))
    for j in np.flatnonzero(on_lower):
        active.append((int(j), "lower"))
    return frozenset(active)


def detect_events(
    states: list[SweepingState],
    lower: np.ndarray,
    upper: np.ndarray,
) -> list[EventRecord]:
    """A posteriori yield events: steps where new springs reach a bound."""
    event_tol = EVENT_TOL_FRACTION * (upper - lower)
    events = []
    previous = bound_activity(states[0].sigma, lower, upper, event_tol)
    for state in states[1:]:
        current = bound_activity(state.sigma, lower, upper, event_tol)
        gained = current - previous
        if gained:
            events.append(
                EventRecord(
                    index=len(events),
                    time=state.time,
                    newly_active=gained,
                    newly_released=previous - current,
                    sigma=state.sigma.copy(),
                )
            )
        previous = current
    return events


def catchup(
    system,
    spec: MovingSetSpec,
    state0: SweepingState,
    loads: LoadSchedule,
    partition: TimePartition,
    tol: float = 1e-10,
) -> Trajectory:
    """Project step by step along the partition and recover stresses.

    The steps run in the frame that moves with the in-plane part ``c(t) =
    spec.frame(loads, t)`` of the box translation.  A projection commutes
    with a translation, so the step from ``y_n`` onto the set at
    ``t_{n+1}`` projects ``u_n - (c_{n+1} - c_n)`` onto the set of ``u =
    y - c``, which is ``static_set(spec, -F f)``: one set per force level.
    While the force stays, each step starts from ``u_n``, a point of that
    same set, and the warm handle holds its slack from the step before, so
    its start check costs nothing.  When the force changes, the start comes
    from the spec's phase-1 linear program, and an empty set raises
    :class:`SafeLoadError`.  A state is ``y = u + c`` and ``epsilon =
    lift(u) + F f``.
    """
    if partition.points[-1] > loads.horizon * (1.0 + 1e-12):
        raise InvalidInputError("partition extends beyond the load horizon")
    if state0.time != 0.0:
        raise InvalidInputError("catch-up must start at t = 0")

    warm = spec.warm_start()
    states = [state0]
    frame = spec.frame(loads, 0.0)
    u = np.asarray(state0.y, dtype=float) - frame
    f = loads.f(0.0)
    shift = spec.force_shift(f)
    poly = static_set(spec, shift)
    for t in partition.points[1:]:
        t = float(t)
        frame_next = spec.frame(loads, t)
        f_next = loads.f(t)
        start = u
        try:
            if not _same_force(f, f_next):
                f, shift = f_next, spec.force_shift(f_next)
                poly = static_set(spec, shift)
                start = spec.feasible_point(shift)
            result = project(spec.weight, u - (frame_next - frame), poly, tol=tol, start=start, warm=warm)
        except InfeasibleSetError as exc:
            raise SafeLoadError(f"safe load condition violated at t = {t}", time=t) from exc
        u, frame = result.point, frame_next
        epsilon = spec.lift(u) - shift
        sigma = system.stiffness * epsilon
        states.append(SweepingState(time=t, y=u + frame, sigma=sigma, epsilon=epsilon))

    events = detect_events(states, system.lower_limits, system.upper_limits)
    return Trajectory(states=states, solver="catchup", space=spec.space, events=events)


def _same_force(f0, f1) -> bool:
    if f0 is None and f1 is None:
        return True
    if f0 is None or f1 is None:
        return False
    return bool(np.array_equal(f0, f1))


def abstract_catchup(
    S: np.ndarray,
    set_provider,
    x0: np.ndarray,
    partition: TimePartition,
    tol: float = 1e-10,
) -> np.ndarray:
    """The bare catch-up recursion for an arbitrary moving polyhedron.

    ``set_provider`` maps a time to a :class:`PolyhedralSet`.  Returns the
    iterates stacked as rows, starting with ``x0``.
    """
    x0 = np.asarray(x0, dtype=float)
    first = set_provider(float(partition.points[0]))
    if not first.contains(x0, tol=max(tol, 1e-9)):
        raise InvalidInputError("initial point is outside the set at t = 0")
    points = [x0]
    x = x0
    warm = WarmStart()
    for t in partition.points[1:]:
        poly = set_provider(float(t))
        if not isinstance(poly, PolyhedralSet):
            raise InvalidInputError("set provider must return PolyhedralSet values")
        x = project(S, x, poly, tol=tol, warm=warm).point
        points.append(x)
    return np.vstack(points)
