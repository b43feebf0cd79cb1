"""Time-stepping (catch-up) integration of the sweeping process.

Each step projects the previous point onto the next constraint set; the
stresses are recovered from the projected point.  Events have no native
notion here and are detected a posteriori from springs sitting on their
yield bounds.
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

    When the force load is frozen between two steps the set only
    translates, so the translated previous point is already feasible and
    the phase-1 solve is skipped.
    """
    if partition.points[-1] > loads.horizon + 1e-12:
        raise InvalidInputError("partition extends beyond the load horizon")
    if state0.time != 0.0:
        raise InvalidInputError("catch-up must start at t = 0")

    warm = spec.warm_start()
    states = [state0]
    y = np.asarray(state0.y, dtype=float)
    offset_prev = spec.offset(loads, 0.0)
    f_prev = loads.f(0.0)
    for t in partition.points[1:]:
        offset_next = spec.offset(loads, float(t))
        f_next = loads.f(float(t))
        poly = static_set(spec, offset_next)
        start = None
        if _same_force(f_prev, f_next):
            start = y + spec.reduce(offset_next - offset_prev)
        try:
            result = project(spec.weight, y, poly, tol=tol, start=start, warm=warm)
        except InfeasibleSetError as exc:
            raise SafeLoadError(
                f"safe load condition violated at t = {t}", time=float(t)
            ) from exc
        y = result.point
        epsilon = spec.lift(y) - offset_next
        sigma = system.stiffness * epsilon
        states.append(SweepingState(time=float(t), y=y, sigma=sigma, epsilon=epsilon))
        offset_prev = offset_next
        f_prev = f_next

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
