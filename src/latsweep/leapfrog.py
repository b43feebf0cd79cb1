"""Event-based integration for constant-rate loads.

When the force load is constant and the displacement/strain rates are
constant, the constraint set translates without changing shape, and the
evolution is piecewise affine: the solver jumps directly from one yield
event to the next.  It runs in catch-up's frame ``u = y - c(t)``, where
the set stays put and the drive sweeps ``u`` across it.  Between events the
velocity is the projection of the drive's opposite onto the tangent cone of
the bounds ``u`` sits on (Moreau's sweeping process).  One rule decides what
is held: a bound is in contact when ``u`` sits on it, as the cone has it,
and the new velocity does not leave it.  The events are the changes of that
contact set, arrivals and releases; a bound reached and left at one instant
is never held, so no event names it: no plastic flow happens there.
Piecewise-constant rate schedules are run segment by segment; a segment
start is one more pass of the event loop, where the bounds the new rate
leaves at once, as on unloading, are released, and those an arrival at the
segment end put ``u`` on arrive.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidStateError,
    LatSweepError,
    UnsupportedLoadError,
)
from .lattice import LoadSchedule
from .projection import PolyhedralSet, _norm, project_cone
from .sweeping import MovingSetSpec, SweepingState
from .trajectory import EventRecord, StateSink, Trajectory, bound_pairs

#: Bound-activity tolerance, as a fraction of each spring's elastic range:
#: events land points on bounds up to arithmetic noise.
ACTIVE_TOL = 1e-9

#: Scale-free threshold on the set-relative speed below which the
#: stresses count as stabilized.
STABILIZATION_TOL = 1e-10


def _bound_status(spec: MovingSetSpec, z: np.ndarray, offset: np.ndarray | float | None):
    """Where ``lift(z)`` sits in the box shifted by ``offset``, per spring.

    Returns the room to the upper and to the lower bound, and the masks of
    the springs on their upper bound, on their lower bound, and outside the
    box, each decided within ``ACTIVE_TOL`` of the spring's elastic range.
    """
    shift = 0.0 if offset is None else offset
    values = spec.lift(z)
    up, down = spec.box_upper + shift - values, values - (spec.box_lower + shift)
    tol = ACTIVE_TOL * (spec.box_upper - spec.box_lower)
    return up, down, up <= tol, down <= tol, (up < -tol) | (down < -tol)


def tangent_cone(
    spec: MovingSetSpec,
    z: np.ndarray,
    offset: np.ndarray | float | None = None,
) -> PolyhedralSet:
    """Tangent cone of the frozen constraint set at ``z``: the set itself,
    with the bounds active at ``z`` moved to 0 and the others opened.

    The cone is ``{v : V v <= 0 on the springs on their upper bound, V v >=
    0 on those on their lower bound}``, the spec's own map with bounds of 0
    or infinity, so no rows are built per event and the projection reads
    a view of ``V`` as its whitened map.  ``offset`` is the box
    translation: :func:`leapfrog` passes the force shift of its frame.
    """
    z = np.asarray(z, dtype=float)
    _, _, on_upper, on_lower, outside = _bound_status(spec, z, offset)
    if np.any(outside):
        raise InvalidStateError("point violates the static set beyond tolerance")
    return PolyhedralSet(
        A=spec.system.V_basis,
        b=np.where(on_upper, 0.0, np.inf),
        lower=np.where(on_lower, 0.0, -np.inf),
    )


def event_velocity(
    spec: MovingSetSpec,
    z: np.ndarray,
    drive: np.ndarray,
    offset: np.ndarray | float | None = None,
) -> np.ndarray:
    """Velocity of the solution relative to the translating set.

    ``z`` and ``drive``, the set's translation velocity, are coordinates in
    ``V``; the result is the projection of ``-drive`` onto the tangent cone
    at ``z`` in a weight of ones: ``V`` is K-orthonormal, so the stiffness
    inner product is the Euclidean one there.
    """
    cone = tangent_cone(spec, z, offset)
    return project_cone(np.ones(cone.dim), -np.asarray(drive, dtype=float), cone).point


def _scan(spec, z, zdot, offset, drive_speed) -> tuple[np.ndarray, float | None]:
    """One look at the box from ``z`` along the velocity ``zdot``.

    Returns the contact set, the bounds the solution holds at ``z``, upper
    bounds first, then the lower ones: those ``z`` sits on
    (:func:`_bound_status`, the rule of :func:`tangent_cone`) that ``zdot``
    does not leave faster than 1e-9 of ``drive_speed``, the largest
    elongation rate of the drive (the velocity itself is 0 up to rounding
    once the stresses stabilize).  And the time until the first bound ``z``
    is not on is reached along ``zdot``, or None when no bound lies ahead.
    """
    room_up, room_down, on_upper, on_lower, _ = _bound_status(spec, z, offset)
    speeds = spec.lift(zdot)
    scale = 1e-9 * drive_speed
    contact = np.concatenate([on_upper & (speeds >= -scale), on_lower & (speeds <= scale)])
    thresh = 1e-13 * np.abs(speeds).max(initial=0.0)
    up = (speeds > thresh) & ~on_upper
    down = (speeds < -thresh) & ~on_lower
    with np.errstate(over="ignore"):  # a bound out of reach: tau is inf
        taus = np.concatenate([room_up[up] / speeds[up], -room_down[down] / speeds[down]])
    tau = taus.min(initial=np.inf)
    return contact, (float(tau) if np.isfinite(tau) else None)


def leapfrog(
    system,
    spec: MovingSetSpec,
    state0: SweepingState,
    loads: LoadSchedule,
    horizon: float | None = None,
    states: StateSink | None = None,
) -> Trajectory:
    """Integrate by jumping between yield events.

    Requires a constant force load; displacement and strain rates may be
    piecewise constant (each segment satisfies the constant-rate
    precondition on its own).  The solve runs in catch-up's frame, from
    ``u = reduce(sigma_0 / k + shift)`` in ``static_set(spec, shift)``, with
    ``shift`` the force shift; a state is ``y = u + spec.frame(loads, t)``
    and ``sigma = k (lift(u) - shift)``, and leaves through ``spec.view``.
    Each pass of the event loop, at a segment start or an arrival, takes
    the velocity there and, in one scan of the box (:func:`_scan`), the
    time to the next arrival and the contact set: the bounds ``u`` sits on,
    as :func:`tangent_cone` decides, that the velocity does not leave.  Its
    bounds not held before arrive, the held ones outside it are released,
    and it becomes the held set; a pass where a bound arrived or left is one
    event.  A bound reached and left in one pass is neither, as no plastic
    flow happens on it.  ``horizon``, the schedule's by default, must be a
    positive finite number no later than the schedule's.

    The states, ``state0``, each arrival and each segment end, are appended
    to ``states`` in time order: a new list by default, or any sink with
    ``append`` and ``len``, such as the CLI's ``analysis.CurveFold``.  An
    arrival within ``1e-15 * horizon`` of a segment end gives two states one
    time stamp: the state last made is held back until a later one comes,
    and one at its time replaces it, so the sink takes the last of them and
    never has to replace a state.  The returned trajectory holds that sink.
    """
    if horizon is None:
        horizon = loads.horizon
    if not 0.0 < horizon < np.inf:
        raise InvalidInputError(f"horizon must be a positive finite number, not {horizon}")
    if horizon > loads.horizon * (1.0 + 1e-12):
        raise UnsupportedLoadError("horizon extends beyond the load schedule")
    if not loads.force_is_constant():
        raise UnsupportedLoadError("event-based integration needs a constant force load")
    if state0.time != 0.0:
        raise InvalidStateError("event-based integration must start at t = 0")

    k = system.stiffness
    breaks = [t for t in loads.rate_breakpoints() if t < horizon]  # from 0, sorted
    segments = list(zip(breaks, breaks[1:] + [float(horizon)]))

    shift = spec.force_shift(loads.f(0.0))
    u = spec.reduce(state0.sigma / k + shift)

    def state(t):
        sigma = k * (spec.lift(u) - shift)
        return SweepingState(time=t, y=spec.view(u + spec.frame(loads, t)), sigma=sigma)

    states = [] if states is None else states
    pending = state0  # the last state, held back until a later time comes

    def keep(new: SweepingState):
        nonlocal pending
        if new.time > pending.time + 1e-15 * horizon:
            states.append(pending)
        pending = new

    events: list[EventRecord] = []
    _, _, on_upper, on_lower, _ = _bound_status(spec, u, shift)
    held = np.concatenate([on_upper, on_lower])  # the start's bounds are no arrivals
    zdot = None
    for t_start, t_end in segments:
        drive = spec.reduce(spec.offset_rate(loads, t_start))
        drive_norm = _norm(drive)
        drive_speed = float(np.abs(spec.lift(drive)).max(initial=0.0))
        t = t_start
        for _ in range(50 * system.dims.n_springs + 100):
            before, zdot = zdot, event_velocity(spec, u, drive, shift)
            contact, tau = _scan(spec, u, zdot, shift, drive_speed)
            arrivals, released, held = contact & ~held, held & ~contact, contact
            if arrivals.any() or released.any():  # a release alone, as on unloading
                now = state(t)
                events.append(
                    EventRecord(
                        index=len(events),
                        time=t,
                        newly_active=bound_pairs(arrivals),
                        newly_released=bound_pairs(released),
                        sigma=now.sigma.copy(),
                        relative_velocity=None if before is None else spec.view(before).copy(),
                    )
                )
                if arrivals.any():
                    keep(now)
            if _norm(zdot) <= STABILIZATION_TOL * drive_norm:
                break  # the stresses have stabilized for this segment
            if tau is None or t + tau > t_end - 1e-15 * horizon:
                u = u + zdot * (t_end - t)
                break
            u = u + zdot * tau
            t = t + tau
        else:
            raise LatSweepError("event iteration cap exceeded; check the model")
        keep(state(t_end))

    states.append(pending)
    return Trajectory(states=states, solver="leapfrog", space=spec.space, events=events)
