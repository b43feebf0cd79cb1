"""Event-based integration for constant-rate loads.

When the force load is constant and the displacement/strain rates are
constant, the constraint set translates without changing shape, and the
evolution is piecewise affine: the solver jumps directly from one yield
event to the next.  It runs in catch-up's frame ``u = y - c(t)``, where
the set stays put and the drive sweeps ``u`` across it.  Piecewise-constant
rate schedules are run segment by segment; a segment start is one more
pass of the event loop, where the bounds the new rate leaves at once, as on
unloading, are released.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InvalidStateError,
    LatSweepError,
    UnsupportedLoadError,
)
from .lattice import LoadSchedule
from .projection import PolyhedralSet, project_cone
from .sweeping import MovingSetSpec, SweepingState
from .trajectory import EventRecord, Trajectory

#: Bound-activity tolerance, as a fraction of each spring's elastic range:
#: events land points on bounds up to arithmetic noise.
ACTIVE_TOL = 1e-9

#: Scale-free threshold on the set-relative speed below which the
#: stresses count as stabilized.
STABILIZATION_TOL = 1e-10

#: Events closer than this (relative) count as simultaneous.
TIE_TOL = 1e-12


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


def _event_candidates(spec, z, zdot, offset):
    """Earliest time a currently inactive bound is reached, with ties.

    Returns ``(tau, [(spring, side), ...])`` or ``(None, [])`` when no
    bound lies ahead.
    """
    room_up, room_down, on_upper, on_lower, _ = _bound_status(spec, z, offset)
    speeds = spec.lift(zdot)
    thresh = 1e-13 * np.abs(speeds).max(initial=0.0)

    taus = np.full(speeds.shape[0], np.inf)
    up = (speeds > thresh) & ~on_upper
    down = (speeds < -thresh) & ~on_lower
    with np.errstate(over="ignore"):  # a bound out of reach: tau is inf
        taus[up] = room_up[up] / speeds[up]
        taus[down] = -room_down[down] / speeds[down]

    tau = taus.min(initial=np.inf)
    if not np.isfinite(tau):
        return None, []
    tied = np.flatnonzero(taus <= tau * (1.0 + TIE_TOL))
    return float(tau), [(int(j), "upper" if up[j] else "lower") for j in tied]


def _departures(spec, candidates, zdot, drive_speed):
    """Active bounds the new velocity immediately moves away from, faster
    than 1e-9 of ``drive_speed``, the largest elongation rate of the drive
    (the velocity itself is 0 up to rounding once the stresses stabilize)."""
    speeds = spec.lift(zdot)
    scale = 1e-9 * drive_speed
    return frozenset((j, side) for j, side in candidates
                     if (speeds[j] < -scale if side == "upper" else speeds[j] > scale))


def leapfrog(
    system,
    spec: MovingSetSpec,
    state0: SweepingState,
    loads: LoadSchedule,
    horizon: float | None = None,
) -> Trajectory:
    """Integrate by jumping between yield events.

    Requires a constant force load; displacement and strain rates may be
    piecewise constant (each segment satisfies the constant-rate
    precondition on its own).  The solve runs in catch-up's frame, from
    ``u = reduce(epsilon_0 + shift)`` in ``static_set(spec, shift)``, with
    ``shift`` the force shift; a state is ``y = u + spec.frame(loads, t)``
    and ``sigma = k (lift(u) - shift)``, and leaves through ``spec.view``.
    Each pass of the event loop, at a segment start or an arrival, takes
    the velocity there and releases the bounds it leaves among those held
    and those just reached; a pass where a bound arrived or left is one
    event.
    """
    if horizon is None:
        horizon = loads.horizon
    if horizon > loads.horizon * (1.0 + 1e-12):
        raise UnsupportedLoadError("horizon extends beyond the load schedule")
    if not loads.force_is_constant():
        raise UnsupportedLoadError("event-based integration needs a constant force load")
    if state0.time != 0.0:
        raise InvalidStateError("event-based integration must start at t = 0")

    k = system.stiffness
    breaks = [t for t in loads.rate_breakpoints() if t < horizon]
    breaks = sorted(set(breaks + [0.0]))
    segments = list(zip(breaks, breaks[1:] + [float(horizon)]))

    shift = spec.force_shift(loads.f(0.0))
    u = spec.reduce(state0.epsilon + shift)

    def state(t):
        sigma = k * (spec.lift(u) - shift)
        return SweepingState(time=t, y=spec.view(u + spec.frame(loads, t)), sigma=sigma, epsilon=sigma / k)

    states = [state0]
    events: list[EventRecord] = []
    _, _, on_upper, on_lower, _ = _bound_status(spec, u, shift)
    held: set = {(int(j), "upper") for j in np.flatnonzero(on_upper)}
    held |= {(int(j), "lower") for j in np.flatnonzero(on_lower)}
    zdot = None
    for t_start, t_end in segments:
        drive = spec.reduce(spec.offset_rate(loads, t_start))
        drive_norm = float(np.sqrt(drive @ drive))
        drive_speed = float(np.abs(spec.lift(drive)).max(initial=0.0))
        t, arrivals = t_start, frozenset()
        for _ in range(50 * system.dims.n_springs + 100):
            before, zdot = zdot, event_velocity(spec, u, drive, shift)
            candidates = held | arrivals
            gone = _departures(spec, candidates, zdot, drive_speed)
            held = candidates - gone
            if arrivals or gone:  # a release alone, as on unloading, at a segment start
                now = state(t)
                events.append(
                    EventRecord(
                        index=len(events),
                        time=t,
                        newly_active=arrivals,
                        newly_released=gone,
                        sigma=now.sigma.copy(),
                        relative_velocity=None if before is None else spec.view(before).copy(),
                    )
                )
                if arrivals:
                    states.append(now)
            if float(np.sqrt(zdot @ zdot)) <= STABILIZATION_TOL * drive_norm:
                break  # the stresses have stabilized for this segment
            tau, hits = _event_candidates(spec, u, zdot, shift)
            if tau is None or t + tau > t_end - 1e-15 * horizon:
                u = u + zdot * (t_end - t)
                break
            u = u + zdot * tau
            t, arrivals = t + tau, frozenset(hits)
        else:
            raise LatSweepError("event iteration cap exceeded; check the model")
        states.append(state(t_end))

    # Collapse duplicate time stamps produced by events landing exactly on
    # segment ends.
    deduped = [states[0]]
    for s in states[1:]:
        if s.time > deduped[-1].time + 1e-15 * horizon:
            deduped.append(s)
        else:
            deduped[-1] = s
    return Trajectory(states=deduped, solver="leapfrog", space=spec.space, events=events)
