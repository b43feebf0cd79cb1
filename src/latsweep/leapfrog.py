"""Event-based integration for constant-rate loads.

When the force load is constant and the displacement/strain rates are
constant, the constraint set translates without changing shape, and the
evolution is piecewise affine: the solver jumps directly from one yield
event to the next.  Piecewise-constant rate schedules are run segment by
segment.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InvalidStateError,
    LatSweepError,
    UnsupportedLoadError,
)
from .lattice import LoadSchedule
from .projection import PolyhedralSet, WarmStart, project_cone
from .sweeping import MovingSetSpec, SweepingState
from .trajectory import EventRecord, Trajectory

#: Bound-activity tolerance: events land points on bounds up to
#: arithmetic noise.
ACTIVE_TOL = 1e-9

#: Scale-free threshold on the set-relative speed below which the
#: stresses count as stabilized.
STABILIZATION_TOL = 1e-10

#: Events closer than this (relative) count as simultaneous.
TIE_TOL = 1e-12


def tangent_cone(
    spec: MovingSetSpec,
    z: np.ndarray,
    offset: np.ndarray | None = None,
) -> PolyhedralSet:
    """Tangent cone of the frozen constraint set at ``z``.

    One homogeneous inequality per bound active at ``z``, in spring order:
    hitting a lower bound leaves only outward motion (component >= 0), an
    upper bound only inward (component <= 0).  The spec's equality rows are
    carried along.
    """
    z = np.asarray(z, dtype=float)
    lo = spec.box_lower if offset is None else spec.box_lower + offset
    hi = spec.box_upper if offset is None else spec.box_upper + offset
    values = spec.lift(z)
    if np.max(values - hi, initial=0.0) > ACTIVE_TOL or np.max(lo - values, initial=0.0) > ACTIVE_TOL:
        raise InvalidStateError("point violates the static set beyond tolerance")
    eq = spec.equality_rows
    if eq is not None and np.max(np.abs(eq @ z), initial=0.0) > 1e-7 * (1 + np.abs(z).max()):
        raise InvalidStateError("point has drifted off the self-stress plane")

    on_upper = hi - values <= ACTIVE_TOL
    springs = np.flatnonzero(on_upper | (values - lo <= ACTIVE_TOL))
    A = spec.bound_rows(springs, np.where(on_upper[springs], 1.0, -1.0))
    return PolyhedralSet(A=A, b=np.zeros(springs.size), A_eq=eq)


def event_velocity(
    spec: MovingSetSpec,
    z: np.ndarray,
    drive: np.ndarray,
    offset: np.ndarray | None = None,
    warm: WarmStart | None = None,
) -> np.ndarray:
    """Velocity of the solution relative to the translating set.

    ``drive`` is the set's translation velocity in the coordinates of
    ``z``; the result is the weighted projection of ``-drive`` onto the
    tangent cone at ``z``, in the spec's whitening unless ``warm`` is given.
    """
    cone = tangent_cone(spec, z, offset)
    warm = spec.warm_start() if warm is None else warm
    return project_cone(spec.weight, -np.asarray(drive, dtype=float), cone, warm=warm).point


def _event_candidates(spec, z, zdot, offset):
    """Earliest time a currently inactive bound is reached, with ties.

    Returns ``(tau, [(spring, side), ...])`` or ``(None, [])`` when no
    bound lies ahead.
    """
    lo = spec.box_lower if offset is None else spec.box_lower + offset
    hi = spec.box_upper if offset is None else spec.box_upper + offset
    values = spec.lift(z)
    speeds = spec.lift(zdot)
    thresh = 1e-13 * (1.0 + np.abs(speeds).max(initial=0.0))

    taus = np.full(values.shape[0], np.inf)
    sides = np.empty(values.shape[0], dtype=object)
    up = (speeds > thresh) & (hi - values > ACTIVE_TOL)
    taus[up] = (hi[up] - values[up]) / speeds[up]
    sides[up] = "upper"
    down = (speeds < -thresh) & (values - lo > ACTIVE_TOL)
    taus[down] = (lo[down] - values[down]) / speeds[down]
    sides[down] = "lower"

    tau = taus.min(initial=np.inf)
    if not np.isfinite(tau):
        return None, []
    tied = np.flatnonzero(taus <= tau * (1.0 + TIE_TOL))
    hits = [(int(j), sides[j]) for j in tied]
    return float(tau), hits


def next_event_time(
    spec: MovingSetSpec,
    z: np.ndarray,
    zdot: np.ndarray,
    offset: np.ndarray | None = None,
) -> float | None:
    """Time until a currently inactive bound becomes active along ``zdot``."""
    tau, _ = _event_candidates(spec, np.asarray(z, float), np.asarray(zdot, float), offset)
    return tau


def _weighted_norm(weight, v) -> float:
    wv = weight * v if weight.ndim == 1 else weight @ v
    return float(np.sqrt(max(np.dot(v, wv), 0.0)))


def _departures(spec, candidates, zdot):
    """Active bounds the new velocity immediately moves away from."""
    speeds = spec.lift(zdot)
    scale = 1e-9 * (1.0 + np.abs(speeds).max(initial=0.0))
    gone = set()
    for j, side in candidates:
        if side == "upper" and speeds[j] < -scale:
            gone.add((j, side))
        elif side == "lower" and speeds[j] > scale:
            gone.add((j, side))
    return gone


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
    precondition on its own).
    """
    if horizon is None:
        horizon = loads.horizon
    if horizon > loads.horizon + 1e-12:
        raise UnsupportedLoadError("horizon extends beyond the load schedule")
    if not loads.force_is_constant():
        raise UnsupportedLoadError(
            "event-based integration needs a constant force load"
        )
    if state0.time != 0.0:
        raise InvalidStateError("event-based integration must start at t = 0")

    weight = spec.weight
    k = system.stiffness
    breaks = [t for t in loads.rate_breakpoints() if t < horizon]
    breaks = sorted(set(breaks + [0.0]))
    segments = list(zip(breaks, breaks[1:] + [float(horizon)]))

    states = [state0]
    events: list[EventRecord] = []
    warm = spec.warm_start()
    y = np.asarray(state0.y, dtype=float)

    def sigma_of(z, offset0):
        return k * (spec.lift(z) - offset0)

    offset_init = spec.offset(loads, 0.0)
    values0 = spec.lift(y)
    held: set = {
        (int(j), side)
        for side, bound in (("upper", spec.box_upper + offset_init),
                            ("lower", spec.box_lower + offset_init))
        for j in np.flatnonzero(np.abs(values0 - bound) <= ACTIVE_TOL)
    }
    for t_start, t_end in segments:
        offset0 = spec.offset(loads, t_start)
        drive = spec.reduce(spec.offset_rate(loads, t_start))
        drive_norm = _weighted_norm(weight, drive)
        z = y
        t = t_start
        if drive_norm == 0.0:
            sigma = sigma_of(z, offset0)
            states.append(SweepingState(time=t_end, y=z.copy(), sigma=sigma, epsilon=sigma / k))
            y = z
            continue

        max_events = 50 * system.dims.n_springs + 100
        zdot = event_velocity(spec, z, drive, offset0, warm=warm)
        for _ in range(max_events):
            if _weighted_norm(weight, zdot) <= STABILIZATION_TOL * drive_norm:
                break  # the stresses have stabilized for this segment
            tau, hits = _event_candidates(spec, z, zdot, offset0)
            t_next = t + tau if tau is not None else np.inf
            if tau is None or t_next > t_end - 1e-15 * max(1.0, t_end):
                z = z + zdot * (t_end - t)
                t = t_end
                break
            z = z + zdot * tau
            t = t_next
            arrivals = frozenset(hits)
            candidates = set(held) | set(arrivals)
            post_velocity = event_velocity(spec, z, drive, offset0, warm=warm)
            gone = _departures(spec, candidates, post_velocity)
            held = candidates - gone
            sigma = sigma_of(z, offset0)
            events.append(
                EventRecord(
                    index=len(events),
                    time=t,
                    newly_active=arrivals,
                    newly_released=frozenset(gone),
                    sigma=sigma.copy(),
                    relative_velocity=zdot.copy(),
                )
            )
            states.append(
                SweepingState(
                    time=t,
                    y=z + spec.reduce(spec.offset(loads, t) - offset0),
                    sigma=sigma,
                    epsilon=sigma / k,
                )
            )
            zdot = post_velocity  # the next step starts from the same z
        else:
            raise LatSweepError("event iteration cap exceeded; check the model")

        sigma = sigma_of(z, offset0)
        y = z + spec.reduce(spec.offset(loads, t_end) - offset0)
        states.append(SweepingState(time=t_end, y=y.copy(), sigma=sigma, epsilon=sigma / k))

    # Collapse duplicate time stamps produced by events landing exactly on
    # segment ends.
    deduped = [states[0]]
    for s in states[1:]:
        if s.time > deduped[-1].time + 1e-15 * max(1.0, s.time):
            deduped.append(s)
        else:
            deduped[-1] = s
    return Trajectory(states=deduped, solver="leapfrog", space=spec.space, events=events)
