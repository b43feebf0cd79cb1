"""Time-stepping (catch-up) integration of the sweeping process, by blocks.

Each step projects the previous point onto the next constraint set
(Moreau's catch-up scheme); the stresses are recovered from the projected
point.  Under a frozen force that set is the self-stress plane cut by a
yield box that only translates, and a projection commutes with a
translation: in the frame that moves with the box the set stays put and
only the target moves.  :func:`catchup` runs there, with one constraint set
per force level.

Under a constant load rate the process is piecewise affine between yield
events, and so are the steps: a step that ends on the face its start lies
on moves by its drive's component along that face.  So the steps run by
blocks.  A block starts with one kernel projection, whose active bounds fix
a face; the steps after it at the same force level are computed on that
face together, with one least-squares solve for all of them, and each is
accepted on a certificate, the kernel's own KKT tests with its own
tolerances (:func:`projection._on_bounds`,
:func:`projection._negative_multipliers`):

- every bound off the face keeps its slack above the activity tolerance;
- every bound of the face stays within it;
- every multiplier passes the kernel's sign test;
- stationarity holds by construction.

The first step that fails starts the next block, with a projection from the
last accepted point.  Under a force ramp the force changes every step, so
every block is one projection.  Events have no native notion here and are
detected a posteriori from springs sitting on their yield bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSetError, InvalidInputError, SafeLoadError
from .lattice import LoadSchedule, _same
from .projection import DEFAULT_TOL, _columns, _negative_multipliers, _on_bounds, _working_set_solve, project
from .sweeping import MovingSetSpec, SweepingState, static_set
from .trajectory import STACKED_ROWS, EventRecord, StateSink, Trajectory

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


def bound_activity(sigma: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Which yield bounds each row of stresses sits on, within
    ``EVENT_TOL_FRACTION`` of the elastic range: the upper bounds in the
    first ``m`` columns, the lower ones after them."""
    tol = EVENT_TOL_FRACTION * (upper - lower)
    return np.concatenate([np.abs(sigma - upper) <= tol, np.abs(sigma - lower) <= tol], axis=-1)


def detect_events(
    times: np.ndarray,
    sigma: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    before: np.ndarray,
    first: int,
) -> tuple[list[EventRecord], np.ndarray]:
    """A posteriori yield events: the rows of the stacked stresses ``sigma``,
    at ``times``, where springs reach a bound or leave one.

    ``before`` is the :func:`bound_activity` of the row before the first,
    and the events are numbered from ``first``.  Returns the events and the
    activity of the last row.
    """
    active = bound_activity(sigma, lower, upper)
    previous = np.vstack([before, active[:-1]])
    gained, released = active & ~previous, previous & ~active
    events = []
    for row in np.flatnonzero((gained | released).any(axis=1)):
        events.append(
            EventRecord(
                index=first + len(events),
                time=float(times[row]),
                newly_active=_bound_pairs(gained[row]),
                newly_released=_bound_pairs(released[row]),
                sigma=sigma[row].copy(),
            )
        )
    return events, active[-1]


def _bound_pairs(mask: np.ndarray) -> frozenset:
    """The (spring, side) pairs of an activity row."""
    m = mask.size // 2
    return frozenset((int(j % m), "upper" if j < m else "lower") for j in np.flatnonzero(mask))


@dataclass(frozen=True)
class _Face:
    """The bounds a projected point sits on, in bound order, and their
    signed whitened columns ``C``."""

    on: np.ndarray
    C: np.ndarray


def _follow(poly, face: _Face, u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The steps from ``u`` that end on ``face``, as points in columns.

    ``g`` holds each step's drive ``c_n - c_{n+1}``, one column each, in
    the coordinates of ``u``, which are the kernel's whitened ones.  A step
    from a point of the face onto the face is ``d = g - C lam`` with ``lam
    = lstsq(C, g)`` (:func:`projection._working_set_solve`): all steps come
    from one least-squares solve and one cumulative sum.  They are accepted
    up to the first whose point fails the kernel's certificate: a bound off
    the face with slack within the activity tolerance, a bound of the face
    with slack beyond it, or a negative multiplier.
    """
    ok = np.ones(g.shape[1], dtype=bool)
    if face.C.shape[1]:
        lam = _working_set_solve(face.C, g)
        g = g - face.C @ lam
        ok = ~np.any(_negative_multipliers(lam, DEFAULT_TOL), axis=0)
    points = np.cumsum(g, axis=1)
    points += u[:, None]
    values = poly.apply(points)
    m = values.shape[0]
    # the upper bounds' slacks, then the lower ones', one half at a time
    for sign, bound, on in ((1.0, poly.b, face.on[:m]), (-1.0, poly.lower, face.on[m:])):
        slack = bound[:, None] - values
        slack *= sign
        slack[on] = np.abs(slack[on])
        ok &= np.all(_on_bounds(slack, bound[:, None], DEFAULT_TOL) == on[:, None], axis=0)
    return points[:, : ok.size if ok.all() else int(np.argmin(ok))]


def _runs(loads: LoadSchedule, times: np.ndarray):
    """Runs ``[i, j)`` of at most ``STACKED_ROWS`` consecutive time points,
    after the first, at one force level, with that force."""
    i = 1
    while i < times.size:
        f = loads.f(float(times[i]))
        j = min(i + STACKED_ROWS, times.size)
        if not loads.force_is_constant():
            j = next((k for k in range(i + 1, j) if not _same(f, loads.f(float(times[k])))), j)
        yield i, j, f
        i = j


def catchup(
    system,
    spec: MovingSetSpec,
    state0: SweepingState,
    loads: LoadSchedule,
    partition: TimePartition,
    states: StateSink | None = None,
) -> Trajectory:
    """Project step by step along the partition and recover stresses.

    The steps run in the frame that moves with the in-plane part ``c(t) =
    spec.frame(loads, t)`` of the box translation.  A projection commutes
    with a translation, so the step from ``y_n`` onto the set at
    ``t_{n+1}`` projects ``u_n - (c_{n+1} - c_n)`` onto the set of ``u =
    y - c``, which is ``static_set(spec, -F f)``: one set per force level.
    The solve runs in the coordinates ``y`` in ``V``, in a weight of ones,
    whose whitening is the identity (``V`` is K-orthonormal), from ``u_0 =
    reduce(sigma_0 / k - F f(0))`` of ``state0``'s stresses, as leapfrog
    does; states leave it through ``spec.view``.  Each projection is hinted
    by the last one's active bounds.
    While the force stays, each step starts from ``u_n``, a point of that
    same set, and a block of steps on one face takes one projection (see
    the module docstring).  When the force changes, the start comes from
    the spec's phase-1 linear program, in stress units, the one
    ``check-safe-load`` solves, and an empty set raises
    :class:`SafeLoadError`.  A state is ``y = u + c`` and ``sigma = k
    (lift(u) + F f)``.  The frames, states and events of a run of at most
    ``STACKED_ROWS`` time points are computed on stacked rows.

    Each state, ``state0`` first, is appended to ``states`` once its run is
    done: a new list by default, which keeps them all, or any sink with
    ``append`` and ``len``, such as the CLI's ``analysis.CurveFold``, which
    keeps five numbers each.  The returned trajectory holds that sink.
    """
    if partition.points[-1] > loads.horizon * (1.0 + 1e-12):
        raise InvalidInputError("partition extends beyond the load horizon")
    if state0.time != 0.0:
        raise InvalidInputError("catch-up must start at t = 0")

    times = partition.points
    lower, upper = system.lower_limits, system.upper_limits
    weight, active = np.ones(system.dims.dim_v), None
    f = loads.f(0.0)
    shift = spec.force_shift(f)
    u = spec.reduce(state0.sigma / system.stiffness + shift)
    poly = static_set(spec, shift)
    face, phase_one = None, False
    states = [] if states is None else states
    states.append(state0)
    events = []
    activity = bound_activity(state0.sigma, lower, upper)
    for i, j, f_next in _runs(loads, times):
        frames = spec.frame(loads, times[i - 1 : j])
        drives = -np.diff(frames, axis=1)
        if not _same(f, f_next):
            f, shift, face, phase_one = f_next, spec.force_shift(f_next), None, True
            poly = static_set(spec, shift)
        path = np.empty((j - i, u.size))  # u, one row per step
        s = 0
        while s < j - i:
            if face is not None:
                points = _follow(poly, face, u, drives[:, s:])
                if points.shape[1]:
                    path[s : s + points.shape[1]] = points.T
                    s += points.shape[1]
                    u = points[:, -1].copy()
                    if s == j - i:
                        break
            t = float(times[i + s])
            try:
                start = spec.feasible_point(shift) if phase_one else u
                target = u - (frames[:, s + 1] - frames[:, s])
                result = project(weight, target, poly, start=start, active=active)
            except InfeasibleSetError as exc:
                raise SafeLoadError(f"safe load condition violated at t = {t}", time=t) from exc
            u, active, phase_one = result.point, result.active_inequalities, False
            path[s] = u
            s += 1
            on = np.zeros(poly.n_inequalities, dtype=bool)
            on[list(active)] = True
            face = _Face(on, _columns(poly.A.T, np.flatnonzero(on)))
        sigma = np.empty((j - i, lower.size))
        np.subtract(spec.lift(path.T).T, shift, out=sigma)
        sigma *= system.stiffness
        path += frames[:, 1:].T  # now y = u + c
        ys = spec.view(path.T).T
        for row, t in enumerate(times[i:j]):
            states.append(SweepingState(time=float(t), y=ys[row], sigma=sigma[row]))
        found, activity = detect_events(times[i:j], sigma, lower, upper, activity, len(events))
        events += found

    return Trajectory(states=states, solver="catchup", space=spec.space, events=events)
