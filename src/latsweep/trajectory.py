"""The result of either integrator: sampled states and yield events."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .sweeping import Space, SweepingState

#: Most states computed or read at once on stacked rows: bounds the
#: temporaries of catch-up's blocks and of the stress-strain curve.
STACKED_ROWS = 32


@dataclass(frozen=True)
class EventRecord:
    """One yielding event: springs arriving at (or leaving) their bounds,
    as (spring, side) pairs (:func:`bound_pairs`).  Leapfrog's events are
    the changes of the bounds its cones hold, so a bound reached and left at
    one instant is in none; catch-up's are the changes of the bounds its
    stresses sit on from one step to the next."""

    index: int
    time: float
    newly_active: frozenset  # of (spring, side) with side in {"lower", "upper"}
    newly_released: frozenset
    sigma: np.ndarray
    relative_velocity: np.ndarray | None = None  # set-relative velocity before the event


def bound_pairs(mask: np.ndarray) -> frozenset:
    """The (spring, side) pairs of a mask over the 2m yield bounds: the
    upper bounds in the first ``m`` entries, the lower ones after them."""
    m = mask.size // 2
    return frozenset((int(j % m), "upper" if j < m else "lower") for j in np.flatnonzero(mask))


class StateSink(Protocol):
    """Where an integrator puts its states, in time order, as it makes
    them: a list keeps them all; ``analysis.CurveFold`` keeps the curve row
    of each."""

    def append(self, state: SweepingState) -> None: ...

    def __len__(self) -> int: ...


@dataclass
class Trajectory:
    """The states and events of a run.

    ``states`` is the sink the integrator appended its states to: a list of
    :class:`SweepingState` by default, which the methods below read.  A run
    into another sink, such as the CLI's ``analysis.CurveFold``, keeps only
    what that sink keeps, and the methods that read states do not apply.
    """

    states: StateSink
    solver: str
    space: Space
    events: list[EventRecord] = field(default_factory=list)

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    def stresses(self) -> np.ndarray:
        return np.array([s.sigma for s in self.states])

    def sweeping_values(self) -> np.ndarray:
        return np.array([s.y for s in self.states])

    @property
    def final(self) -> SweepingState:
        return self.states[-1]

    def sigma_at(self, t: float) -> np.ndarray:
        """Linear interpolation of the stress path (exact between events
        for event-based trajectories)."""
        times = self.times()
        if t <= times[0]:
            return self.states[0].sigma.copy()
        if t >= times[-1]:
            return self.states[-1].sigma.copy()
        idx = int(np.searchsorted(times, t, side="right")) - 1
        t0, t1 = times[idx], times[idx + 1]
        w = (t - t0) / (t1 - t0)
        return (1 - w) * self.states[idx].sigma + w * self.states[idx + 1].sigma
