"""The result of either integrator: sampled states and yield events."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sweeping import Space, SweepingState


@dataclass(frozen=True)
class EventRecord:
    """One yielding event: springs arriving at (or leaving) their bounds."""

    index: int
    time: float
    newly_active: frozenset  # of (spring, side) with side in {"lower", "upper"}
    newly_released: frozenset
    sigma: np.ndarray
    relative_velocity: np.ndarray | None = None  # set-relative velocity before the event


@dataclass
class Trajectory:
    states: list[SweepingState]
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
