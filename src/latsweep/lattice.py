"""Lattice input data: the graph as two spring endpoint arrays, geometry,
spring laws, and load schedules."""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _same(a, b) -> bool:
    """Field equality: ``None`` only to ``None``, else by value and shape."""
    return a is b if a is None or b is None else bool(np.array_equal(a, b))


def _endpoints(incidence, coords, d) -> tuple[np.ndarray, np.ndarray]:
    """Origins and termini of a dense incidence, one row per node of
    ``coords`` in ``d`` dimensions; each entry is read once."""
    Q = np.asarray(incidence, dtype=float)
    if Q.ndim != 2 or Q.size == 0:
        raise InvalidInputError("lattice needs at least one node and spring")
    if Q.shape[0] * d != np.size(coords):
        raise InvalidInputError(f"incidence has {Q.shape[0]} rows for {np.size(coords)} coordinates")
    springs, nodes = np.divmod(np.flatnonzero(Q.T != 0), Q.shape[0])  # by spring, then by node
    values = Q[nodes, springs]
    if not np.all(np.abs(values) == 1):
        raise InvalidInputError("incidence entries must be -1, 0 or +1")
    pairs = np.array_equal(springs, np.repeat(np.arange(Q.shape[1]), 2))
    if not pairs or np.any(values[::2] == values[1::2]):
        raise InvalidInputError("each incidence column needs exactly one origin (+1) and one terminus (-1)")
    first = values[::2] == 1  # the lower-numbered node is the origin
    return np.where(first, nodes[::2], nodes[1::2]), np.where(first, nodes[1::2], nodes[::2])


@dataclass(frozen=True, init=False, eq=False)
class LatticeDefinition:
    """A spring network: spring endpoints, reference geometry, and spring laws.

    Spring ``s`` joins node ``origins[s]`` to a distinct node ``termini[s]``:
    these int arrays of length m are the only graph data, and the nodes are
    those of ``reference_coords``.  ``constraint_matrix`` holds the rows of
    the external displacement constraint.  Periodic lattices mark springs
    that wrap around the box with integer ``edge_shifts``; the terminus of
    such a spring is taken at its shifted image ``coords + box * shift``.

    A dense n x m ``incidence``, +1 at each spring's origin and -1 at its
    terminus, may be given in place of the endpoints, as
    ``dataclasses.replace(definition, incidence=Q)`` does: it is checked,
    turned into endpoints and not kept.

    Two definitions are equal when every field is: arrays by value and
    shape, and an optional field only to another that is also ``None``.
    A definition is not hashable.
    """

    origins: np.ndarray
    termini: np.ndarray
    reference_coords: np.ndarray
    dimension: int
    stiffness: np.ndarray
    lower_limits: np.ndarray
    upper_limits: np.ndarray
    constraint_matrix: np.ndarray
    edge_shifts: np.ndarray | None = None
    box_lengths: np.ndarray | None = None
    volume: float | None = None
    label: str = ""

    def __init__(self, *, reference_coords, dimension, stiffness, lower_limits, upper_limits,
                 constraint_matrix, origins=None, termini=None, incidence=None,
                 edge_shifts=None, box_lengths=None, volume=None, label=""):
        if incidence is not None:
            origins, termini = _endpoints(incidence, reference_coords, dimension)
        put = functools.partial(object.__setattr__, self)
        for name, ends in (("origins", np.asarray(origins)), ("termini", np.asarray(termini))):
            if ends.ndim != 1 or not np.issubdtype(ends.dtype, np.integer):
                raise InvalidInputError(f"{name} must be a 1-D array of integer node indices")
            put(name, _frozen(ends, int))
        put("reference_coords", _frozen(reference_coords))
        put("dimension", dimension)
        put("stiffness", _frozen(stiffness))
        put("lower_limits", _frozen(lower_limits))
        put("upper_limits", _frozen(upper_limits))
        put("constraint_matrix", _frozen(np.atleast_2d(constraint_matrix)))
        put("edge_shifts", None if edge_shifts is None else _frozen(edge_shifts, int))
        put("box_lengths", None if box_lengths is None else _frozen(box_lengths))
        put("volume", volume)
        put("label", label)
        self.validate()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            _same(getattr(self, field.name), getattr(other, field.name))
            for field in dataclasses.fields(self)
        )

    __hash__ = None  # compared by array value, so not hashable

    @property
    def n_nodes(self) -> int:
        return self.reference_coords.size // self.dimension

    @property
    def n_springs(self) -> int:
        return self.origins.size

    @property
    def n_constraints(self) -> int:
        return self.constraint_matrix.shape[0]

    @property
    def n_dof(self) -> int:
        return self.n_nodes * self.dimension

    @property
    def incidence(self) -> np.ndarray:
        """The dense n x m incidence, read-only, built on each read."""
        Q, springs = np.zeros((self.n_nodes, self.n_springs)), np.arange(self.n_springs)
        Q[self.origins, springs], Q[self.termini, springs] = 1.0, -1.0
        Q.flags.writeable = False
        return Q

    def node_coords(self) -> np.ndarray:
        """Reference coordinates as an (n, d) array."""
        return self.reference_coords.reshape(self.n_nodes, self.dimension)

    def spring_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(origins, termini) node indices per spring."""
        return self.origins, self.termini

    def spring_vectors(self) -> np.ndarray:
        """Chords from terminus (or its periodic image) to origin, (m, d)."""
        coords = self.node_coords()
        chords = coords[self.origins] - coords[self.termini]
        if self.edge_shifts is not None:
            chords = chords - self.edge_shifts * self.box_lengths[None, :]
        return chords

    def validate(self):
        d = self.dimension
        if d not in (1, 2, 3):
            raise InvalidInputError(f"dimension must be 1, 2 or 3, got {d}")
        shape = self.reference_coords.shape
        if len(shape) != 1 or shape[0] % d:
            raise InvalidInputError(f"reference coordinates have shape {shape}, expected (n * {d},)")
        n, m = self.n_nodes, self.n_springs
        if m == 0 or n == 0:
            raise InvalidInputError("lattice needs at least one node and spring")
        if self.termini.shape != (m,):
            raise InvalidInputError("origins and termini must have the same length")
        ends = np.concatenate([self.origins, self.termini])
        if np.any((ends < 0) | (ends >= n)):
            raise InvalidInputError(f"spring endpoints must be node indices 0 to {n - 1}")
        loops = np.flatnonzero(self.origins == self.termini)
        if loops.size:
            raise InvalidInputError(f"spring {loops[0]} joins node {self.origins[loops[0]]} to itself")
        for name in ("reference_coords", "stiffness", "lower_limits", "upper_limits"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidInputError(f"{name} has non-finite entries")
        if self.stiffness.shape != (m,) or np.any(self.stiffness <= 0):
            raise InvalidInputError("stiffness must be positive, one value per spring")
        if self.lower_limits.shape != (m,) or self.upper_limits.shape != (m,):
            raise InvalidInputError("yield limits must have one value per spring")
        if np.any(self.lower_limits >= self.upper_limits):
            raise InvalidInputError("lower yield limits must be below upper limits")
        if self.constraint_matrix.shape[1] != n * d:
            raise InvalidInputError(
                f"constraint matrix has {self.constraint_matrix.shape[1]} columns, "
                f"expected {n * d}"
            )
        if not np.all(np.isfinite(self.constraint_matrix)):
            raise InvalidInputError("constraint matrix has non-finite entries")
        if self.edge_shifts is not None:
            if self.box_lengths is None:
                raise InvalidInputError("edge shifts require box lengths")
            if self.edge_shifts.shape != (m, d):
                raise InvalidInputError("edge shifts must have shape (m, d)")
            if self.box_lengths.shape != (d,) or np.any(self.box_lengths <= 0):
                raise InvalidInputError("box lengths must be positive, one per axis")


@dataclass(frozen=True)
class LoadSchedule:
    """Displacement, force, and box-strain loads on ``[0, horizon]``.

    The displacement load is ``r(t) = displacement_offset + integral of the
    piecewise-constant rate``; ``rate_times`` are segment start times and
    ``rate_values`` the rate on each segment.  The force load and the box
    strain are piecewise linear between breakpoints and constant beyond
    them.
    """

    displacement_offset: np.ndarray
    rate_times: np.ndarray
    rate_values: np.ndarray
    horizon: float
    force_times: np.ndarray | None = None
    force_values: np.ndarray | None = None
    strain_axis: int | None = None
    strain_times: np.ndarray | None = None
    strain_values: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "displacement_offset", _frozen(self.displacement_offset))
        object.__setattr__(self, "rate_times", _frozen(np.atleast_1d(self.rate_times)))
        object.__setattr__(self, "rate_values", _frozen(np.atleast_2d(self.rate_values)))
        if self.horizon <= 0:
            raise InvalidInputError("horizon must be positive")
        if self.rate_times[0] != 0.0 or np.any(np.diff(self.rate_times) <= 0):
            raise InvalidInputError("rate segment times must increase from 0")
        if self.rate_values.shape[0] != self.rate_times.shape[0]:
            raise InvalidInputError("one rate vector per rate segment required")
        if self.rate_values.shape[1] != self.displacement_offset.shape[0]:
            raise InvalidInputError("rate vectors must match the offset length")
        if (self.force_times is None) != (self.force_values is None):
            raise InvalidInputError("force times and values must come together")
        if self.force_times is not None:
            object.__setattr__(self, "force_times", _frozen(np.atleast_1d(self.force_times)))
            object.__setattr__(self, "force_values", _frozen(np.atleast_2d(self.force_values)))
            if self.force_values.shape[0] != self.force_times.shape[0]:
                raise InvalidInputError("one force vector per breakpoint required")
            if np.any(np.diff(self.force_times) <= 0):
                raise InvalidInputError("force breakpoints must increase")
        has_strain = self.strain_times is not None
        if has_strain != (self.strain_values is not None) or (
            has_strain and self.strain_axis is None
        ):
            raise InvalidInputError("strain needs axis, times and values together")
        if has_strain:
            object.__setattr__(self, "strain_times", _frozen(np.atleast_1d(self.strain_times)))
            object.__setattr__(self, "strain_values", _frozen(np.atleast_1d(self.strain_values)))
            if self.strain_values.shape != self.strain_times.shape:
                raise InvalidInputError("one strain value per breakpoint required")
            if np.any(np.diff(self.strain_times) <= 0):
                raise InvalidInputError("strain breakpoints must increase")

    @classmethod
    def constant_rate(cls, displacement_offset, rate, horizon, **loads) -> "LoadSchedule":
        """One displacement rate from 0 to ``horizon``; ``loads`` are the
        force and strain fields, as the constructor takes them."""
        return cls(
            displacement_offset=np.asarray(displacement_offset, dtype=float),
            rate_times=np.array([0.0]),
            rate_values=np.atleast_2d(np.asarray(rate, dtype=float)),
            horizon=float(horizon),
            **loads,
        )

    def _segment(self, times: np.ndarray, t: float) -> int:
        idx = int(np.searchsorted(times, t, side="right")) - 1
        return min(max(idx, 0), len(times) - 1)

    @functools.cached_property
    def _segment_starts(self) -> np.ndarray:
        """The displacement load at the start of each rate segment: the
        offset plus the segments before it, added in order."""
        steps = self.rate_values[:-1] * np.diff(self.rate_times)[:, None]
        return _frozen(np.cumsum(np.vstack([self.displacement_offset, steps]), axis=0))

    def r(self, t) -> np.ndarray:
        """Displacement load at time ``t``; at an array of times, one row each."""
        times = self.rate_times
        t = np.asarray(t, dtype=float)
        idx = np.maximum(np.searchsorted(times, t, side="right") - 1, 0)
        return self._segment_starts[idx] + self.rate_values[idx] * (t - times[idx])[..., None]

    def rdot(self, t: float) -> np.ndarray:
        """Displacement rate on the segment containing ``t``."""
        return self.rate_values[self._segment(self.rate_times, t)].copy()

    def f(self, t: float) -> np.ndarray | None:
        """Force load at time ``t``; ``None`` means identically zero."""
        if self.force_times is None:
            return None
        times, values = self.force_times, self.force_values
        if t <= times[0]:
            return values[0].copy()
        if t >= times[-1]:
            return values[-1].copy()
        idx = self._segment(times, t)
        w = (t - times[idx]) / (times[idx + 1] - times[idx])
        return (1 - w) * values[idx] + w * values[idx + 1]

    def force_is_constant(self) -> bool:
        if self.force_times is None:
            return True
        return bool(np.all(self.force_values == self.force_values[0]))

    def gamma(self, t):
        """Box strain at time ``t``, or at each of an array of times (0 when
        the schedule has no strain load)."""
        if self.strain_times is None:
            return np.zeros(np.shape(t))
        return np.interp(t, self.strain_times, self.strain_values)

    def gamma_rate(self, t: float) -> float:
        if self.strain_times is None:
            return 0.0
        times, values = self.strain_times, self.strain_values
        if t >= times[-1] or t < times[0]:
            return 0.0
        idx = self._segment(times, t)
        idx = min(idx, len(times) - 2)
        return float((values[idx + 1] - values[idx]) / (times[idx + 1] - times[idx]))

    def rate_breakpoints(self) -> np.ndarray:
        """Times where any load rate may jump, clipped to [0, horizon]."""
        pts = {0.0, float(self.horizon)}
        pts.update(float(t) for t in self.rate_times)
        if self.strain_times is not None:
            pts.update(float(t) for t in self.strain_times)
        if self.force_times is not None:
            pts.update(float(t) for t in self.force_times)
        return np.array(sorted(p for p in pts if 0.0 <= p <= self.horizon))
