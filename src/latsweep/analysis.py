"""Post-processing: total-stress tensor, stress-strain curves, macroscopic
metrics, and yield-event histograms.

CSV column contracts (header row mandatory, order fixed):
  curves:  time,strain,sigma11,sigma22,sigma12
  events:  event,time,spring,side
Floats are written in shortest round-trip form, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import AssembledSystem
from .trajectory import STACKED_ROWS, Trajectory
from .errors import DegenerateMetricsError, InvalidInputError
from .lattice import LoadSchedule

#: Conventional engineering offset on the strain axis for the yield point.
YIELD_OFFSET = 0.002


def total_stress(
    system: AssembledSystem, sigma: np.ndarray, volume: float
) -> np.ndarray:
    """Volume-averaged total stress tensor of the network.

    ``(1/V) D^T diag(sigma) diag(lengths) D`` with D the unit-direction
    rows; symmetric by construction.
    """
    if not volume > 0:
        raise InvalidInputError("volume must be positive")
    sigma = np.asarray(sigma, dtype=float)
    D = system.directions
    weights = sigma * system.reference_lengths
    return (D * weights[:, None]).T @ D / volume


def strain_series(
    traj_times: np.ndarray, loads: LoadSchedule, definition
) -> np.ndarray:
    """Strain values matching the trajectory time stamps.

    Box-strain runs use the strain load directly.  Constraint-driven runs
    use the displacement of the fastest constraint row divided by the
    reference span between the moving and fixed constrained node groups.
    """
    return _strain_map(loads, definition)(np.asarray(traj_times, dtype=float))


def _strain_map(loads: LoadSchedule, definition):
    """The map from an array of times to their strains, for
    :func:`strain_series`; it works on each time alone."""
    if loads.strain_times is not None:
        return loads.gamma
    r0 = loads.r(0.0)
    rT = loads.r(loads.horizon)
    j = int(np.argmax(np.abs(rT - r0)))
    span = _constraint_span(definition, loads)
    return lambda times: np.abs(loads.r(times)[:, j] - r0[j]) / span


def _constraint_span(definition, loads: LoadSchedule) -> float:
    """Distance between the centroids of moving and fixed constrained nodes."""
    R = definition.constraint_matrix
    d = definition.dimension
    moving_rows = np.flatnonzero(np.any(loads.rate_values != 0.0, axis=0))
    coords = definition.node_coords()

    def nodes_of(rows):
        return {int(c) // d for r in rows for c in np.flatnonzero(R[r])}

    moving = nodes_of(moving_rows)
    fixed = nodes_of(range(R.shape[0])) - moving
    if not moving or not fixed:
        return 1.0
    span = float(
        np.linalg.norm(
            coords[sorted(moving)].mean(axis=0) - coords[sorted(fixed)].mean(axis=0)
        )
    )
    return span if span > 0 else 1.0


class CurveFold:
    """A sink for an integrator's states that keeps the curve row of each,
    ``(time, strain, sigma11, sigma22, sigma12)``.

    The stress components of :func:`total_stress` are linear in the
    stresses: each is one product of the stacked stresses with the spring
    weights ``L_i D_ia D_ib / V``.  The fold holds the stresses of at most
    ``STACKED_ROWS`` states, and takes one product per group ``[0:32],
    [32:64], ...`` of the states in the order they come: the same products
    however the states reach it.  :func:`stress_strain_curve` reads it.
    """

    def __init__(self, system: AssembledSystem, loads: LoadSchedule, volume: float):
        if not volume > 0:
            raise InvalidInputError("volume must be positive")
        D = system.directions
        pairs = ((0, 0), (1, 1), (0, 1)) if system.dims.dimension >= 2 else ((0, 0),)
        self._weights = np.column_stack([system.reference_lengths * D[:, a] * D[:, b] for a, b in pairs]) / volume
        self.system, self.loads, self.volume = system, loads, volume
        self._strain = _strain_map(loads, system.definition)
        self._times, self._stresses = [], []  # of the group being filled
        self._groups = []  # the rows of each full group

    def append(self, state) -> None:
        self._times.append(state.time)
        self._stresses.append(state.sigma)
        if len(self._times) == STACKED_ROWS:
            self._groups.append(self._rows())
            self._times, self._stresses = [], []

    def __len__(self) -> int:
        return STACKED_ROWS * len(self._groups) + len(self._times)

    def _rows(self) -> np.ndarray:
        """The curve rows of the group being filled; a 1-D lattice's
        sigma22 and sigma12 are 0."""
        times = np.array(self._times)
        components = np.array(self._stresses) @ self._weights
        rows = np.zeros((times.size, 5))
        rows[:, 0] = times
        rows[:, 1] = self._strain(times)
        rows[:, 2 : 2 + components.shape[1]] = components
        return rows

    def curve(self) -> dict[str, np.ndarray]:
        """The curve of the states so far, by column."""
        rows = np.vstack(self._groups + ([self._rows()] if self._times else []))
        return {key: rows[:, i] for i, key in enumerate(CURVE_HEADER.split(","))}


def stress_strain_curve(
    traj: Trajectory,
    system: AssembledSystem,
    loads: LoadSchedule,
    volume: float,
) -> dict[str, np.ndarray]:
    """Sampled (time, strain, total-stress components) along a trajectory.

    The states pass through a :class:`CurveFold`, which takes its products
    ``STACKED_ROWS`` states at a time, so that no copy of all the stresses
    is held at once.  A trajectory whose states went into a fold as they
    were made, as the CLI runs, is read from that fold, which must have been
    made for the same system, loads and volume.
    """
    fold = traj.states
    if not isinstance(fold, CurveFold):
        fold = CurveFold(system, loads, volume)
        for state in traj.states:
            fold.append(state)
    elif not (fold.system is system and fold.loads is loads and fold.volume == volume):
        raise InvalidInputError("the trajectory's states were folded for another system, loads or volume")
    return fold.curve()


@dataclass(frozen=True)
class AnalysisReport:
    label: str
    stiffness: float
    first_event_time: float | None
    yield_strength: float | None
    tensile_strength: float
    curve: dict
    event_histogram: tuple[np.ndarray, np.ndarray]

    def to_text(self) -> str:
        counts, edges = self.event_histogram
        lines = [
            f"label = {self.label}",
            f"stiffness = {_fmt(self.stiffness)}",
            f"first_event_time = {_fmt(self.first_event_time)}",
            f"yield_strength = {_fmt(self.yield_strength)}",
            f"tensile_strength = {_fmt(self.tensile_strength)}",
            "histogram_bin_edges = " + " ".join(_fmt(e) for e in edges),
            "histogram_counts = " + " ".join(str(int(c)) for c in counts),
        ]
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if v is None:
        return "undefined"
    return repr(float(v))


def _interp(times: np.ndarray, values: np.ndarray, t: float) -> float:
    return float(np.interp(t, times, values))


def metrics_from_curve(
    times: np.ndarray,
    strains: np.ndarray,
    s11: np.ndarray,
    event_times: np.ndarray,
    horizon: float,
    bins: int = 20,
    label: str = "",
    curve: dict | None = None,
) -> AnalysisReport:
    """Macroscopic metrics from sampled stress-strain data and event times.

    Stiffness is the pre-first-event slope of the loading-direction stress
    over time; the yield strength comes from the conventional 0.2%
    strain-offset construction, interpolated linearly between samples.
    """
    times = np.asarray(times, dtype=float)
    strains = np.asarray(strains, dtype=float)
    s11 = np.asarray(s11, dtype=float)
    event_times = np.asarray(event_times, dtype=float)

    t1 = float(event_times.min()) if event_times.size else None
    t_slope = t1 if t1 is not None else float(times[-1])
    if t_slope <= 0:
        raise DegenerateMetricsError("no elastic ramp before the first event")
    ds11 = _interp(times, s11, t_slope) - s11[0]
    if event_times.size == 0 and ds11 == 0.0:
        raise DegenerateMetricsError("trajectory has no events and zero slope")
    stiffness = ds11 / t_slope

    dstrain = _interp(times, strains, t_slope) - strains[0]
    yield_strength = None
    if dstrain > 0 and event_times.size:
        slope_strain = ds11 / dstrain
        offset_line = s11[0] + slope_strain * (strains - strains[0] - YIELD_OFFSET)
        gap = s11 - offset_line
        beyond = strains > strains[0] + YIELD_OFFSET
        crossing = np.flatnonzero(beyond & (gap <= 0.0))
        if crossing.size:
            i = int(crossing[0])
            if i > 0 and gap[i - 1] > 0:
                w = gap[i - 1] / (gap[i - 1] - gap[i])
                yield_strength = float((1 - w) * s11[i - 1] + w * s11[i])
            else:
                yield_strength = float(s11[i])

    counts, edges = np.histogram(event_times, bins=bins, range=(0.0, horizon))
    return AnalysisReport(
        label=label,
        stiffness=float(stiffness),
        first_event_time=t1,
        yield_strength=yield_strength,
        tensile_strength=float(s11[-1]),
        curve=curve if curve is not None else {"time": times, "strain": strains, "sigma11": s11},
        event_histogram=(counts, edges),
    )


def macro_metrics(
    traj: Trajectory,
    system: AssembledSystem,
    loads: LoadSchedule,
    volume: float,
    bins: int = 20,
    label: str | None = None,
) -> AnalysisReport:
    """Stiffness, yield and tensile strength, and event histogram of a run."""
    curve = stress_strain_curve(traj, system, loads, volume)
    event_times = np.array(
        [e.time for e in traj.events for _ in e.newly_active], dtype=float
    )
    return metrics_from_curve(
        curve["time"],
        curve["strain"],
        curve["sigma11"],
        event_times,
        horizon=loads.horizon,
        bins=bins,
        label=label if label is not None else system.definition.label,
        curve=curve,
    )


CURVE_HEADER = "time,strain,sigma11,sigma22,sigma12"
EVENTS_HEADER = "event,time,spring,side"


def write_curve_csv(path, curve: dict) -> None:
    """Write the curve ``STACKED_ROWS`` rows at a time; ``repr`` of a float
    is its shortest round-trip form."""
    columns = [curve[key] for key in CURVE_HEADER.split(",")]
    with _open_text(path) as fh:
        fh.write(CURVE_HEADER + "\n")
        for k in range(0, len(columns[0]), STACKED_ROWS):
            rows = np.column_stack([column[k : k + STACKED_ROWS] for column in columns]).tolist()
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def write_events_csv(path, events) -> None:
    rows = [EVENTS_HEADER]
    for e in events:
        for spring, side in sorted(e.newly_active):
            rows.append(f"{e.index},{_fmt(e.time)},{spring},{side}")
    _write_text(path, "\n".join(rows) + "\n")


def write_report(path, report: AnalysisReport) -> None:
    _write_text(path, report.to_text())


def read_curve_csv(path) -> dict[str, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CURVE_HEADER:
            raise InvalidInputError(f"unexpected curve header: {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        raise InvalidInputError("curve file has no rows")
    keys = CURVE_HEADER.split(",")
    return {key: data[:, i] for i, key in enumerate(keys)}


def read_events_csv(path) -> np.ndarray:
    """Event times, one entry per yielded (spring, side) pair."""
    times = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != EVENTS_HEADER:
            raise InvalidInputError(f"unexpected events header: {header!r}")
        for line in fh:
            line = line.strip()
            if line:
                times.append(float(line.split(",")[1]))
    return np.array(times)


def _open_text(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_text(path, text: str) -> None:
    with _open_text(path) as fh:
        fh.write(text)
