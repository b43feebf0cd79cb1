from types import SimpleNamespace

import numpy as np
import pytest

from latsweep.analysis import (
    AnalysisReport,
    CurveFold,
    macro_metrics,
    read_curve_csv,
    read_events_csv,
    stress_strain_curve,
    total_stress,
    write_curve_csv,
    write_events_csv,
    write_report,
    strain_series,
)
from latsweep.catchup import TimePartition, catchup
from latsweep.errors import DegenerateMetricsError, InvalidInputError
from latsweep.generators import build_triangular_periodic
from latsweep.lattice import LoadSchedule
from latsweep.assembly import assemble
from latsweep.leapfrog import leapfrog
from latsweep.sweeping import Space, build_moving_set, initial_state
from latsweep.trajectory import STACKED_ROWS


def run_periodic(space=Space.REDUCED, solver="leapfrog", cells=(4, 4), **kwargs):
    definition, loads = build_triangular_periodic(*cells, **kwargs)
    system = assemble(definition)
    spec = build_moving_set(system, space, loads)
    state0 = initial_state(system, np.zeros(system.dims.n_springs), loads, space, spec)
    if solver == "leapfrog":
        traj = leapfrog(system, spec, state0, loads)
    else:
        traj = catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 400))
    return definition, loads, system, traj


def test_total_stress_zero():
    stub = SimpleNamespace(
        directions=np.array([[1.0, 0.0]]), reference_lengths=np.ones(1)
    )
    assert np.allclose(total_stress(stub, np.zeros(1), 1.0), 0.0)


def test_total_stress_single_horizontal_spring():
    stub = SimpleNamespace(
        directions=np.array([[-1.0, 0.0]]), reference_lengths=np.ones(1)
    )
    st = total_stress(stub, np.ones(1), 1.0)
    assert np.allclose(st, [[1.0, 0.0], [0.0, 0.0]])


def test_total_stress_requires_positive_volume():
    stub = SimpleNamespace(directions=np.eye(2), reference_lengths=np.ones(2))
    with pytest.raises(InvalidInputError):
        total_stress(stub, np.ones(2), 0.0)


def test_total_stress_symmetry_and_linearity(periodic_patch):
    _, _, system = periodic_patch
    rng = np.random.default_rng(5)
    m = system.dims.n_springs
    for _ in range(20):
        s1 = rng.standard_normal(m)
        s2 = rng.standard_normal(m)
        a, b = rng.standard_normal(2)
        t1 = total_stress(system, s1, 2.0)
        t2 = total_stress(system, s2, 2.0)
        combined = total_stress(system, a * s1 + b * s2, 2.0)
        scale = max(np.abs(t1).max(), 1e-30)
        assert np.abs(t1 - t1.T).max() <= 1e-12 * scale
        assert np.abs(combined - (a * t1 + b * t2)).max() <= 1e-12 * max(
            np.abs(combined).max(), 1e-30
        )


def test_poisson_coupling_under_periodic_constraint():
    definition, loads, system, traj = run_periodic()
    st = total_stress(system, traj.final.sigma, definition.volume)
    assert st[0, 0] > 0
    assert st[1, 1] > 0  # lateral contraction blocked by periodicity


def test_macro_metrics_identity_and_slope():
    definition, loads, system, traj = run_periodic()
    report = macro_metrics(traj, system, loads, definition.volume)
    t1 = report.first_event_time
    assert t1 is not None and t1 > 0
    curve = stress_strain_curve(traj, system, loads, definition.volume)
    s11_t1 = float(np.interp(t1, curve["time"], curve["sigma11"]))
    assert report.stiffness * t1 == pytest.approx(s11_t1, rel=1e-14)
    # uniform triangular net, restricted lateral strain: slope lambda + 2 mu
    analytic = 3 * np.sqrt(3) / 4
    assert report.stiffness == pytest.approx(analytic, rel=1e-9)
    assert report.tensile_strength == pytest.approx(
        float(curve["sigma11"][-1]), rel=1e-14
    )


def test_macro_metrics_yield_strength_bracket():
    definition, loads, system, traj = run_periodic()
    report = macro_metrics(traj, system, loads, definition.volume)
    assert report.yield_strength is not None
    # the 0.2%-offset yield sits between the first-yield stress and the
    # tensile strength
    curve = stress_strain_curve(traj, system, loads, definition.volume)
    s11_t1 = float(np.interp(report.first_event_time, curve["time"], curve["sigma11"]))
    assert s11_t1 <= report.yield_strength <= report.tensile_strength + 1e-15


def test_macro_metrics_purely_elastic_run():
    definition, loads, system, traj = run_periodic(yield_limit=1.0)
    assert not traj.events
    report = macro_metrics(traj, system, loads, definition.volume)
    assert report.yield_strength is None
    assert report.first_event_time is None
    assert report.stiffness == pytest.approx(3 * np.sqrt(3) / 4, rel=1e-9)


def test_macro_metrics_degenerate():
    definition, loads, system, traj = run_periodic(yield_limit=1.0, strain_rate=0.0)
    with pytest.raises(DegenerateMetricsError):
        macro_metrics(traj, system, loads, definition.volume)


def test_solver_cross_metrics_agree():
    definition, loads, system, lf_traj = run_periodic(solver="leapfrog")
    _, _, _, cu_traj = run_periodic(solver="catchup")
    volume = definition.volume
    lf = macro_metrics(lf_traj, system, loads, volume)
    cu = macro_metrics(cu_traj, system, loads, volume)
    assert lf.stiffness == pytest.approx(cu.stiffness, rel=1e-4)
    assert lf.tensile_strength == pytest.approx(cu.tensile_strength, rel=1e-4)
    assert lf.yield_strength == pytest.approx(cu.yield_strength, rel=1e-4)
    assert lf.first_event_time == pytest.approx(cu.first_event_time, abs=1.1e-4)


def test_event_histogram_counts_spring_activations():
    definition, loads, system, traj = run_periodic()
    report = macro_metrics(traj, system, loads, definition.volume, bins=10)
    counts, edges = report.event_histogram
    assert len(counts) == 10 and len(edges) == 11
    total = sum(len(e.newly_active) for e in traj.events)
    assert counts.sum() == total


def test_csv_round_trip(tmp_path):
    definition, loads, system, traj = run_periodic()
    curve = stress_strain_curve(traj, system, loads, definition.volume)
    curve_path = tmp_path / "run.csv"
    events_path = tmp_path / "run.events.csv"
    write_curve_csv(curve_path, curve)
    write_events_csv(events_path, traj.events)
    back = read_curve_csv(curve_path)
    for key in ("time", "strain", "sigma11", "sigma22", "sigma12"):
        assert np.array_equal(back[key], curve[key])  # repr round-trips exactly
    times = read_events_csv(events_path)
    expected = [e.time for e in traj.events for _ in e.newly_active]
    assert np.array_equal(times, expected)


def test_report_text_format(tmp_path):
    definition, loads, system, traj = run_periodic()
    report = macro_metrics(traj, system, loads, definition.volume, label="patch")
    path = tmp_path / "report.txt"
    write_report(path, report)
    text = path.read_text()
    assert text.startswith("label = patch\n")
    assert "stiffness = " in text
    assert "histogram_counts = " in text


CURVE_KEYS = ("time", "strain", "sigma11", "sigma22", "sigma12")


def curve_by_groups(traj, system, loads, volume):
    """The curve of a trajectory that kept its states: the total-stress
    components as one product per ``STACKED_ROWS`` states, ``[0:32],
    [32:64], ...``, and the strains of all the times at once."""
    D = system.directions
    weights = np.column_stack([system.reference_lengths * D[:, a] * D[:, b] for a, b in ((0, 0), (1, 1), (0, 1))])
    weights /= volume
    states = traj.states
    components = np.vstack([
        np.array([state.sigma for state in states[k : k + STACKED_ROWS]]) @ weights
        for k in range(0, len(states), STACKED_ROWS)
    ])
    times = traj.times()
    strains = strain_series(times, loads, system.definition)
    return dict(zip(CURVE_KEYS, (times, strains, *components.T)))


def assert_same_bits(curve, expected):
    for key in CURVE_KEYS:
        assert curve[key].dtype == expected[key].dtype == np.float64, key
        assert curve[key].tobytes() == np.ascontiguousarray(expected[key]).tobytes(), key


def assert_same_events(events, expected):
    assert len(events) == len(expected)
    for a, b in zip(events, expected):
        assert (a.index, a.time, a.newly_active, a.newly_released) == (b.index, b.time, b.newly_active, b.newly_released)
        assert np.array_equal(a.sigma, b.sigma)


@pytest.mark.parametrize("space", list(Space))
@pytest.mark.parametrize("steps", [1, 31, 32, 33, 200])
def test_curve_fold_matches_stress_strain_curve_on_catchup(grid_with_hole, space, steps):
    # the states streamed into a fold as catch-up makes them give the curve
    # of the run that kept them, bit for bit: the same 32-state products
    # whether the groups end inside a run of catch-up's blocks or not
    definition, loads, system = grid_with_hole
    volume = definition.volume
    spec = build_moving_set(system, space, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
    part = TimePartition.uniform(loads.horizon, steps)
    kept = catchup(system, spec, state0, loads, part)
    fold = CurveFold(system, loads, volume)
    streamed = catchup(system, spec, state0, loads, part, states=fold)
    assert streamed.states is fold and len(fold) == len(kept.states) == steps + 1
    curve = stress_strain_curve(streamed, system, loads, volume)
    assert_same_bits(curve, stress_strain_curve(kept, system, loads, volume))
    assert_same_bits(curve, curve_by_groups(kept, system, loads, volume))
    assert_same_events(streamed.events, kept.events)


def test_curve_fold_matches_stress_strain_curve_when_leapfrog_collapses_a_time(example1):
    # a rate breakpoint 1e-15 of the horizon after the first arrival: the
    # arrival's state and the segment end's carry one time stamp, and the
    # later one replaces the earlier before any sink takes it
    definition, loads, system = example1
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, Space.REDUCED, spec)
    t1 = leapfrog(system, spec, state0, loads).events[0].time
    t_break = t1 + 1e-15 * loads.horizon
    assert t1 <= t_break - 1e-15 * loads.horizon and t_break <= t1 + 1e-15 * loads.horizon
    rate = loads.rate_values[0]
    stepped = LoadSchedule(
        displacement_offset=loads.displacement_offset,
        rate_times=np.array([0.0, t_break]),
        rate_values=np.vstack([rate, 2 * rate]),
        horizon=loads.horizon,
    )
    for space in Space:
        spec = build_moving_set(system, space, stepped)
        state0 = initial_state(system, np.zeros(definition.n_springs), stepped, space, spec)
        kept = leapfrog(system, spec, state0, stepped)
        # the arrival at t1 is an event, but its state gave way to the segment end's
        assert kept.events[0].time == t1 < t_break == kept.states[1].time
        assert t1 not in kept.times()
        assert np.all(np.diff(kept.times()) > 0)
        fold = CurveFold(system, stepped, definition.volume)
        streamed = leapfrog(system, spec, state0, stepped, states=fold)
        assert streamed.states is fold and len(fold) == len(kept.states)
        curve = stress_strain_curve(streamed, system, stepped, definition.volume)
        assert_same_bits(curve, stress_strain_curve(kept, system, stepped, definition.volume))
        assert_same_bits(curve, curve_by_groups(kept, system, stepped, definition.volume))
        assert_same_events(streamed.events, kept.events)


def test_stress_strain_curve_refuses_a_fold_made_for_another_volume(periodic_patch):
    definition, loads, system = periodic_patch
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, Space.REDUCED, spec)
    traj = leapfrog(system, spec, state0, loads, states=CurveFold(system, loads, definition.volume))
    assert stress_strain_curve(traj, system, loads, definition.volume)["time"].size == len(traj.states)
    with pytest.raises(InvalidInputError):
        stress_strain_curve(traj, system, loads, 2 * definition.volume)
    with pytest.raises(InvalidInputError):
        CurveFold(system, loads, 0.0)
