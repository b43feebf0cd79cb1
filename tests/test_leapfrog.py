import dataclasses
import sys

import numpy as np
import pytest

from latsweep.catchup import TimePartition, catchup
from latsweep.errors import InvalidStateError, UnsupportedLoadError
from latsweep.generators import (
    build_example1,
    build_tri_grid_with_hole,
    build_triangular_periodic,
    example1_prestressed_stress,
)
from latsweep.lattice import LatticeDefinition, LoadSchedule
from latsweep.leapfrog import event_velocity, leapfrog, tangent_cone
from latsweep import projection
from latsweep.linalg import nullspace_basis
from latsweep.projection import project, project_cone
from latsweep.sweeping import Space, build_moving_set, initial_state
from latsweep.assembly import assemble, validate_assumptions

from helpers import (
    box_offset,
    coordinates_of,
    full_form_cone,
    full_form_rows,
    moving_set_at,
    next_event_time,
    relabel_springs,
)


@pytest.fixture(scope="module")
def chain_1d():
    """Two pinned nodes joined by one spring: a 1-dimensional moving set."""
    definition = LatticeDefinition(
        incidence=np.array([[1.0], [-1.0]]),
        reference_coords=np.array([0.0, 1.0]),
        dimension=1,
        stiffness=np.ones(1),
        lower_limits=-np.ones(1),
        upper_limits=np.ones(1),
        constraint_matrix=np.eye(2),
    )
    return definition, assemble(definition)


def test_next_event_time_ratio(chain_1d):
    _, system = chain_1d
    for space in (Space.FULL, Space.REDUCED):
        spec = build_moving_set(system, space)
        z = np.zeros(1)
        zdot = np.array([2.0]) / system.V_basis[0, 0]
        assert next_event_time(spec, z, zdot) == pytest.approx(0.5, abs=1e-12)
        assert next_event_time(spec, z, -zdot) == pytest.approx(0.5, abs=1e-12)
    spec = build_moving_set(system, Space.FULL)
    assert next_event_time(spec, np.zeros(1), np.zeros(1)) is None


def test_tangent_cone_interior(example1):
    _, loads, system = example1
    for space in Space:
        spec = build_moving_set(system, space, loads)
        # every bound opened: the cone is the whole plane
        cone = tangent_cone(spec, np.zeros(2))
        assert np.all(cone.b == np.inf) and np.all(cone.lower == -np.inf)
        assert cone.A is system.V_basis and cone.A_eq is None


def test_tangent_cone_on_upper_bound(example1):
    definition, loads, system = example1
    # scale a self-stress direction until its tightest springs touch their
    # upper bounds (the point must stay on the self-stress plane)
    v = system.V_basis[:, 0]
    box_lower = definition.lower_limits / definition.stiffness
    box_upper = definition.upper_limits / definition.stiffness
    ratios = np.abs(v) / np.where(v >= 0, box_upper, -box_lower)
    j = int(np.argmax(ratios))
    y = np.array([1.0, 0.0]) / ratios[j]
    z = system.V_basis @ y
    on_upper = set(np.flatnonzero(np.abs(z - box_upper) <= 1e-9))
    on_lower = set(np.flatnonzero(np.abs(z - box_lower) <= 1e-9))
    assert len(on_upper) + len(on_lower) >= 1
    # the full form's cone at the spring vector: the same bounds
    full = full_form_cone(system, z, 0.0)
    for space in Space:
        spec = build_moving_set(system, space, loads)
        cone = tangent_cone(spec, y)
        # the set itself with its active bounds at 0 and the others opened
        assert cone.A is system.V_basis and cone.A_eq is None
        assert set(np.flatnonzero(cone.b == 0.0)) == on_upper
        assert set(np.flatnonzero(cone.lower == 0.0)) == on_lower
        assert np.all(np.isinf(cone.b[list(set(range(10)) - on_upper)]))
        assert np.all(np.isinf(cone.lower[list(set(range(10)) - on_lower)]))
        assert np.array_equal(cone.b, full.b) and np.array_equal(cone.lower, full.lower)


def test_tangent_cone_rejects_outside_point(example1):
    _, loads, system = example1
    spec = build_moving_set(system, Space.FULL, loads)
    # twice the self-stress direction that first touches a bound
    v = system.V_basis[:, 0]
    j = int(np.argmax(np.abs(v) / np.where(v >= 0, spec.box_upper, -spec.box_lower)))
    y = np.array([2.0, 0.0]) * (spec.box_upper[j] if v[j] >= 0 else spec.box_lower[j]) / v[j]
    with pytest.raises(InvalidStateError):
        tangent_cone(spec, y)
    # 0 lies on the plane; the box shifted so that 0 lies beyond spring 0's
    # upper bound only, then below its lower bound only
    assert spec.box_lower[0] < 0 < spec.box_upper[0]
    for bound in (spec.box_upper, spec.box_lower):
        offset = np.zeros(10)
        offset[0] = -2 * bound[0]
        with pytest.raises(InvalidStateError, match="violates the static set"):
            tangent_cone(spec, np.zeros(2), offset)


def test_event_velocity_interior_opposes_drive(example1):
    _, loads, system = example1
    for space in Space:
        spec = build_moving_set(system, space, loads)
        drive = spec.reduce(spec.offset_rate(loads, 0.0))
        zdot = event_velocity(spec, np.zeros(2), drive)
        assert np.allclose(zdot, -drive, atol=1e-12)


def test_event_velocity_halfplane_hand_case(chain_1d):
    # active upper bound admits only nonpositive motion: opposing drive is
    # cut to zero, receding drive passes through
    _, system = chain_1d
    spec = build_moving_set(system, Space.FULL)
    z = spec.reduce(spec.box_upper)
    down, up = spec.reduce(np.array([-1.0])), spec.reduce(np.array([1.0]))
    assert np.allclose(event_velocity(spec, z, down), 0.0, atol=1e-12)
    assert np.allclose(event_velocity(spec, z, up), down, atol=1e-12)


def test_event_velocity_tangential_component():
    # 2-d hand KKT: projecting (2, -1) onto {x1 <= 0} keeps the tangential part
    from latsweep.projection import PolyhedralSet, project_cone

    cone = PolyhedralSet(A=np.array([[1.0, 0.0]]), b=np.zeros(1))
    res = project_cone(np.ones(2), np.array([2.0, -1.0]), cone)
    assert np.allclose(res.point, [0.0, -1.0], atol=1e-12)


def test_example1_zero_init_events(example1):
    _, loads, system = example1
    for space in (Space.FULL, Space.REDUCED):
        spec = build_moving_set(system, space, loads)
        state0 = initial_state(system, np.zeros(10), loads, space, spec)
        traj = leapfrog(system, spec, state0, loads)
        times = [e.time for e in traj.events]
        assert len(times) == 2
        assert times[0] == pytest.approx(0.042, abs=1e-3)
        assert times[1] == pytest.approx(0.055, abs=1e-3)
        assert traj.events[0].newly_active == {(0, "upper"), (1, "upper")}
        assert traj.events[1].newly_active == {(2, "lower"), (3, "lower")}


def test_example1_prestressed_events_and_release(example1):
    _, loads, system = example1
    sigma0 = example1_prestressed_stress()
    for space in (Space.FULL, Space.REDUCED):
        spec = build_moving_set(system, space, loads)
        state0 = initial_state(system, sigma0, loads, space, spec)
        traj = leapfrog(system, spec, state0, loads)
        times = [e.time for e in traj.events]
        assert times == pytest.approx([0.027, 0.046, 0.064], abs=1e-3)
        assert traj.events[0].newly_active == {(4, "upper"), (5, "upper")}
        assert traj.events[1].newly_released == {(4, "upper"), (5, "upper")}


def test_zero_drive_stabilizes_immediately(example1):
    definition, _, system = example1
    loads = LoadSchedule.constant_rate(
        displacement_offset=-definition.constraint_matrix @ definition.reference_coords,
        rate=np.zeros(4),
        horizon=0.05,
    )
    spec = build_moving_set(system, Space.FULL, loads)
    state0 = initial_state(system, np.zeros(10), loads, Space.FULL, spec)
    traj = leapfrog(system, spec, state0, loads)
    assert traj.events == []
    assert np.allclose(traj.final.sigma, 0.0)


def test_affine_between_events(example1):
    # cutting the horizon mid-slide must land exactly on the interpolated path
    _, loads, system = example1
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(10), loads, Space.REDUCED, spec)
    full = leapfrog(system, spec, state0, loads)
    t_mid = 0.5 * (full.events[0].time + full.events[1].time)
    cut = leapfrog(system, spec, state0, loads, horizon=t_mid)
    expected = 0.5 * (full.events[0].sigma + full.sigma_at(full.events[1].time))
    assert np.abs(cut.final.sigma - full.sigma_at(t_mid)).max() <= 1e-12
    assert np.abs(cut.final.sigma - expected).max() <= 1e-10


def test_termination_velocity_in_normal_cone(example1):
    # after stabilization the drive must lie in the normal cone: the
    # variational inequality holds against feasible probes
    _, loads, system = example1
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(10), loads, Space.REDUCED, spec)
    traj = leapfrog(system, spec, state0, loads)
    t_end = loads.horizon
    poly = moving_set_at(spec, t_end, loads)
    y_end = traj.final.y
    drive = spec.reduce(spec.offset_rate(loads, t_end))
    S = np.eye(system.dims.dim_v)
    rng = np.random.default_rng(17)
    for _ in range(50):
        c = project(S, y_end + rng.standard_normal(2) * 1e-3, poly).point
        # -drive in the normal cone: (-drive)^T S (c - y) <= 0 for members c
        assert -(drive @ S @ (c - y_end)) <= 1e-12


def test_relative_velocity_recorded(example1):
    _, loads, system = example1
    spec = build_moving_set(system, Space.FULL, loads)
    state0 = initial_state(system, np.zeros(10), loads, Space.FULL, spec)
    traj = leapfrog(system, spec, state0, loads)
    drive = spec.offset_rate(loads, 0.0)
    assert np.allclose(traj.events[0].relative_velocity, -drive, atol=1e-12)


def test_requires_constant_force(example1):
    definition, loads, system = example1
    varying = LoadSchedule(
        displacement_offset=loads.displacement_offset,
        rate_times=loads.rate_times,
        rate_values=loads.rate_values,
        horizon=loads.horizon,
        force_times=np.array([0.0, loads.horizon]),
        force_values=np.vstack([np.zeros(12), np.ones(12) * 1e-9]),
    )
    spec = build_moving_set(system, Space.FULL, varying)
    state0 = initial_state(system, np.zeros(10), varying, Space.FULL, spec)
    with pytest.raises(UnsupportedLoadError):
        leapfrog(system, spec, state0, varying)


def test_piecewise_constant_rates_run_segmentwise(example1):
    # stretch, hold, then unload; leapfrog must agree with catch-up
    definition, base, system = example1
    rate = base.rate_values[0]
    loads = LoadSchedule(
        displacement_offset=base.displacement_offset,
        rate_times=np.array([0.0, 0.05, 0.06]),
        rate_values=np.vstack([rate, 0.0 * rate, -rate]),
        horizon=0.08,
    )
    for space in (Space.FULL, Space.REDUCED):
        spec = build_moving_set(system, space, loads)
        state0 = initial_state(system, np.zeros(10), loads, space, spec)
        lf = leapfrog(system, spec, state0, loads)
        cu = catchup(system, spec, state0, loads, TimePartition.uniform(0.08, 1600))
        assert np.abs(lf.final.sigma - cu.final.sigma).max() <= 1e-6
        # unloading after the hold re-enters the elastic regime
        held = lf.sigma_at(0.06)
        assert np.abs(lf.final.sigma - held).max() > 1e-5


@pytest.mark.parametrize(
    "rate_times", [[0.0], [0.0, 0.05, 0.06]], ids=["one-segment", "stretch-hold-unload"]
)
def test_constant_force_matches_catchup(example1, rate_times):
    # Under a force the box leaves the plane by the force shift -F f, the
    # set leapfrog's frame holds fixed; starting from sigma0 = K F f0, the
    # stress that balances the force, leapfrog must meet catch-up's events
    # and final stresses, on one rate segment and across three.
    definition, base, system = example1
    f0 = np.zeros(definition.n_dof)
    f0[:8] = 2e-4 * np.random.default_rng(1).standard_normal(8)
    rate = base.rate_values[0]
    loads = LoadSchedule(
        displacement_offset=base.displacement_offset,
        rate_times=np.array(rate_times),
        rate_values=np.vstack([rate, 0.0 * rate, -rate])[: len(rate_times)],
        horizon=0.08,
        force_times=np.array([0.0, 0.08]),
        force_values=np.vstack([f0, f0]),
    )
    sigma0 = system.stiffness * (system.F @ f0)
    width = definition.upper_limits - definition.lower_limits
    for space in (Space.FULL, Space.REDUCED):
        spec = build_moving_set(system, space, loads)
        state0 = initial_state(system, sigma0, loads, space, spec)
        lf = leapfrog(system, spec, state0, loads)
        cu = catchup(system, spec, state0, loads, TimePartition.uniform(0.08, 1600))
        assert lf.events
        assert [(e.newly_active, e.newly_released) for e in lf.events] == [
            (e.newly_active, e.newly_released) for e in cu.events
        ]
        assert np.all(np.abs(lf.final.sigma - cu.final.sigma) <= 1e-9 * width)


def test_event_sigma_on_bounds(example1):
    definition, loads, system = example1
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(10), loads, Space.REDUCED, spec)
    traj = leapfrog(system, spec, state0, loads)
    times = [e.time for e in traj.events]
    assert all(b > a for a, b in zip(times, times[1:]))
    for event in traj.events:
        for j, side in event.newly_active:
            bound = definition.upper_limits[j] if side == "upper" else definition.lower_limits[j]
            assert event.sigma[j] == pytest.approx(bound, abs=1e-9)


def _run_leapfrog(system, loads, space):
    spec = build_moving_set(system, space, loads)
    state0 = initial_state(system, np.zeros(system.dims.n_springs), loads, space, spec)
    return leapfrog(system, spec, state0, loads)


def test_relabelled_periodic_12x12_matches_original_events():
    # This spring numbering of the 12x12 patch once ran the event-velocity
    # projection into its iteration cap; the event sets must not depend on
    # the numbering.
    definition, loads = build_triangular_periodic(12, 12)
    perm = np.random.default_rng(2).permutation(definition.n_springs)
    assert perm.size == 432
    systems = assemble(definition), assemble(relabel_springs(definition, perm))
    for space in (Space.REDUCED, Space.FULL):
        original, permuted = (_run_leapfrog(system, loads, space) for system in systems)
        assert len(permuted.events) == len(original.events) >= 2
        for a, b in zip(original.events, permuted.events):
            assert b.time == pytest.approx(a.time, rel=1e-9)
            assert {(int(perm[j]), side) for j, side in b.newly_active} == a.newly_active
            assert {(int(perm[j]), side) for j, side in b.newly_released} == a.newly_released


@pytest.mark.parametrize("network", ["periodic_8x8", "grid_with_hole"])
def test_event_velocity_full_equals_reduced(network, request, monkeypatch):
    # At every event the velocity of the solve in V, seen through V, is the
    # projection onto the full form's cone, the box's active bounds with the
    # plane as equality rows U^T K in the stiffness weight (relative to the
    # drive: the velocity itself vanishes once the stresses stabilize).  That
    # reference whitens by its own SVD of U^T K, not by assembly's V.
    _, loads, system = request.getfixturevalue(network)
    reduced = build_moving_set(system, Space.REDUCED, loads)
    traj = _run_leapfrog(system, loads, Space.REDUCED)
    assert traj.events
    rows = full_form_rows(system)
    kernels = []

    def counted(M):
        kernels.append(M is rows)
        return nullspace_basis(M)

    monkeypatch.setattr(projection, "nullspace_basis", counted)
    for event in traj.events:
        y = next(s.y for s in traj.states if s.time == event.time)
        offset = box_offset(reduced, loads, event.time)
        rate = reduced.offset_rate(loads, event.time)
        v_red = event_velocity(reduced, y, reduced.reduce(rate), offset=offset)
        cone = full_form_cone(system, reduced.lift(y), offset, rows)
        v_full = project_cone(system.stiffness, -rate, cone).point
        gap = np.linalg.norm(v_full - system.V_basis @ v_red)
        assert gap <= 1e-12 * np.linalg.norm(rate)
    assert kernels == [True] * len(traj.events)


def test_event_velocity_carried_over_between_events(periodic_8x8, monkeypatch):
    # The velocity after a jump is the next step's velocity: one cone
    # projection per event plus one per segment (2 events: 3, not 5).  Each
    # carried velocity must equal a fresh projection at the event state.
    _, loads, system = periodic_8x8
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return project_cone(*args, **kwargs)

    for space in (Space.REDUCED, Space.FULL):
        spec = build_moving_set(system, space, loads)
        calls.clear()
        monkeypatch.setattr(sys.modules["latsweep.leapfrog"], "project_cone", counted)
        traj = _run_leapfrog(system, loads, space)
        monkeypatch.undo()
        assert len(traj.events) == 2 and len(calls) == 3
        drive = spec.reduce(spec.offset_rate(loads, 0.0))
        starts = [traj.states[0]] + [
            next(s for s in traj.states if s.time == e.time) for e in traj.events
        ]
        # states and velocities as their space reports them; fresh ones
        # from the coordinates in V
        for event, start in zip(traj.events, starts):
            y = coordinates_of(spec, start.y)
            fresh = spec.view(event_velocity(spec, y, drive, offset=box_offset(spec, loads, start.time)))
            gap = np.linalg.norm(event.relative_velocity - fresh)
            assert gap <= 1e-12 * np.linalg.norm(drive)
        # after the last event the point moves with the set plus the carried
        # relative velocity up to the horizon
        last = starts[-1]
        y = coordinates_of(spec, last.y)
        fresh = event_velocity(spec, y, drive, offset=box_offset(spec, loads, last.time))
        expected = last.y + spec.view(fresh + drive) * (traj.final.time - last.time)
        assert np.linalg.norm(traj.final.y - expected) <= 1e-12 * (1 + np.linalg.norm(expected))


def test_whitened_bound_map_is_a_view_of_the_basis(periodic_8x8, monkeypatch):
    # A tangent cone is the moving set's own map with bounds of 0 or
    # infinity, and the moving set's whitening is the identity, so every
    # whitened map a leapfrog or catch-up run reads, in either space, is a
    # read-only view of assembly's V: no product and no copy.
    _, loads, system = periodic_8x8
    whitened, cones = [], []
    rows_of = projection.Whitening.rows

    def recorded_rows(white, rows):
        M = rows_of(white, rows)
        whitened.append(M)
        return M

    def counted_cone(*args, **kwargs):
        cones.append(args)
        return project_cone(*args, **kwargs)

    monkeypatch.setattr(projection.Whitening, "rows", recorded_rows)
    monkeypatch.setattr(sys.modules["latsweep.leapfrog"], "project_cone", counted_cone)
    for space in (Space.REDUCED, Space.FULL):
        spec = build_moving_set(system, space, loads)
        state0 = initial_state(system, np.zeros(system.dims.n_springs), loads, space, spec)
        cone = tangent_cone(spec, coordinates_of(spec, state0.y), box_offset(spec, loads, 0.0))
        assert cone.A is system.V_basis and cone.A_eq is None
        whitened.clear()
        cones.clear()
        leapfrog(system, spec, state0, loads)
        assert len(cones) == 3 and whitened
        read = len(whitened)
        catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 10))
        assert len(whitened) > read
        for M in whitened:
            assert np.shares_memory(M, system.V_basis) and not M.flags.writeable


def test_leapfrog_takes_no_phase_one_and_no_scipy_solver(example1, periodic_8x8, monkeypatch):
    # Each event velocity starts at its cone's apex, which lies in the cone:
    # leapfrog runs no phase 1 and no scipy.optimize solver in either space,
    # whether it is looked up in scipy.optimize or imported by name.
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("leapfrog called phase 1 or a scipy.optimize solver")

    for name in dir(scipy.optimize):
        obj = getattr(scipy.optimize, name)
        if not name.startswith("_") and callable(obj) and not isinstance(obj, type):
            monkeypatch.setattr(scipy.optimize, name, refuse)
    for module in [m for name, m in sys.modules.items() if name.startswith("latsweep.")]:
        for name, obj in list(vars(module).items()):
            solver = (getattr(obj, "__module__", None) or "").startswith("scipy.optimize")
            if solver or obj is projection.find_feasible_point:
                monkeypatch.setattr(module, name, refuse)
    for network in (example1, periodic_8x8):
        _, loads, system = network
        for space in (Space.REDUCED, Space.FULL):
            assert len(_run_leapfrog(system, loads, space).events) >= 2


def test_grid_leapfrog_full_space_takes_no_nullspace(grid_with_hole, monkeypatch):
    # The full space reports the solve in assembly's basis V of the plane:
    # no projection takes a kernel of the equality rows by an SVD.
    _, loads, system = grid_with_hole
    kernels = []

    def counted(M):
        kernels.append(M.shape)
        return nullspace_basis(M)

    monkeypatch.setattr(projection, "nullspace_basis", counted)
    traj = _run_leapfrog(system, loads, Space.FULL)
    assert len(traj.events) >= 3
    assert len(kernels) == 0


def test_spaces_agree_at_high_stiffness_contrast():
    # Stiffness over six decades: with a K-orthonormal V the two spaces'
    # event times agree to 2e-15.  A Euclidean-orthonormal V, with its
    # coordinate map from a Cholesky factor of the ill-conditioned V^T K V,
    # kept them 7e-11 apart, and an LU solve for that map 5e-9 apart.
    # The limits scale with k, so the yield strains are the grid's own.
    definition, loads = build_tri_grid_with_hole()
    k = 10 ** np.random.default_rng(11).uniform(-3, 3, definition.n_springs)
    scale = k / definition.stiffness
    definition = dataclasses.replace(
        definition,
        stiffness=k,
        lower_limits=definition.lower_limits * scale,
        upper_limits=definition.upper_limits * scale,
    )
    system = assemble(definition)
    full, reduced = (_run_leapfrog(system, loads, space) for space in (Space.FULL, Space.REDUCED))
    assert len(full.events) == len(reduced.events) >= 5
    for a, b in zip(full.events, reduced.events):
        assert a.newly_active == b.newly_active
        assert a.newly_released == b.newly_released
        assert abs(a.time - b.time) <= 2e-10 * b.time


def _mirror_pair_case(case):
    """Example1 with springs 0 and 1, mirror images, kept symmetric, and a
    stiffness or a constrained node moved: each lattice validates."""
    definition, loads = build_example1()
    if case == "node 5 at x = 0.5":
        coords = definition.reference_coords.copy()
        coords[10] = 0.5
        return dataclasses.replace(definition, reference_coords=coords), loads
    spring, k = {"spring 7 at k = 0.5": (7, 0.5), "spring 4 at k = 0.9": (4, 0.9)}[case]
    stiffness = definition.stiffness.copy()
    stiffness[spring] = k
    return dataclasses.replace(definition, stiffness=stiffness), loads


@pytest.mark.parametrize("case", ["spring 7 at k = 0.5", "spring 4 at k = 0.9", "node 5 at x = 0.5"])
def test_mirror_image_springs_give_one_event_set_in_both_solvers(case):
    # Springs 0 and 1 reach their upper bounds together, and their rows of V
    # agree up to rounding: the working set's singular value of rounding
    # size must be cut, not inverted.  Kept, it made leapfrog miss its KKT
    # conditions and catch-up flicker on those bounds, its event count
    # doubling with each halving of the mesh.
    definition, loads = _mirror_pair_case(case)
    assert validate_assumptions(definition).kinematically_determinate
    system = assemble(definition)
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, Space.REDUCED, spec)
    lf = leapfrog(system, spec, state0, loads)
    expected = [(e.newly_active, e.newly_released) for e in lf.events]
    assert len(expected) == 2 and expected[0][0] == {(0, "upper"), (1, "upper")}
    width = definition.upper_limits - definition.lower_limits
    for steps in (2000, 4000, 8000):
        cu = catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, steps))
        assert [(e.newly_active, e.newly_released) for e in cu.events] == expected
        mesh = loads.horizon / steps
        assert all(abs(c.time - e.time) <= mesh for c, e in zip(cu.events, lf.events))
        assert np.all(np.abs(cu.final.sigma - lf.final.sigma) <= 1e-9 * width)
