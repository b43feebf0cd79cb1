import numpy as np
import pytest

from latsweep.catchup import TimePartition, catchup
from latsweep.errors import InvalidStateError, UnsupportedLoadError
from latsweep.generators import example1_prestressed_stress
from latsweep.lattice import LatticeDefinition, LoadSchedule
from latsweep.leapfrog import event_velocity, leapfrog, next_event_time, tangent_cone
from latsweep.projection import project
from latsweep.sweeping import Space, build_moving_set, initial_state
from latsweep.assembly import assemble


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
        zdot = np.array([2.0]) / (spec.W[0, 0] if space is Space.REDUCED else 1.0)
        assert next_event_time(spec, z, zdot) == pytest.approx(0.5, abs=1e-12)
        assert next_event_time(spec, z, -zdot) == pytest.approx(0.5, abs=1e-12)
    spec = build_moving_set(system, Space.FULL)
    assert next_event_time(spec, np.zeros(1), np.zeros(1)) is None


def test_tangent_cone_interior(example1):
    _, loads, system = example1
    spec = build_moving_set(system, Space.FULL, loads)
    cone = tangent_cone(spec, np.zeros(10))
    assert cone.A.shape[0] == 0
    assert cone.A_eq.shape == (8, 10)
    reduced = build_moving_set(system, Space.REDUCED, loads)
    cone_v = tangent_cone(reduced, np.zeros(2))
    assert cone_v.A.shape[0] == 0 and cone_v.A_eq is None


def test_tangent_cone_on_upper_bound(example1):
    definition, loads, system = example1
    spec = build_moving_set(system, Space.FULL, loads)
    # scale a self-stress direction until its tightest springs touch their
    # upper bounds (the point must stay on the self-stress plane)
    v = system.V_basis[:, 0]
    ratios = np.abs(v) / np.where(v >= 0, spec.box_upper, -spec.box_lower)
    j = int(np.argmax(ratios))
    z = v / ratios[j]
    cone = tangent_cone(spec, z)
    on_upper = set(np.flatnonzero(np.abs(z - spec.box_upper) <= 1e-9))
    on_lower = set(np.flatnonzero(np.abs(z - spec.box_lower) <= 1e-9))
    assert len(on_upper) + len(on_lower) == cone.A.shape[0] >= 1
    seen = set()
    for row in cone.A:
        nz = int(np.flatnonzero(row)[0])
        assert np.count_nonzero(row) == 1
        assert row[nz] == (1.0 if nz in on_upper else -1.0)
        seen.add(nz)
    assert seen == on_upper | on_lower
    # the reduced cone at the same point: the full rows in the basis V
    reduced = build_moving_set(system, Space.REDUCED, loads)
    cone_v = tangent_cone(reduced, system.P_V @ z)
    assert np.array_equal(cone_v.A, cone.A @ system.V_basis)


def test_tangent_cone_rejects_outside_point(example1):
    _, loads, system = example1
    spec = build_moving_set(system, Space.FULL, loads)
    z = np.zeros(10)
    z[0] = spec.box_upper[0] * 2
    with pytest.raises(InvalidStateError):
        tangent_cone(spec, z)


def test_event_velocity_interior_opposes_drive(example1):
    _, loads, system = example1
    spec = build_moving_set(system, Space.FULL, loads)
    drive = spec.offset_rate(loads, 0.0)  # lives in the self-stress plane
    zdot = event_velocity(spec, np.zeros(10), drive)
    assert np.allclose(zdot, -drive, atol=1e-12)


def test_event_velocity_halfplane_hand_case(chain_1d):
    # active upper bound admits only nonpositive motion: opposing drive is
    # cut to zero, receding drive passes through
    _, system = chain_1d
    spec = build_moving_set(system, Space.FULL)
    z = spec.box_upper.copy()
    assert np.allclose(event_velocity(spec, z, np.array([-1.0])), 0.0, atol=1e-12)
    assert np.allclose(event_velocity(spec, z, np.array([1.0])), [-1.0], atol=1e-12)


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
    from latsweep.sweeping import moving_set_at

    poly = moving_set_at(spec, t_end, loads)
    y_end = traj.final.y
    drive = system.P_V @ spec.offset_rate(loads, t_end)
    S = system.S_V
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
