import numpy as np
import pytest

from latsweep import projection
from latsweep.assembly import assemble
from latsweep.catchup import TimePartition, abstract_catchup, catchup
from latsweep.errors import InvalidInputError, SafeLoadError
from latsweep.lattice import LoadSchedule
from latsweep.linalg import nullspace_basis
from latsweep.projection import PolyhedralSet
from latsweep.sweeping import Space, build_moving_set, initial_state

from helpers import relabel_springs


def test_partition_validation():
    with pytest.raises(InvalidInputError):
        TimePartition(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(InvalidInputError):
        TimePartition(np.array([0.1, 0.2]))
    part = TimePartition.uniform(1.0, 4)
    assert part.mesh == pytest.approx(0.25)


def test_abstract_interior_point_stays():
    box = PolyhedralSet(A=np.vstack([np.eye(2), -np.eye(2)]), b=np.ones(4))
    path = abstract_catchup(np.ones(2), lambda t: box, np.zeros(2), TimePartition.uniform(1.0, 10))
    assert np.allclose(path, 0.0)


def test_abstract_shrinking_interval_closed_form():
    # moving lower bound a(t) = t sweeps the point: x_i = max(x0, t_i)
    def provider(t):
        return PolyhedralSet(A=np.array([[-1.0], [1.0]]), b=np.array([-t, 10.0]))

    part = TimePartition.uniform(1.0, 20)
    path = abstract_catchup(np.ones(1), provider, np.array([0.3]), part)
    expected = np.maximum(0.3, part.points)
    assert np.allclose(path[:, 0], expected, atol=1e-10)


def test_abstract_translating_box_corner():
    # unit box moving right at unit speed pushes the point with its left edge
    def provider(t):
        A = np.vstack([np.eye(2), -np.eye(2)])
        b = np.array([t + 1.0, 1.0, -t, 0.0])
        return PolyhedralSet(A=A, b=b)

    part = TimePartition.uniform(2.0, 40)
    x0 = np.array([0.5, 0.5])
    path = abstract_catchup(np.eye(2), provider, x0, part)
    expected_x = np.maximum(0.5, part.points)
    assert np.allclose(path[:, 0], expected_x, atol=1e-10)
    assert np.allclose(path[:, 1], 0.5, atol=1e-12)


def test_abstract_rejects_infeasible_start():
    box = PolyhedralSet(A=np.eye(1), b=np.zeros(1))
    with pytest.raises(InvalidInputError):
        abstract_catchup(np.ones(1), lambda t: box, np.array([1.0]), TimePartition.uniform(1.0, 2))


def test_frozen_loads_give_constant_trajectory(example1):
    definition, _, system = example1
    loads = LoadSchedule.constant_rate(
        displacement_offset=-definition.constraint_matrix @ definition.reference_coords,
        rate=np.zeros(4),
        horizon=0.05,
    )
    spec = build_moving_set(system, Space.FULL, loads)
    state0 = initial_state(system, np.zeros(10), loads, Space.FULL, spec)
    traj = catchup(system, spec, state0, loads, TimePartition.uniform(0.05, 20))
    assert np.abs(traj.sweeping_values() - state0.y).max() <= 1e-12
    assert traj.events == []


def test_states_satisfy_invariants(example1):
    definition, loads, system = example1
    spec = build_moving_set(system, Space.FULL, loads)
    state0 = initial_state(system, np.zeros(10), loads, Space.FULL, spec)
    traj = catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 100))
    eq = system.equality_rows()
    from latsweep.sweeping import moving_set_at

    for state in traj.states:
        assert np.allclose(state.sigma, system.stiffness * state.epsilon, atol=1e-12)
        assert np.all(state.sigma <= definition.upper_limits + 1e-8)
        assert np.all(state.sigma >= definition.lower_limits - 1e-8)
        assert np.abs(eq @ state.epsilon).max() <= 1e-8  # equilibrium, f = 0
        assert moving_set_at(spec, state.time, loads).contains(state.y, tol=1e-8)


def test_full_reduced_equivalence_small_mesh(example1):
    _, loads, system = example1
    part = TimePartition.uniform(loads.horizon, 50)
    results = {}
    for space in (Space.FULL, Space.REDUCED):
        spec = build_moving_set(system, space, loads)
        state0 = initial_state(system, np.zeros(10), loads, space, spec)
        results[space] = catchup(system, spec, state0, loads, part)
    y_full = results[Space.FULL].sweeping_values()
    y_red = results[Space.REDUCED].sweeping_values()
    assert np.abs(y_red @ system.V_basis.T - y_full).max() <= 1e-8


def test_catchup_exact_for_pure_translation(example1):
    # with a constant-velocity set the projected path has no memory, so the
    # scheme is exact at every mesh
    _, loads, system = example1
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(10), loads, Space.REDUCED, spec)
    coarse = catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 16))
    fine = catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 256))
    assert np.abs(coarse.final.sigma - fine.final.sigma).max() <= 1e-12


def varying_force_loads(base, definition, scale=4e-4):
    # a slow force ramp deforms the moving set, giving genuine O(h) error
    nd = definition.n_dof
    rng = np.random.default_rng(99)
    direction = rng.standard_normal(nd)
    direction /= np.linalg.norm(direction)
    return LoadSchedule(
        displacement_offset=base.displacement_offset,
        rate_times=base.rate_times,
        rate_values=base.rate_values,
        horizon=base.horizon,
        force_times=np.array([0.0, base.horizon]),
        force_values=np.vstack([np.zeros(nd), scale * direction]),
    )


def test_mesh_refinement_contracts(example1):
    # Richardson-style: halving a uniform mesh shrinks the terminal change
    definition, base, system = example1
    loads = varying_force_loads(base, definition)
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(10), loads, Space.REDUCED, spec)
    terminals = []
    for steps in (25, 50, 100, 200):
        traj = catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, steps))
        terminals.append(traj.final.sigma)
    diffs = [np.linalg.norm(terminals[i + 1] - terminals[i]) for i in range(3)]
    assert diffs[0] <= 1e-3 * np.linalg.norm(terminals[-1])
    assert diffs[1] <= 0.8 * diffs[0]
    assert diffs[2] <= 0.8 * diffs[1]


def test_event_detection_tolerance(example1):
    definition, loads, system = example1
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(10), loads, Space.REDUCED, spec)
    traj = catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 400))
    assert len(traj.events) == 2
    assert traj.events[0].newly_active == {(0, "upper"), (1, "upper")}
    assert traj.events[1].newly_active == {(2, "lower"), (3, "lower")}


def test_safe_load_violation_surfaces_with_time(example1):
    _, loads, system = example1
    nd = 12
    rng = np.random.default_rng(1)
    direction = rng.standard_normal(nd)
    big = 1e6 * direction
    ramped = LoadSchedule(
        displacement_offset=loads.displacement_offset,
        rate_times=loads.rate_times,
        rate_values=loads.rate_values,
        horizon=loads.horizon,
        force_times=np.array([0.0, loads.horizon]),
        force_values=np.vstack([np.zeros(nd), big]),
    )
    spec = build_moving_set(system, Space.FULL, ramped)
    state0 = initial_state(system, np.zeros(10), ramped, Space.FULL, spec)
    with pytest.raises(SafeLoadError) as info:
        catchup(system, spec, state0, ramped, TimePartition.uniform(ramped.horizon, 20))
    assert info.value.time is not None and info.value.time > 0.0


def test_relabelled_grid_catchup_matches_original_events(grid_with_hole, monkeypatch):
    # Catch-up on the grid with its springs renumbered finds the original
    # events, and the equality-row kernel is the only nullspace the
    # projections compute: once per solve in full space, never per iteration.
    definition, loads, system = grid_with_hole
    perm = np.random.default_rng(4).permutation(definition.n_springs)
    assert perm.size == 496
    relabelled = assemble(relabel_springs(definition, perm))
    part = TimePartition.uniform(loads.horizon, 200)
    kernels = []

    def counted(M):
        kernels.append(M.shape)
        return nullspace_basis(M)

    for space in (Space.REDUCED, Space.FULL):
        runs = []
        for assembled in (system, relabelled):
            spec = build_moving_set(assembled, space, loads)
            state0 = initial_state(assembled, np.zeros(definition.n_springs), loads, space, spec)
            kernels.clear()
            monkeypatch.setattr(projection, "nullspace_basis", counted)
            runs.append(catchup(assembled, spec, state0, loads, part))
            monkeypatch.undo()
            assert len(kernels) == (space is Space.FULL)
        original, permuted = runs
        assert len(permuted.events) == len(original.events) >= 3
        for a, b in zip(original.events, permuted.events):
            assert b.time == pytest.approx(a.time, rel=1e-9)
            assert {(int(perm[j]), side) for j, side in b.newly_active} == a.newly_active
            assert {(int(perm[j]), side) for j, side in b.newly_released} == a.newly_released
