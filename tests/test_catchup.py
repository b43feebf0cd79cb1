import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from latsweep import projection
from latsweep.assembly import assemble
from latsweep.catchup import TimePartition, bound_activity, catchup
from latsweep.errors import InfeasibleSetError, InvalidInputError, SafeLoadError
from latsweep.generators import build_tri_grid_with_hole
from latsweep.lattice import LoadSchedule
from latsweep.leapfrog import leapfrog
from latsweep.linalg import nullspace_basis
from latsweep.projection import PolyhedralSet, find_feasible_point, project
from latsweep.sweeping import Space, SweepingState, build_moving_set, initial_state, safe_load_check, static_set

from helpers import (
    abstract_catchup,
    box_offset,
    full_form_rows,
    full_form_set,
    moving_set_at,
    relabel_springs,
)

# the module, not the function the package exports under the same name
catchup_module = importlib.import_module("latsweep.catchup")


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
    eq = full_form_rows(system)
    for state in traj.states:
        assert np.all(state.sigma <= definition.upper_limits + 1e-8)
        assert np.all(state.sigma >= definition.lower_limits - 1e-8)
        assert np.abs(eq @ (state.sigma / system.stiffness)).max() <= 1e-8  # equilibrium, f = 0
        # the reported spring vector: in the shifted box and on the plane
        assert full_form_set(system, box_offset(spec, loads, state.time)).contains(state.y, tol=1e-8)


def test_a_state_keeps_its_stresses_once(grid_with_hole):
    # a state holds time, y and sigma; the elastic elongations are sigma / k
    assert [f.name for f in dataclasses.fields(SweepingState)] == ["time", "y", "sigma"]
    _, loads, system = grid_with_hole
    m, steps = system.dims.n_springs, 200
    part = TimePartition.uniform(loads.horizon, steps)
    # bytes kept per step, in units of one m-vector: sigma, the frame's y
    # (V y, m more, in the full space) and the bookkeeping of a state
    for space, budget in ((Space.FULL, 2.5), (Space.REDUCED, 1.75)):
        spec = build_moving_set(system, space, loads)
        state0 = initial_state(system, np.zeros(m), loads, space, spec)
        catchup(system, spec, state0, loads, part)
        tracemalloc.start()
        try:
            traj = catchup(system, spec, state0, loads, part)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(traj.states) == steps + 1
        assert kept <= budget * 8 * m * steps, (space, kept / (8 * m * steps))


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


def varying_force_loads(base, definition, scale=4e-4, seed=99):
    # a slow force ramp deforms the moving set, giving genuine O(h) error
    nd = definition.n_dof
    rng = np.random.default_rng(seed)
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
    # Example1 under this force ramp is one where catch-up is exact: its
    # states at common times agree across meshes to rounding, so no
    # contraction can be measured on it.  A small clamped grid under the
    # same kind of ramp has first-order differences: halving the mesh
    # halves the largest change between consecutive meshes at common times.
    definition, base, system = example1
    loads = varying_force_loads(base, definition)
    scale = np.max(definition.upper_limits - definition.lower_limits)
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(10), loads, Space.REDUCED, spec)
    runs = [_stresses(catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, n)))
            for n in (25, 50, 100, 200)]
    for coarse, fine in zip(runs, runs[1:]):
        assert np.abs(fine[::2] - coarse).max() <= 1e-12 * scale

    definition, base = build_tri_grid_with_hole(6, 5, ((2, 2), (3, 2)))
    system = assemble(definition)
    loads = varying_force_loads(base, definition, seed=0)
    scale = np.max(definition.upper_limits - definition.lower_limits)
    spec = build_moving_set(system, Space.FULL, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, Space.FULL, spec)
    runs = [_stresses(catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, n)))
            for n in (25, 50, 100, 200)]
    diffs = [np.abs(fine[::2] - coarse).max() for coarse, fine in zip(runs, runs[1:])]
    assert diffs[0] <= 1e-3 * scale
    assert diffs[-1] >= 1e-6 * scale
    assert diffs[1] <= 0.8 * diffs[0]
    assert diffs[2] <= 0.8 * diffs[1]


def _stresses(traj):
    return np.array([state.sigma for state in traj.states])


def rate_segments(loads, times, factors, horizon):
    """The loads' rate times ``factors`` on segments starting at ``times``."""
    return LoadSchedule(
        displacement_offset=loads.displacement_offset,
        rate_times=np.asarray(times, dtype=float),
        rate_values=np.outer(factors, loads.rate_values[0]),
        horizon=horizon,
    )


def nonuniform_partition(horizon, steps, seed):
    inner = np.sort(np.random.default_rng(seed).uniform(0.0, horizon, steps - 1))
    return TimePartition(np.concatenate([[0.0], inner, [horizon]]))


@pytest.mark.parametrize("space", [Space.FULL, Space.REDUCED])
@pytest.mark.parametrize("case", [
    "example1", "periodic-strain", "example1-force-ramp", "grid",
    "example1-unload", "example1-rate-breakpoint", "example1-nonuniform",
])
def test_catchup_matches_abstract_recursion(
    example1, periodic_patch, grid_with_hole, case, space, monkeypatch
):
    # The block catch-up against the bare recursion on the moving set
    # itself, which builds every set, starts every step from phase 1, reads
    # no frame and takes one projection per step: a displacement drive, a
    # box-strain drive, a force ramp that changes the set's shape, the grid,
    # a stretch then an unloading (the rate reverses on a partition point,
    # so a block ends on a negative multiplier and the bounds release), a
    # rate change between two partition points, and a non-uniform partition.
    # The full space's states, V y, are held to the recursion on the full
    # form of the set, the box with the plane as equality rows U^T K in the
    # stiffness weight, which whitens by its own SVD of U^T K, not by
    # assembly's V.
    fixture = {"periodic-strain": periodic_patch, "grid": grid_with_hole}.get(case, example1)
    definition, loads, system = fixture
    part = TimePartition.uniform(loads.horizon, 20 if case == "grid" else 40)
    if case == "example1-force-ramp":
        loads = varying_force_loads(loads, definition)
    elif case == "example1-unload":
        loads = rate_segments(loads, [0.0, 0.07], [1.0, -1.0], 0.14)
        part = TimePartition.uniform(loads.horizon, 40)
    elif case == "example1-rate-breakpoint":
        loads = rate_segments(loads, [0.0, 0.0473], [1.0, 0.5], loads.horizon)
        assert not np.any(part.points == 0.0473)
    elif case == "example1-nonuniform":
        part = nonuniform_partition(loads.horizon, 40, seed=5)
    spec = build_moving_set(system, space, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
    traj = catchup(system, spec, state0, loads, part)
    if space is Space.FULL:
        rows, kernels = full_form_rows(system), []

        def counted(M):
            kernels.append(M is rows)
            return nullspace_basis(M)

        monkeypatch.setattr(projection, "nullspace_basis", counted)
        S, image = system.stiffness, lambda v: v
        sets = lambda t: full_form_set(system, box_offset(spec, loads, t), rows)  # noqa: E731
    else:
        S, image = np.eye(system.dims.dim_v), spec.lift
        sets = lambda t: moving_set_at(spec, t, loads)  # noqa: E731
    oracle = abstract_catchup(S, sets, state0.y, part)
    if space is Space.FULL:  # one kernel of the same rows per step
        assert kernels == [True] * (part.points.size - 1)
    width = spec.box_upper - spec.box_lower
    assert len(traj.events) >= 2
    for state, y in zip(traj.states, oracle):
        assert np.all(np.abs(image(state.y - y)) <= 1e-12 * width)
    if case == "example1-unload":
        on_bounds = [bound_activity(state.sigma, system.lower_limits, system.upper_limits).sum()
                     for state in traj.states]
        assert max(on_bounds) == 4 and on_bounds[-1] == 0


@pytest.mark.parametrize("space", [Space.FULL, Space.REDUCED])
def test_unloading_records_the_releases(example1, space):
    # Example1 stretched to t = 0.07 and then unloaded at the same rate:
    # all four bounds leave on unloading, and both solvers record them as
    # an event of their own, leapfrog at the segment's start and catch-up
    # on the first step off the bounds.
    definition, loads, system = example1
    loads = rate_segments(loads, [0.0, 0.07], [1.0, -1.0], 0.14)
    spec = build_moving_set(system, space, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
    held = {(0, "upper"), (1, "upper"), (2, "lower"), (3, "lower")}
    for traj, time in (
        (leapfrog(system, spec, state0, loads), 0.07),
        (catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 40)), 0.0735),
    ):
        assert set().union(*(e.newly_active for e in traj.events)) == held
        *_, last = traj.events
        assert last.newly_active == frozenset() and last.newly_released == held
        assert last.time == pytest.approx(time, abs=1e-12)
        assert [e.index for e in traj.events] == list(range(len(traj.events)))


def test_catchup_projects_once_per_working_set_change(example1, grid_with_hole, monkeypatch):
    # Between working-set changes the steps follow one face without a
    # projection: a 200-step grid solve projects a handful of times.  Under
    # a force ramp the set changes every step, and so does the face.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return project(*args, **kwargs)

    monkeypatch.setattr(catchup_module, "project", counted)
    for (definition, loads, system), ramp, steps in (
        (grid_with_hole, False, 200),
        (example1, True, 20),
    ):
        if ramp:
            loads = varying_force_loads(loads, definition)
        for space in Space:
            spec = build_moving_set(system, space, loads)
            state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
            calls.clear()
            traj = catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, steps))
            assert len(traj.states) == steps + 1
            if ramp:
                assert len(calls) == steps
            else:
                assert 1 <= len(calls) <= 8
                assert len(traj.events) >= 3


def test_active_hint_bounds_the_working_set_solves(grid_with_hole, monkeypatch):
    # Under a force ramp every step starts from a phase-1 vertex, on many
    # bounds the projection leaves; the last step's active bounds keep them
    # out of the first working set.  The 20-step grid ramp takes 234
    # working-set solves per space with the hint and about 4600 without.
    solves, working_set_solve = [], projection._working_set_solve

    def counted(C, rhs):
        solves.append(C.shape[1])
        return working_set_solve(C, rhs)

    monkeypatch.setattr(projection, "_working_set_solve", counted)
    definition, base, system = grid_with_hole
    loads = varying_force_loads(base, definition)
    for space in Space:
        spec = build_moving_set(system, space, loads)
        state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
        solves.clear()
        catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 20))
        assert 20 <= len(solves) <= 470


def test_one_static_set_per_force_level(example1, grid_with_hole, monkeypatch):
    # Under a frozen force the moving frame needs one set for the whole
    # run; under a force ramp each step is a new force level.
    built = []

    def counted(spec, shift):
        built.append(shift)
        return static_set(spec, shift)

    monkeypatch.setattr(catchup_module, "static_set", counted)
    for (definition, loads, system), ramp, steps in (
        (grid_with_hole, False, 200),
        (example1, True, 20),
    ):
        if ramp:
            loads = varying_force_loads(loads, definition)
        for space in Space:
            spec = build_moving_set(system, space, loads)
            state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
            built.clear()
            catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, steps))
            assert len(built) == (steps + 1 if ramp else 1)


def test_horizon_slack_is_relative(example1):
    # Example1 on a time axis scaled to a horizon of 1e-13: a partition that
    # reaches 5x past it is refused, one that ends on it gives example1's
    # states at the matching times.
    definition, loads, system = example1
    fast = LoadSchedule.constant_rate(
        displacement_offset=loads.displacement_offset,
        rate=loads.rate_values[0] * (loads.horizon / 1e-13),
        horizon=1e-13,
    )
    spec = build_moving_set(system, Space.FULL, fast)
    state0 = initial_state(system, np.zeros(10), fast, Space.FULL, spec)
    with pytest.raises(InvalidInputError, match="horizon"):
        catchup(system, spec, state0, fast, TimePartition(np.array([0.0, 5e-13])))
    scaled = catchup(system, spec, state0, fast, TimePartition.uniform(fast.horizon, 16))
    spec = build_moving_set(system, Space.FULL, loads)
    plain = catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 16))
    width = definition.upper_limits - definition.lower_limits
    assert np.all(np.abs(_stresses(scaled) - _stresses(plain)) <= 1e-12 * width)


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


def test_phase_one_at_the_safe_load_limit_spaces_agree(example1):
    # Just past the safe-load limit the smallest largest box violation v on
    # the self-stress plane is tiny.  Phase 1 declares the set empty when v
    # exceeds max(tol, 1e-9), whether the box enters as the variable bounds
    # of its linear program (the full form, with the plane as equality
    # rows, as the spec's own phase 1 takes it) or as rows V (the set the
    # solve projects onto, in either space).
    definition, loads, system = example1
    V = system.V_basis
    m, d = V.shape
    direction = -system.F @ np.random.default_rng(3).standard_normal(definition.n_dof)
    spec = build_moving_set(system, Space.REDUCED, loads)
    lo, hi = spec.box_lower, spec.box_upper
    rows = np.vstack([np.hstack([V, -np.ones((m, 1))]), np.hstack([-V, -np.ones((m, 1))])])

    def violation(s):
        res = linprog(
            np.r_[np.zeros(d), 1.0],
            A_ub=rows,
            b_ub=np.concatenate([hi + s * direction, -(lo + s * direction)]),
            bounds=[(None, None)] * d + [(0, None)],
            method="highs",
        )
        return res.fun

    # the largest feasible offset s* along the direction, then v linear past it
    res = linprog(
        np.r_[np.zeros(d), -1.0],
        A_ub=np.vstack([np.hstack([V, -direction[:, None]]), np.hstack([-V, direction[:, None]])]),
        b_ub=np.concatenate([hi, -lo]),
        bounds=[(None, None)] * (d + 1),
        method="highs",
    )
    s1, s2 = 1.01 * res.x[-1], 1.02 * res.x[-1]
    v1, v2 = violation(s1), violation(s2)
    slope = (v2 - v1) / (s2 - s1)
    assert v1 > 0 and abs(v2 - 2 * v1) <= 1e-3 * v1

    def verdicts(v, tol=1e-10):
        offset = (s1 + (v - v1) / slope) * direction
        out = []
        for poly in (full_form_set(system, offset), static_set(spec, offset)):
            try:
                y = find_feasible_point(poly, tol)
            except InfeasibleSetError:
                out.append(False)
            else:
                assert poly.violation(y) <= 1.01 * max(tol, 1e-9)
                out.append(True)
        return out

    assert verdicts(5e-10) == [True, True]
    assert verdicts(3e-9) == [False, False]
    assert verdicts(3e-9, tol=1e-8) == [True, True]


def test_relabelled_grid_catchup_matches_original_events(grid_with_hole, monkeypatch):
    # Catch-up on the grid with its springs renumbered finds the original
    # events, and the projections compute no nullspace in either space: both
    # solve in assembly's basis V of the plane.
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
            assert len(kernels) == 0
        original, permuted = runs
        assert len(permuted.events) == len(original.events) >= 3
        for a, b in zip(original.events, permuted.events):
            assert b.time == pytest.approx(a.time, rel=1e-9)
            assert {(int(perm[j]), side) for j, side in b.newly_active} == a.newly_active
            assert {(int(perm[j]), side) for j, side in b.newly_released} == a.newly_released


def test_varying_force_phase_one_every_step_spaces_agree(example1, monkeypatch):
    # Under a force ramp no step has a feasible start, so every projection
    # starts from the phase-1 linear program, in both spaces in the set's
    # full form: the limits as variable bounds, the balance as equality
    # rows.  Its point is mapped by V^T K, which passes the projection's start
    # check (no second phase 1 on rows V), at unit stiffness as at 1e-4 and
    # 1e4: the program is written in stress units, which do not move with
    # the stiffness.  Both spaces must give the same states.
    definition, base, system = example1
    loads = varying_force_loads(base, definition)
    part = TimePartition.uniform(loads.horizon, 50)
    phase_one = []

    def counted(poly, *args, **kwargs):
        phase_one.append(poly.A is None)
        return find_feasible_point(poly, *args, **kwargs)

    for k in (1.0, 1e-4, 1e4):
        if k != 1.0:
            system = assemble(_with_stiffness(definition, k))
        runs = {}
        for space in (Space.REDUCED, Space.FULL):
            spec = build_moving_set(system, space, loads)
            state0 = initial_state(system, np.zeros(10), loads, space, spec)
            phase_one.clear()
            monkeypatch.setattr(projection, "find_feasible_point", counted)
            runs[space] = catchup(system, spec, state0, loads, part)
            monkeypatch.undo()
            assert phase_one == [True] * 50
        width = spec.box_upper - spec.box_lower
        # the displacement load reaches the box at unit stiffness only
        assert len(runs[Space.FULL].events) >= (2 if k == 1.0 else 0)
        for full, reduced in zip(runs[Space.FULL].states, runs[Space.REDUCED].states):
            assert np.all(np.abs(full.y - system.V_basis @ reduced.y) <= 1e-10 * width)


def _with_stiffness(definition, k):
    """``definition`` with every spring's stiffness ``k`` and its yield
    limits, in stress units, unchanged."""
    return dataclasses.replace(definition, stiffness=np.full(definition.n_springs, k))


def _safe_load_ramp(definition, base, system, factor):
    """A force ramp from 0 to ``factor`` times the largest multiple of a
    fixed direction on example1's 8 free dofs that ``safe_load_check``
    accepts, found by bisection."""
    direction = np.zeros(definition.n_dof)
    direction[:8] = np.random.default_rng(0).standard_normal(8)
    lo, hi = 0.0, 1.0
    while safe_load_check(system, hi * direction):
        lo, hi = hi, 2.0 * hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if safe_load_check(system, mid * direction) else (lo, mid)
    return LoadSchedule(
        displacement_offset=base.displacement_offset,
        rate_times=base.rate_times,
        rate_values=base.rate_values,
        horizon=base.horizon,
        force_times=np.array([0.0, base.horizon]),
        force_values=np.vstack([np.zeros(definition.n_dof), factor * lo * direction]),
    )


def _catchup_on_safe_load_ramp(definition, base, k, factor, space=Space.REDUCED):
    """``safe_load_check``'s verdict on the ramp's last force, and catch-up's
    trajectory over the ramp in 8 steps (``None`` when it raises
    :class:`SafeLoadError`)."""
    definition = _with_stiffness(definition, k)
    system = assemble(definition)
    loads = _safe_load_ramp(definition, base, system, factor)
    spec = build_moving_set(system, space, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
    verdict = safe_load_check(system, loads.f(loads.horizon))
    try:
        traj = catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 8))
    except SafeLoadError as exc:
        assert exc.time == pytest.approx(loads.horizon)
        traj = None
    return verdict, traj


@pytest.mark.parametrize("k", [1e-4, 1.0, 1e4])
def test_safe_load_check_and_catchup_agree_across_stiffness(example1, k):
    # At 0.9 times the limit check-safe-load finds both accept the force, at
    # 1.001 times both refuse it.  With every stiffness 1e4 the box in
    # elongations is 1e-4 of the stresses' elastic range: a phase 1 in
    # elongation units, with its absolute tau of 1e-9, accepted the force
    # 1.001 times past the limit, and catch-up ran to the end with stresses
    # 5e-4 of the elastic range outside the box.
    definition, base, _ = example1
    width = definition.upper_limits - definition.lower_limits
    for factor, safe in ((0.9, True), (1.001, False)):
        for space in (Space.REDUCED, Space.FULL):
            verdict, traj = _catchup_on_safe_load_ramp(definition, base, k, factor, space)
            assert verdict is safe and (traj is not None) is safe
            if safe:
                sigma = traj.stresses()
                outside = np.maximum(sigma - definition.upper_limits, definition.lower_limits - sigma)
                assert np.all(outside <= 1e-9 * width)
