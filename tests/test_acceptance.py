"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion; every tolerance is pinned here.
"""

import time

import numpy as np
import pytest

from latsweep.analysis import macro_metrics, stress_strain_curve, total_stress
from latsweep.assembly import assemble, compatibility_matrix, validate_assumptions
from latsweep.catchup import TimePartition, catchup
from latsweep.generators import (
    build_example1,
    build_tri_grid_with_hole,
    build_triangular_periodic,
    example1_prestressed_stress,
)
from latsweep.io import load_network, save_network
from latsweep.leapfrog import leapfrog
from latsweep.linalg import numerical_rank, nullspace_basis, pseudoinverse
from latsweep.projection import project
from latsweep.sweeping import Space, build_moving_set, initial_state

from helpers import (
    braced_square_frame,
    coordinate_rows,
    projection_oracle,
    random_feasible_probe_anchor,
    random_projection_problem,
    random_small_lattice,
    triangle_lattice,
)

MESH = 1e-4


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def run(system, loads, space, solver, sigma0=None, mesh=MESH):
    spec = build_moving_set(system, space, loads)
    if sigma0 is None:
        sigma0 = np.zeros(system.dims.n_springs)
    state0 = initial_state(system, sigma0, loads, space, spec)
    if solver == "leapfrog":
        return leapfrog(system, spec, state0, loads)
    steps = int(round(loads.horizon / mesh))
    return catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, steps))


@pytest.fixture(scope="module")
def ex1():
    definition, loads = build_example1()
    return definition, loads, assemble(definition)


@pytest.fixture(scope="module")
def ex1_runs(ex1):
    _, loads, system = ex1
    pre = example1_prestressed_stress()
    runs = {}
    for space in (Space.FULL, Space.REDUCED):
        for solver in ("leapfrog", "catchup"):
            runs[("zero", solver, space)] = run(system, loads, space, solver)
            runs[("pre", solver, space)] = run(system, loads, space, solver, sigma0=pre)
    return runs


@pytest.fixture(scope="module")
def grid():
    definition, loads = build_tri_grid_with_hole()
    return definition, loads, assemble(definition)


@pytest.fixture(scope="module")
def grid_runs(grid):
    _, loads, system = grid
    runs = {}
    for space in (Space.FULL, Space.REDUCED):
        for solver in ("leapfrog", "catchup"):
            runs[(solver, space)] = run(system, loads, space, solver)
    return runs


def test_criterion_1_example1_structure():
    start = time.perf_counter()
    definition, _ = build_example1()
    system = assemble(definition)
    report = validate_assumptions(definition)
    elapsed = time.perf_counter() - start
    assert system.dims.dim_u == 8
    assert system.dims.dim_v == 2
    assert report.kinematically_determinate is True
    assert elapsed < 1.0
    _report(1, f"dim_U=8, dim_V=2, kinematically determinate ({elapsed:.3f}s)")


def test_criterion_2_zero_init_events(ex1):
    _, loads, system = ex1
    start = time.perf_counter()
    traj = run(system, loads, Space.REDUCED, "leapfrog")
    elapsed = time.perf_counter() - start
    times = [e.time for e in traj.events]
    assert len(times) == 2
    assert abs(times[0] - 0.042) <= 1e-3
    assert abs(times[1] - 0.055) <= 1e-3
    # stabilized: stresses frozen from the second event to the horizon
    assert np.array_equal(traj.final.sigma, traj.events[-1].sigma)
    assert traj.final.time == loads.horizon
    assert elapsed < 1.0
    _report(2, f"events at {times[0]:.6f}, {times[1]:.6f}, then stabilization ({elapsed:.3f}s)")


def test_criterion_3_prestressed_events(ex1_runs):
    traj = ex1_runs[("pre", "leapfrog", Space.REDUCED)]
    times = [e.time for e in traj.events]
    assert len(times) == 3
    for got, want in zip(times, (0.027, 0.046, 0.064)):
        assert abs(got - want) <= 1e-3
    assert traj.events[0].newly_active == {(4, "upper"), (5, "upper")}
    assert (4, "upper") in traj.events[1].newly_released
    assert (5, "upper") in traj.events[1].newly_released
    _report(3, f"events at {times[0]:.6f}, {times[1]:.6f}, {times[2]:.6f}; "
               "springs 5-6 yield first and release at the second event")


def test_criterion_4_shakedown(ex1_runs):
    zero = ex1_runs[("zero", "leapfrog", Space.FULL)].final.sigma
    pre = ex1_runs[("pre", "leapfrog", Space.FULL)].final.sigma
    gap = np.abs(zero - pre).max()
    assert gap <= 1e-6
    _report(4, f"terminal stresses agree componentwise to {gap:.2e}")


def test_criterion_5_solver_cross_validation(ex1_runs, grid_runs):
    worst_terminal = 0.0
    worst_bracket = 0.0
    pairs = [
        (ex1_runs[("zero", "leapfrog", Space.REDUCED)], ex1_runs[("zero", "catchup", Space.REDUCED)]),
        (ex1_runs[("pre", "leapfrog", Space.REDUCED)], ex1_runs[("pre", "catchup", Space.REDUCED)]),
        (grid_runs[("leapfrog", Space.REDUCED)], grid_runs[("catchup", Space.REDUCED)]),
    ]
    for lf, cu in pairs:
        worst_terminal = max(worst_terminal, float(np.abs(lf.final.sigma - cu.final.sigma).max()))
        assert cu.events, "catch-up detected no events a posteriori"
        cu_times = np.array([e.time for e in cu.events])
        for event in lf.events:
            worst_bracket = max(worst_bracket, float(np.abs(cu_times - event.time).min()))
    assert worst_terminal <= 1e-6
    assert worst_bracket <= MESH * (1 + 1e-9)
    _report(5, f"terminal stress gap {worst_terminal:.2e} <= 1e-6; "
               f"event bracketing {worst_bracket:.2e} <= mesh {MESH}")


def test_criterion_6_full_reduced_equivalence(ex1, grid, ex1_runs, grid_runs):
    worst = 0.0
    for (_, _, system), key_full, key_red in (
        (ex1, ("zero", "catchup", Space.FULL), ("zero", "catchup", Space.REDUCED)),
        (ex1, ("zero", "leapfrog", Space.FULL), ("zero", "leapfrog", Space.REDUCED)),
        (ex1, ("pre", "leapfrog", Space.FULL), ("pre", "leapfrog", Space.REDUCED)),
    ):
        full = ex1_runs[key_full]
        red = ex1_runs[key_red]
        assert np.allclose(full.times(), red.times(), atol=1e-9)
        gap = np.abs(red.sweeping_values() @ system.V_basis.T - full.sweeping_values()).max()
        worst = max(worst, float(gap))
    _, _, gsystem = grid
    for solver in ("catchup", "leapfrog"):
        full = grid_runs[(solver, Space.FULL)]
        red = grid_runs[(solver, Space.REDUCED)]
        assert np.allclose(full.times(), red.times(), atol=1e-9)
        gap = np.abs(red.sweeping_values() @ gsystem.V_basis.T - full.sweeping_values()).max()
        worst = max(worst, float(gap))
    assert worst <= 1e-8
    _report(6, f"max |V y_V - y| over both solvers and systems: {worst:.2e} <= 1e-8")


def test_criterion_7_grid_counts_and_runtime(grid):
    definition, loads, system = grid
    assert definition.n_nodes == 198
    assert definition.n_springs == 496
    assert definition.n_constraints == 56
    assert system.dims.dim_v == 156
    start = time.perf_counter()
    traj = run(system, loads, Space.REDUCED, "leapfrog")
    elapsed = time.perf_counter() - start
    assert traj.final.time == loads.horizon
    assert elapsed < 60.0
    _report(7, f"(m, n, q, dim_V) = (496, 198, 56, 156); leapfrog finished in {elapsed:.2f}s")


def test_criterion_8_projection_kernel():
    rng = np.random.default_rng(2024)
    worst_oracle = 0.0
    worst_idem = 0.0
    worst_expansion = 0.0
    worst_vi = 0.0
    for _ in range(1000):
        S, x, poly = random_projection_problem(rng)
        res = project(S, x, poly)
        oracle = projection_oracle(S, x, poly)
        scale = 1.0 + np.linalg.norm(x)
        worst_oracle = max(worst_oracle, float(np.linalg.norm(res.point - oracle)) / scale)
        again = project(S, res.point, poly).point
        worst_idem = max(worst_idem, float(np.linalg.norm(again - res.point)))
        x2 = x + rng.standard_normal(x.shape)
        y2 = project(S, x2, poly).point
        S2 = np.diag(S) if np.ndim(S) == 1 else S
        d_out = res.point - y2
        d_in = x - x2
        worst_expansion = max(
            worst_expansion,
            float(np.sqrt(d_out @ S2 @ d_out) - np.sqrt(d_in @ S2 @ d_in)),
        )
        anchor = random_feasible_probe_anchor(rng, poly, oracle)
        vi = (x - res.point) @ S2 @ (anchor - res.point)
        worst_vi = max(worst_vi, float(vi) / (scale * (1 + np.linalg.norm(anchor))))
    assert worst_oracle <= 1e-9
    assert worst_idem <= 1e-8
    assert worst_expansion <= 1e-9
    assert worst_vi <= 1e-8
    _report(8, "1000 random problems: oracle gap "
               f"{worst_oracle:.1e}, idempotence {worst_idem:.1e}, "
               f"expansion excess {worst_expansion:.1e}, VI {worst_vi:.1e}")


def test_criterion_9_linear_algebra_invariants(ex1, grid):
    rng = np.random.default_rng(7)
    definitions = [ex1[0], grid[0], build_triangular_periodic(4, 4)[0]]
    definitions += [random_small_lattice(rng) for _ in range(100)]
    for definition in definitions:
        report = validate_assumptions(definition)
        assert report.index_residual == 0
        system = assemble(definition)
        compat = compatibility_matrix(definition)[0]
        # Penrose identities for the pseudoinverse used in assembly
        enhanced = np.hstack([compat.T, definition.constraint_matrix.T])
        pinv = pseudoinverse(enhanced)
        nrm = np.linalg.norm(enhanced)
        assert np.linalg.norm(enhanced @ pinv @ enhanced - enhanced) <= 1e-9 * nrm
        assert np.linalg.norm(pinv @ enhanced @ pinv - pinv) <= 1e-9 * np.linalg.norm(pinv)
        # rank-nullity on the compatibility matrix
        assert numerical_rank(compat) + nullspace_basis(compat).shape[1] == compat.shape[1]
        # stiffness orthogonality and projector idempotence
        k = system.stiffness
        assert np.abs(system.U_basis.T @ (k[:, None] * system.V_basis)).max() <= 1e-8
        P = system.V_basis @ coordinate_rows(system)
        assert np.abs(P @ P - P).max() <= 1e-10
    _report(9, f"invariants hold on {len(definitions)} lattices "
               "(3 built-in examples + 100 random)")


def test_criterion_10_rigidity_spot_checks():
    tri = validate_assumptions(triangle_lattice())
    assert tri.zero_modes == 3
    assert tri.self_stress_states == 0
    frame = validate_assumptions(braced_square_frame())
    assert frame.self_stress_states == 1
    _report(10, "triangle: 3 zero modes / 0 self-stresses; braced frame: 1 self-stress")


def test_criterion_11_total_stress(ex1):
    _, _, system = ex1
    rng = np.random.default_rng(3)
    for _ in range(50):
        sigma = rng.standard_normal(10)
        st = total_stress(system, sigma, 12.0)
        assert np.abs(st - st.T).max() <= 1e-12 * max(np.abs(st).max(), 1e-30)
    from types import SimpleNamespace

    single = SimpleNamespace(directions=np.array([[-1.0, 0.0]]), reference_lengths=np.ones(1))
    assert np.array_equal(total_stress(single, np.ones(1), 1.0), [[1.0, 0.0], [0.0, 0.0]])
    s1, s2 = rng.standard_normal(10), rng.standard_normal(10)
    lin_gap = np.abs(
        total_stress(system, s1 + 2.5 * s2, 12.0)
        - total_stress(system, s1, 12.0)
        - 2.5 * total_stress(system, s2, 12.0)
    ).max()
    assert lin_gap <= 1e-12
    _report(11, "symmetry <= 1e-12, single-spring case exact, linearity <= 1e-12")


def test_criterion_12_macroscopic_metrics(tmp_path):
    definition, loads = build_triangular_periodic(4, 4)
    path = tmp_path / "periodic.json"
    save_network(path, definition, loads)
    definition, loads = load_network(path)  # metrics from a supplied file
    system = assemble(definition)
    traj = run(system, loads, Space.REDUCED, "leapfrog")
    report = macro_metrics(traj, system, loads, definition.volume)
    curve = stress_strain_curve(traj, system, loads, definition.volume)
    t1 = report.first_event_time
    s11_t1 = float(np.interp(t1, curve["time"], curve["sigma11"]))
    assert report.stiffness == pytest.approx(s11_t1 / t1, rel=1e-14)
    pre_event = curve["time"] <= t1 + 1e-15
    assert np.all(np.diff(curve["sigma11"][pre_event]) >= -1e-15)
    final = total_stress(system, traj.final.sigma, definition.volume)
    assert final[1, 1] > 0.0
    _report(12, f"E = s11(t1)/t1 holds exactly; s11 monotone to t1; "
                f"s22 = {final[1, 1]:.4g} > 0 under x-load")
