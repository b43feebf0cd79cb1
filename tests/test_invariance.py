"""Trajectories must not depend on how nodes are numbered or where the
lattice sits in space.

Each transform gives the same lattice in other coordinates: the same
springs arrive at the same sides at the same times, and the stresses are
the same, for both solvers and both spaces.  Spring relabelling is covered
in ``test_leapfrog.py``.  Splitting a constant-rate segment in two leaves
the leapfrog events as they are, and so do a change of the units of time
and a change of the units of stress by 1e3 or, for leapfrog, by 1e-6;
catch-up at 1e-6 does not yet (ROADMAP item 1).
"""

import dataclasses

import numpy as np
import pytest

from latsweep.assembly import assemble
from latsweep.catchup import TimePartition, catchup
from latsweep.generators import build_example1, build_tri_grid_with_hole
from latsweep.leapfrog import leapfrog
from latsweep.sweeping import Space, build_moving_set, initial_state

CATCHUP_STEPS = 100


def permute_nodes(definition, loads, perm):
    """The same lattice with new node ``j`` being old node ``perm[j]``."""
    d = definition.dimension
    dofs = (d * perm[:, None] + np.arange(d)).ravel()
    moved = dataclasses.replace(
        definition,
        incidence=definition.incidence[perm],
        reference_coords=definition.reference_coords[dofs],
        constraint_matrix=definition.constraint_matrix[:, dofs],
    )
    return moved, loads


def move_rigidly(definition, loads, angle, shift):
    """The lattice rotated by ``angle`` and translated by ``shift``.

    ``R``'s columns rotate with the nodes, so ``R`` reads the same motions,
    and the offset is ``r(0) = -R xi`` of the moved reference.
    """
    c, s = np.cos(angle), np.sin(angle)
    rotation = np.array([[c, -s], [s, c]])
    n, q = definition.n_nodes, definition.n_constraints
    coords = (definition.node_coords() @ rotation.T + shift).ravel()
    R = (definition.constraint_matrix.reshape(q, n, 2) @ rotation.T).reshape(q, 2 * n)
    moved = dataclasses.replace(definition, reference_coords=coords, constraint_matrix=R)
    return moved, dataclasses.replace(loads, displacement_offset=-R @ coords)


def split_rate_segment(loads, t):
    """The same loads with the rate segment holding ``t`` split there in two."""
    i = int(np.searchsorted(loads.rate_times, t))
    return dataclasses.replace(
        loads,
        rate_times=np.insert(loads.rate_times, i, t),
        rate_values=np.insert(loads.rate_values, i, loads.rate_values[i - 1], axis=0),
    )


def scale_time_axis(loads, horizon):
    """The same loads on a time axis stretched to ``horizon``: every
    breakpoint scaled with it and the displacement rate divided by it."""
    stretch = horizon / loads.horizon
    scaled = {name: getattr(loads, name) * stretch for name in ("rate_times", "force_times", "strain_times")
              if getattr(loads, name) is not None}
    return dataclasses.replace(loads, horizon=horizon, rate_values=loads.rate_values / stretch, **scaled)


def scale_stress_units(definition, loads, factor):
    """Yield limits and displacement rate times ``factor``: the same
    problem with stresses and elongations in other units."""
    scaled = dataclasses.replace(
        definition,
        lower_limits=factor * definition.lower_limits,
        upper_limits=factor * definition.upper_limits,
    )
    return scaled, dataclasses.replace(loads, rate_values=factor * loads.rate_values)


def solve(definition, loads, solver, space, steps=CATCHUP_STEPS):
    system = assemble(definition)
    spec = build_moving_set(system, space, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
    if solver == "leapfrog":
        return leapfrog(system, spec, state0, loads)
    return catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, steps))


def assert_same_trajectory(traj, reference, definition):
    assert [(e.newly_active, e.newly_released) for e in traj.events] == [
        (e.newly_active, e.newly_released) for e in reference.events
    ]
    times = np.array([e.time for e in traj.events])
    reference_times = np.array([e.time for e in reference.events])
    assert np.all(np.abs(times - reference_times) <= 1e-9 * np.abs(reference_times))
    limit = max(np.abs(definition.lower_limits).max(), np.abs(definition.upper_limits).max())
    assert np.abs(traj.stresses() - reference.stresses()).max() <= 1e-9 * limit


TRANSFORMS = {
    "node-permutation": lambda definition, loads, rng: permute_nodes(
        definition, loads, rng.permutation(definition.n_nodes)
    ),
    "rotation-translation": lambda definition, loads, rng: move_rigidly(
        definition, loads, rng.uniform(0, 2 * np.pi), rng.uniform(-10, 10, 2)
    ),
    # reference positions 1e7 times the width of the box
    "far-translation": lambda definition, loads, rng: move_rigidly(
        definition, loads, 0.0, np.array([1e4, -1e4])
    ),
}


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("build", [build_example1, build_tri_grid_with_hole], ids=["example1", "grid"])
def test_trajectory_is_invariant(build, transform):
    definition, loads = build()
    moved, moved_loads = TRANSFORMS[transform](definition, loads, np.random.default_rng(41))
    events = 0
    for solver in ("leapfrog", "catchup"):
        for space in (Space.FULL, Space.REDUCED):
            reference = solve(definition, loads, solver, space)
            assert_same_trajectory(solve(moved, moved_loads, solver, space), reference, definition)
            events += len(reference.events)
    assert events > 0


# 0.37 of the horizon lies in the elastic phase of both lattices, 0.55
# between their first and second events.
@pytest.mark.parametrize("fraction", [0.37, 0.55])
@pytest.mark.parametrize("build", [build_example1, build_tri_grid_with_hole], ids=["example1", "grid"])
def test_leapfrog_events_do_not_see_a_split_rate_segment(build, fraction):
    definition, loads = build()
    split = split_rate_segment(loads, fraction * loads.horizon)
    assert split.rate_times.size == loads.rate_times.size + 1
    for space in (Space.FULL, Space.REDUCED):
        reference = solve(definition, loads, "leapfrog", space).events
        events = solve(definition, split, "leapfrog", space).events
        assert [(e.newly_active, e.newly_released) for e in events] == [
            (e.newly_active, e.newly_released) for e in reference
        ]
        assert reference
        for event, expected in zip(events, reference):
            assert abs(event.time - expected.time) <= 1e-10 * expected.time


@pytest.mark.parametrize("space", [Space.FULL, Space.REDUCED], ids=["full", "reduced"])
@pytest.mark.parametrize("horizon", [1e-15, 1e-13, 1e3, 1e12])
@pytest.mark.parametrize("build", [build_example1, build_tri_grid_with_hole], ids=["example1", "grid"])
def test_leapfrog_events_do_not_depend_on_the_time_axis(build, horizon, space):
    # The same loads run in other units of time: leapfrog's time and speed
    # slacks are relative to the run, so the events only scale their times.
    definition, loads = build()
    reference = solve(definition, loads, "leapfrog", space).events
    events = solve(definition, scale_time_axis(loads, horizon), "leapfrog", space).events
    assert len(reference) >= 2
    assert [(e.newly_active, e.newly_released) for e in events] == [
        (e.newly_active, e.newly_released) for e in reference
    ]
    for event, expected in zip(events, reference):
        scaled = expected.time * horizon / loads.horizon
        assert abs(event.time - scaled) <= 1e-9 * scaled


#: example1's events under its own loads: the arrivals and their times.
EXAMPLE1_EVENTS = [
    (frozenset({(0, "upper"), (1, "upper")}), 0.042142857142857),
    (frozenset({(2, "lower"), (3, "lower")}), 0.055),
]


def assert_example1_events(events, tolerance):
    assert [e.newly_active for e in events] == [arrivals for arrivals, _ in EXAMPLE1_EVENTS]
    for event, (_, time) in zip(events, EXAMPLE1_EVENTS):
        assert abs(event.time - time) <= tolerance


@pytest.mark.parametrize("factor", [1e3, 1e-6])
def test_example1_events_do_not_depend_on_stress_units(factor):
    # Leapfrog decides bound activity relative to each spring's elastic
    # range, so an elastic range of 2e-9 gives the same events.
    definition, loads = scale_stress_units(*build_example1(), factor)
    for space in (Space.FULL, Space.REDUCED):
        events = solve(definition, loads, "leapfrog", space).events
        assert_example1_events(events, 1e-9 * loads.horizon)


@pytest.mark.parametrize(
    "factor",
    [
        1e3,
        pytest.param(1e-6, marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 1: the kernel's absolute tolerances swallow an elastic range of 2e-9",
        )),
    ],
)
def test_example1_catchup_events_do_not_depend_on_stress_units(factor):
    definition, loads = scale_stress_units(*build_example1(), factor)
    steps = 800
    for space in (Space.FULL, Space.REDUCED):
        events = solve(definition, loads, "catchup", space, steps).events
        assert_example1_events(events, loads.horizon / steps)
