"""Trajectories must not depend on how nodes are numbered or where the
lattice sits in space.

Each transform gives the same lattice in other coordinates: the same
springs arrive at the same sides at the same times, and the stresses are
the same, for both solvers and both spaces.  Spring relabelling is covered
in ``test_leapfrog.py``; unit scaling is not yet invariant (ROADMAP item 1).
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


def solve(definition, loads, solver, space):
    system = assemble(definition)
    spec = build_moving_set(system, space, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
    if solver == "leapfrog":
        return leapfrog(system, spec, state0, loads)
    return catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, CATCHUP_STEPS))


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
