"""Independent cross-check of the load-coupling matrices.

During the elastic phase the stress rate predicted by the sweeping
construction must equal the rate from a plain structural solve: minimize
elastic energy subject to the prescribed boundary velocities.  The two
paths share nothing beyond the compatibility matrix, so agreement
validates the basis, projector, and coupling-matrix assembly.
"""

import numpy as np

from latsweep.assembly import assemble, compatibility_matrix
from latsweep.generators import (
    build_example1,
    build_tri_grid_with_hole,
    build_triangular_periodic,
)
from latsweep.sweeping import strain_elongations

from helpers import coordinate_rows, random_small_lattice


def structural_rate(system, rdot, elongation_rate=None):
    """Stress rate from the constrained quadratic energy minimization.

    Solves the saddle system for nodal velocities under R zeta_dot = -rdot
    plus an optional imposed elongation rate, then applies Hooke's law.
    """
    compat = compatibility_matrix(system.definition)[0]
    k = system.stiffness
    R = system.definition.constraint_matrix
    nd = compat.shape[1]
    q = R.shape[0]
    Ks = compat.T @ (k[:, None] * compat)
    rhs_top = np.zeros(nd)
    if elongation_rate is not None:
        rhs_top = -compat.T @ (k * elongation_rate)
    kkt = np.block([[Ks, R.T], [R, np.zeros((q, q))]])
    rhs = np.concatenate([rhs_top, -rdot])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    zeta_dot = sol[:nd]
    total = compat @ zeta_dot
    if elongation_rate is not None:
        total = total + elongation_rate
    return k * total


def sweeping_rate(system, rdot, elongation_rate=None):
    out = -(system.stiffness * (system.G @ rdot))
    if elongation_rate is not None:
        P = system.V_basis @ coordinate_rows(system)
        out = out + system.stiffness * (P @ elongation_rate)
    return out


def test_example1_elastic_rate():
    definition, loads = build_example1()
    system = assemble(definition)
    rdot = loads.rdot(0.0)
    a = sweeping_rate(system, rdot)
    b = structural_rate(system, rdot)
    assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-30)


def test_grid_elastic_rate(grid_with_hole):
    _, loads, system = grid_with_hole
    rdot = loads.rdot(0.0)
    a = sweeping_rate(system, rdot)
    b = structural_rate(system, rdot)
    assert np.abs(a - b).max() <= 1e-9 * max(np.abs(b).max(), 1e-30)


def test_periodic_strain_elastic_rate():
    definition, loads = build_triangular_periodic(4, 4)
    system = assemble(definition)
    gamma_rate = loads.gamma_rate(0.0)
    u = strain_elongations(system, loads.strain_axis) * gamma_rate
    a = sweeping_rate(system, np.zeros(2), elongation_rate=u)
    b = structural_rate(system, np.zeros(2), elongation_rate=u)
    assert np.abs(a - b).max() <= 1e-11 * max(np.abs(b).max(), 1e-30)


def test_random_lattices_elastic_rate():
    rng = np.random.default_rng(2718)
    for _ in range(10):
        definition = random_small_lattice(rng)
        system = assemble(definition)
        rdot = rng.standard_normal(definition.n_constraints)
        a = sweeping_rate(system, rdot)
        b = structural_rate(system, rdot)
        assert np.abs(b).max() > 1e-12  # two pinned nodes: motion loads springs
        assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()
