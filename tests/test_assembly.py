import numpy as np
import pytest

from latsweep.assembly import (
    assemble,
    basis_independent_projector,
    compatibility_matrix,
    validate_assumptions,
)
from latsweep.errors import AssumptionError, DegenerateSpringError
from latsweep.generators import EXAMPLE1_SELF_STRESS_BASIS
from latsweep.lattice import LatticeDefinition

from helpers import braced_square_frame, random_small_lattice, triangle_lattice as triangle


def single_spring(coords=(0.0, 0.0, 1.0, 0.0)):
    return LatticeDefinition(
        incidence=np.array([[1.0], [-1.0]]),
        reference_coords=np.array(coords),
        dimension=2,
        stiffness=np.ones(1),
        lower_limits=-np.ones(1),
        upper_limits=np.ones(1),
        constraint_matrix=np.zeros((0, 4)),
    )


def test_single_spring_hand_linearization():
    compat, directions, lengths = compatibility_matrix(single_spring())
    assert np.allclose(compat, [[-1.0, 0.0, 1.0, 0.0]])
    assert np.allclose(directions, [[-1.0, 0.0]])
    assert np.allclose(lengths, [1.0])


def test_rigid_translation_is_zero_mode(example1):
    _, _, system = example1
    translation = np.tile([1.0, 0.0], 6)
    assert np.abs(system.compatibility @ translation).max() <= 1e-12
    translation_y = np.tile([0.0, 1.0], 6)
    assert np.abs(system.compatibility @ translation_y).max() <= 1e-12


def test_degenerate_spring_raises():
    with pytest.raises(DegenerateSpringError):
        compatibility_matrix(single_spring((0.0, 0.0, 0.0, 0.0)))


def test_example1_rigidity_report(example1):
    definition, _, _ = example1
    report = validate_assumptions(definition)
    assert report.zero_modes == 3
    assert report.self_stress_states == 1
    assert report.index_residual == 0
    assert report.mechanisms == 0
    assert report.kinematically_determinate
    assert not report.statically_determinate
    assert report.constrained_self_stress_states == 2


def test_triangle_spot_check():
    report = validate_assumptions(triangle())
    assert report.zero_modes == 3
    assert report.self_stress_states == 0
    assert report.index_residual == 0


def test_square_with_diagonals_spot_check():
    report = validate_assumptions(braced_square_frame())
    assert report.self_stress_states == 1
    assert report.zero_modes == 3


def test_example1_dimensions(example1):
    _, _, system = example1
    assert system.dims.dim_u == 8
    assert system.dims.dim_v == 2
    assert not hasattr(system, "W")  # reduced bound rows are V_basis itself


def test_grid_dimensions(grid_with_hole):
    definition, _, system = grid_with_hole
    assert (definition.n_nodes, definition.n_springs) == (198, 496)
    assert definition.n_constraints == 56
    assert system.dims.dim_v == 156


def test_orthogonality_in_stiffness_metric(example1, grid_with_hole):
    for _, _, system in (example1, grid_with_hole):
        k = system.stiffness
        cross = system.U_basis.T @ (k[:, None] * system.V_basis)
        assert np.abs(cross).max() <= 1e-8


def test_projector_decomposition(example1):
    _, _, system = example1
    m = system.dims.n_springs
    total = system.U_basis @ system.P_U + system.V_basis @ system.P_V
    assert np.abs(total - np.eye(m)).max() <= 1e-10


def test_direction_rows_unit(example1, grid_with_hole, periodic_patch):
    for _, _, system in (example1, grid_with_hole, periodic_patch):
        norms = np.linalg.norm(system.directions, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12


def test_projector_matches_reference_basis(example1):
    _, _, system = example1
    V = EXAMPLE1_SELF_STRESS_BASIS
    reference = V @ np.linalg.solve(V.T @ V, V.T)  # stiffness is identity here
    ours = basis_independent_projector(system)
    assert np.abs(ours - reference).max() <= 1e-6


def test_projector_idempotent_and_self_adjoint(example1, grid_with_hole):
    for _, _, system in (example1, grid_with_hole):
        P = basis_independent_projector(system)
        assert np.abs(P @ P - P).max() <= 1e-10
        K = np.diag(system.stiffness)
        assert np.abs(K @ P - P.T @ K).max() <= 1e-10


def test_load_images_live_in_fundamental_spaces(example1, grid_with_hole):
    rng = np.random.default_rng(2)
    for _, _, system in (example1, grid_with_hole):
        P = basis_independent_projector(system)
        for _ in range(5):
            r = rng.standard_normal(system.dims.n_constraints)
            gr = system.G @ r
            assert np.linalg.norm(gr - P @ gr) <= 1e-8 * max(np.linalg.norm(gr), 1e-30)
            f = rng.standard_normal(system.dims.n_nodes * system.dims.dimension)
            ff = system.F @ f
            assert np.linalg.norm(P @ ff) <= 1e-8 * max(np.linalg.norm(ff), 1e-30)


def test_h_is_top_block_of_enhanced_pseudoinverse(example1):
    definition, _, system = example1
    stacked = np.hstack([system.compatibility.T, definition.constraint_matrix.T])
    # right inverse on a kinematically determinate lattice
    full_pinv = np.linalg.pinv(stacked)
    assert np.abs(system.H - full_pinv[:10]).max() <= 1e-10
    assert np.abs(stacked @ full_pinv - np.eye(12)).max() <= 1e-10


def test_assumption_errors_are_named():
    # rank-deficient constraint matrix
    bad_R = triangle(q_rows=3)
    R = np.array(bad_R.constraint_matrix)
    R[2] = R[0]
    duplicated = LatticeDefinition(
        incidence=bad_R.incidence,
        reference_coords=bad_R.reference_coords,
        dimension=2,
        stiffness=bad_R.stiffness,
        lower_limits=bad_R.lower_limits,
        upper_limits=bad_R.upper_limits,
        constraint_matrix=R,
    )
    with pytest.raises(AssumptionError, match="rank"):
        assemble(duplicated)
    # unconstrained lattice keeps its rigid motions
    with pytest.raises(AssumptionError, match="determinate"):
        assemble(triangle(q_rows=0))
    # fully constrained triangle has no self-stress states
    with pytest.raises(AssumptionError, match="self-stress"):
        assemble(triangle(q_rows=3))


def test_index_theorem_on_random_lattices():
    rng = np.random.default_rng(123)
    for _ in range(25):
        definition = random_small_lattice(rng)
        report = validate_assumptions(definition)
        assert report.index_residual == 0


def test_determinacy_iff_all_loads_resolvable():
    # image of the enhanced equilibrium matrix spans all of R^{nd} exactly
    # when the kernel of the enhanced compatibility matrix is trivial
    rng = np.random.default_rng(321)
    from latsweep.linalg import numerical_rank

    for _ in range(10):
        definition = random_small_lattice(rng)
        for strip_constraints in (False, True):
            R = definition.constraint_matrix[:1] if strip_constraints else definition.constraint_matrix
            d = LatticeDefinition(
                incidence=definition.incidence,
                reference_coords=definition.reference_coords,
                dimension=2,
                stiffness=definition.stiffness,
                lower_limits=definition.lower_limits,
                upper_limits=definition.upper_limits,
                constraint_matrix=R,
            )
            compat, _, _ = compatibility_matrix(d)
            resolvable = numerical_rank(np.hstack([compat.T, R.T])) == d.n_dof
            report = validate_assumptions(d)
            assert resolvable == report.kinematically_determinate
