import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from latsweep import assembly, cli
from latsweep.assembly import (
    assemble,
    compatibility_matrix,
    constraint_factors,
    determinacy_ranks,
    validate_assumptions,
)
from latsweep.errors import AssumptionError, DegenerateSpringError
from latsweep.catchup import TimePartition, catchup
from latsweep.generators import (
    EXAMPLE1_SELF_STRESS_BASIS,
    build_example1,
    build_tri_grid_with_hole,
    build_triangular_periodic,
)
from latsweep.lattice import LatticeDefinition
from latsweep.leapfrog import leapfrog
from latsweep.linalg import PANEL, nullspace_basis, numerical_rank, weighted_gram
from latsweep.sweeping import Space, build_moving_set, initial_state, safe_load_check

from helpers import (
    braced_square_frame,
    coordinate_rows,
    counted_svd,
    elongation_projector,
    enhanced_pinv_top,
    random_small_lattice,
    relabel_springs,
    triangle_lattice as triangle,
)


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
    compat = compatibility_matrix(system.definition)[0]
    assert np.abs(compat @ translation).max() <= 1e-12
    translation_y = np.tile([0.0, 1.0], 6)
    assert np.abs(compat @ translation_y).max() <= 1e-12


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
    total = system.U_basis @ elongation_projector(system) + system.V_basis @ coordinate_rows(system)
    assert np.abs(total - np.eye(m)).max() <= 1e-10


def test_direction_rows_unit(example1, grid_with_hole, periodic_patch):
    for _, _, system in (example1, grid_with_hole, periodic_patch):
        norms = np.linalg.norm(system.directions, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12


def test_projector_matches_reference_basis(example1):
    _, _, system = example1
    V = EXAMPLE1_SELF_STRESS_BASIS
    reference = V @ np.linalg.solve(V.T @ V, V.T)  # stiffness is identity here
    ours = system.V_basis @ coordinate_rows(system)
    assert np.abs(ours - reference).max() <= 1e-6


def test_projector_idempotent_and_self_adjoint(example1, grid_with_hole):
    for _, _, system in (example1, grid_with_hole):
        P = system.V_basis @ coordinate_rows(system)
        assert np.abs(P @ P - P).max() <= 1e-10
        K = np.diag(system.stiffness)
        assert np.abs(K @ P - P.T @ K).max() <= 1e-10


def test_load_images_live_in_fundamental_spaces(example1, grid_with_hole):
    rng = np.random.default_rng(2)
    for _, _, system in (example1, grid_with_hole):
        P = system.V_basis @ coordinate_rows(system)
        for _ in range(5):
            r = rng.standard_normal(system.dims.n_constraints)
            gr = system.G @ r
            assert np.linalg.norm(gr - P @ gr) <= 1e-8 * max(np.linalg.norm(gr), 1e-30)
            f = rng.standard_normal(system.dims.n_nodes * system.dims.dimension)
            ff = system.F @ f
            assert np.linalg.norm(P @ ff) <= 1e-8 * max(np.linalg.norm(ff), 1e-30)


def test_h_is_top_block_of_enhanced_pseudoinverse(example1):
    definition, _, system = example1
    stacked = np.hstack([compatibility_matrix(definition)[0].T, definition.constraint_matrix.T])
    # right inverse on a kinematically determinate lattice
    full_pinv = np.linalg.pinv(stacked)
    assert np.abs(enhanced_pinv_top(system) - full_pinv[:10]).max() <= 1e-10
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


def _support_shape(R):
    """The shape of ``R_S``, the columns of ``R`` that hold a nonzero."""
    return R.shape[0], int(np.count_nonzero(np.any(R != 0, axis=0)))


def test_assemble_takes_one_svd(monkeypatch, example1, grid_with_hole):
    # values only, of R's support for its rank: a QR of R_S^T gives U and G,
    # and the triangle of K^(1/2) U's QR certifies the rank check with no SVD
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for definition, _, _ in (example1, grid_with_hole):
        calls.clear()
        assemble(definition)
        assert calls == [(_support_shape(definition.constraint_matrix), False)]


def test_assemble_forms_no_square_orthogonal_factor(monkeypatch, example1, grid_with_hole):
    # every QR keeps its reflectors and sees one panel's columns, and the
    # triangles are inverted in blocks no wider than a panel
    calls = []
    qr, inv = np.linalg.qr, np.linalg.inv

    def logged_qr(a, mode="reduced"):
        calls.append(("qr", mode, np.shape(a)[1]))
        return qr(a, mode=mode)

    def logged_inv(a):
        calls.append(("inv", max(np.shape(a))))
        return inv(a)

    monkeypatch.setattr(np.linalg, "qr", logged_qr)
    monkeypatch.setattr(np.linalg, "inv", logged_inv)
    for definition, _, _ in (example1, grid_with_hole):
        calls.clear()
        system = assemble(definition)
        factored = [c for c in calls if c[0] == "qr"]
        assert factored and all(mode == "raw" and width <= PANEL for _, mode, width in factored)
        # K^(1/2) U alone has dim_u columns: a panel per PANEL of them at most
        assert sum(width for _, _, width in factored) >= system.dims.dim_u
        assert all(c[1] <= PANEL for c in calls if c[0] == "inv")


def test_assemble_determinacy_verdict_matches_rigidity_report():
    # both read rank [C; R] as rank R + rank U for U = C ker(R): the verdicts
    # agree with pinned, partly pinned and free rotations
    rng = np.random.default_rng(654)
    verdicts = []
    for _ in range(10):
        definition = random_small_lattice(rng)
        for rows in (4, 3, 1):
            d = dataclasses.replace(definition, constraint_matrix=definition.constraint_matrix[:rows])
            if d.n_springs - d.n_dof + d.n_constraints <= 0:
                continue
            determinate = validate_assumptions(d).kinematically_determinate
            verdicts.append(determinate)
            if determinate:
                assert assemble(d).dims.dim_v > 0
            else:
                with pytest.raises(AssumptionError, match="not kinematically determinate"):
                    assemble(d)
    assert any(verdicts) and not all(verdicts)


def _assemble_verdict(definition):
    try:
        assemble(definition)
    except AssumptionError as exc:
        return str(exc)
    return "assembled"


@pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e8, 1e12])
def test_assumption_verdicts_do_not_depend_on_constraint_units(scale):
    # rank R and rank U are each taken against their own largest singular
    # value, so R in other units changes neither counts nor verdicts
    rng = np.random.default_rng(97)
    lattices = [build_example1()[0], build_tri_grid_with_hole()[0]]
    for _ in range(4):
        definition = random_small_lattice(rng)
        R = definition.constraint_matrix
        lattices += [
            dataclasses.replace(definition, constraint_matrix=R[:rows]) for rows in (4, 3, 1)
        ]
        lattices.append(dataclasses.replace(definition, constraint_matrix=np.vstack([R, R[:1]])))
    verdicts = set()
    for definition in lattices:
        scaled = dataclasses.replace(definition, constraint_matrix=scale * definition.constraint_matrix)
        assert validate_assumptions(scaled) == validate_assumptions(definition)
        verdict = _assemble_verdict(definition)
        assert _assemble_verdict(scaled) == verdict
        verdicts.add(verdict.split(" (")[0])
    assert len(verdicts) >= 3  # assembled, rank deficient R, not determinate


def test_rank_tests_take_no_svd_of_the_stacked_matrix(monkeypatch):
    calls = counted_svd(monkeypatch)
    for build in (build_example1, build_tri_grid_with_hole, lambda: build_triangular_periodic(4, 4)):
        calls.clear()
        definition, _ = build()
        validate_assumptions(definition)
        m, q, nd = definition.n_springs, definition.n_constraints, definition.n_dof
        assert calls and not {(m + q, nd), (nd, m + q)} & set(calls)


def test_assemble_takes_no_svd_of_the_enhanced_matrix(monkeypatch, example1, grid_with_hole):
    # the rank check reads the triangle of K^(1/2) U's QR, neither [C^T R^T]
    # nor an SVD of that triangle
    calls = counted_svd(monkeypatch)
    for definition, _, _ in (example1, grid_with_hole):
        calls.clear()
        system = assemble(definition)
        dim_u = system.dims.dim_u
        assert calls == [_support_shape(definition.constraint_matrix)]
        assert (dim_u, dim_u) not in calls
        assert (definition.n_dof, definition.n_springs + definition.n_constraints) not in calls


def _rule_matches_singular_values(definition):
    """The shared rule's ``rank U`` against ``numerical_rank(U)``."""
    compat, _, _ = compatibility_matrix(definition)
    U = compat @ constraint_factors(definition.constraint_matrix)[1]
    rank_U = determinacy_ranks(definition)[1]
    assert (rank_U == U.shape[1]) == (numerical_rank(U) == U.shape[1])
    return rank_U == U.shape[1]


def test_rank_rule_matches_singular_values_of_u():
    # the triangle's certificate decides only where it agrees with the
    # singular values of U: with constraint rows stripped, and at uniform
    # stiffness or a contrast of 10^12 around 10^+-6
    rng = np.random.default_rng(46)
    verdicts = set()
    for _ in range(10):
        definition = random_small_lattice(rng)
        m = definition.n_springs
        for rows in (4, 3, 1, 0):
            for k in (definition.stiffness, np.full(m, 1e6), np.full(m, 1e-6), 10 ** rng.uniform(-6, 6, m)):
                d = dataclasses.replace(definition, stiffness=k, constraint_matrix=definition.constraint_matrix[:rows])
                verdicts.add(_rule_matches_singular_values(d))
    assert verdicts == {True, False}


def _nearly_collinear_lattice(offset):
    """The braced unit square with node 0 pinned and node 1 on rollers, and
    a fifth node joined to nodes 0 and 1, ``offset`` off their midpoint:
    its motion across that edge stretches its springs only by ``offset``."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (0, 4), (4, 1)]
    Q = np.zeros((5, len(edges)))
    for s, (a, b) in enumerate(edges):
        Q[a, s], Q[b, s] = 1.0, -1.0
    R = np.zeros((3, 10))
    R[0, 0] = R[1, 1] = R[2, 3] = 1.0
    return LatticeDefinition(
        incidence=Q,
        reference_coords=np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.5, offset]),
        dimension=2,
        stiffness=np.ones(len(edges)),
        lower_limits=-np.ones(len(edges)),
        upper_limits=np.ones(len(edges)),
        constraint_matrix=R,
    )


@pytest.mark.parametrize("offset, determinate", [(2e-10, True), (5e-11, False)])
def test_rank_rule_falls_back_to_singular_values_past_the_certificate(monkeypatch, offset, determinate):
    # cond U is 4e9 at offset 2e-10: full rank under the 1e-10 cutoff, yet
    # the certificate's bound (6.9e9) is past 0.5e10, so the singular values
    # of U (8 x 7) decide; at 5e-11 they find it rank deficient
    definition = _nearly_collinear_lattice(offset)
    assert _rule_matches_singular_values(definition) == determinate
    calls = counted_svd(monkeypatch)
    assert validate_assumptions(definition).kinematically_determinate == determinate
    assert (8, 7) in calls
    calls.clear()
    if determinate:
        assert assemble(definition).dims.dim_v == 1
    else:
        with pytest.raises(AssumptionError, match="not kinematically determinate"):
            assemble(definition)
    assert calls == [(3, 3), (8, 7)]  # R_S holds R's three pinned columns


def _mean_fixed_patch():
    """The periodic 4 x 4 patch held by rows that fix its mean displacement
    in place of a pinned node: every column of ``R`` is in its support."""
    definition, loads = build_triangular_periodic(4, 4)
    R = np.zeros((2, definition.n_dof))
    R[0, 0::2] = R[1, 1::2] = 1.0 / definition.n_nodes
    definition = dataclasses.replace(definition, constraint_matrix=R)
    return definition, dataclasses.replace(loads, displacement_offset=-R @ definition.reference_coords)


def _tied_example1(extra_rows=()):
    """Example1 with a tie row ``u_0,x - u_1,x = 0`` below its pins, and
    ``extra_rows`` below that: the support block ``R_S`` has a kernel."""
    definition, loads = build_example1()
    tie = np.zeros(definition.n_dof)
    tie[0], tie[2] = 1.0, -1.0
    R = np.vstack([definition.constraint_matrix, tie, *extra_rows])
    extra = R.shape[0] - definition.n_constraints
    definition = dataclasses.replace(definition, constraint_matrix=R)
    return definition, dataclasses.replace(
        loads,
        displacement_offset=-R @ definition.reference_coords,
        rate_values=np.hstack([loads.rate_values, np.zeros((loads.rate_values.shape[0], extra))]),
    )


def _renumbered_nodes(definition, perm):
    """The same lattice with new node ``j`` being old node ``perm[j]``: the
    columns of ``R`` are permuted with the nodes."""
    d = definition.dimension
    dofs = (d * perm[:, None] + np.arange(d)).ravel()
    return dataclasses.replace(
        definition,
        incidence=definition.incidence[perm],
        reference_coords=definition.reference_coords[dofs],
        constraint_matrix=definition.constraint_matrix[:, dofs],
    )


def _leapfrog_events(definition, loads):
    system = assemble(definition)
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, Space.REDUCED, spec)
    return leapfrog(system, spec, state0, loads).events


@pytest.mark.parametrize("build", [_mean_fixed_patch, _tied_example1], ids=["full-support", "support-kernel"])
def test_support_factors_match_the_definitions_on_all_of_r(build):
    # U, G and F from R's support and free columns against their
    # definitions on the whole of R, from its SVD
    definition, loads = build()
    R = definition.constraint_matrix
    system = assemble(definition)
    C, k = compatibility_matrix(definition)[0], system.stiffness
    N = nullspace_basis(R)
    assert system.dims.dim_u == N.shape[1]
    assert np.max(scipy.linalg.subspace_angles(system.U_basis, C @ N)) <= 1e-12
    R_pinv = np.linalg.pinv(R)
    G = system.V_basis @ (coordinate_rows(system) @ (C @ R_pinv))
    # a mean translation stretches no spring of the patch: its G is rounding
    assert np.abs(system.G - G).max() <= 1e-12 * np.abs(C).max() * np.abs(R_pinv).max()
    U = C @ N
    F = U @ np.linalg.solve(U.T @ (k[:, None] * U), N.T)
    assert np.abs(system.F - F).max() <= 1e-12 * np.abs(F).max()

    events = _leapfrog_events(definition, loads)
    perm = np.random.default_rng(29).permutation(definition.n_nodes)
    moved = _leapfrog_events(_renumbered_nodes(definition, perm), loads)
    assert events and [e.newly_active for e in moved] == [e.newly_active for e in events]
    times = np.array([e.time for e in events])
    assert np.abs(np.array([e.time for e in moved]) - times).max() <= 1e-9 * times.max()


def test_rank_deficient_constraint_is_still_refused():
    # a row that is the sum of the tie and a pin: R_S loses a rank
    definition, _ = _tied_example1()
    R = definition.constraint_matrix
    deficient, _ = _tied_example1(extra_rows=[R[0] + R[-1]])
    q = deficient.n_constraints
    with pytest.raises(AssumptionError, match="rank deficient"):
        assemble(deficient)
    report = validate_assumptions(deficient)
    assert report.constraint_rank == q - 1
    assert report.kinematically_determinate  # the diagnostics still read ker R


def test_basis_is_stiffness_orthonormal_and_spaces_agree_at_contrast_1e12():
    # W from the QR of K^(1/2) U is orthonormal whatever the stiffness, so
    # V = K^(-1/2) W stays K-orthonormal at twelve decades of contrast
    definition, loads = build_tri_grid_with_hole()
    k = 10 ** np.random.default_rng(11).uniform(-6, 6, definition.n_springs)
    scale = k / definition.stiffness
    definition = dataclasses.replace(
        definition,
        stiffness=k,
        lower_limits=definition.lower_limits * scale,
        upper_limits=definition.upper_limits * scale,
    )
    system = assemble(definition)
    V = system.V_basis
    assert np.abs(V.T @ (k[:, None] * V) - np.eye(system.dims.dim_v)).max() <= 1e-12
    runs = []
    for space in (Space.FULL, Space.REDUCED):
        spec = build_moving_set(system, space, loads)
        state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
        runs.append(leapfrog(system, spec, state0, loads))
    full, reduced = runs
    assert len(full.events) == len(reduced.events) >= 5
    for a, b in zip(full.events, reduced.events):
        assert a.newly_active == b.newly_active
        assert a.newly_released == b.newly_released
        assert abs(a.time - b.time) <= 1e-12 * b.time


def test_solves_without_force_load_build_no_force_map():
    definition, loads = build_tri_grid_with_hole()
    system = assemble(definition)
    assert loads.force_times is None
    for space in (Space.FULL, Space.REDUCED):
        spec = build_moving_set(system, space, loads)
        state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
        leapfrog(system, spec, state0, loads)
        catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 10))
    assert "F" not in vars(system)


def test_force_map_is_built_once_and_read_only():
    definition, base = build_example1()
    system = assemble(definition)
    direction = np.random.default_rng(8).standard_normal(definition.n_dof)
    loads = dataclasses.replace(
        base,
        force_times=np.array([0.0, base.horizon]),
        force_values=np.vstack([np.zeros(definition.n_dof), 4e-4 * direction / np.linalg.norm(direction)]),
    )
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, Space.REDUCED, spec)
    catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 10))
    F = vars(system)["F"]
    assert not F.flags.writeable
    assert system.F is F


def test_force_map_matches_projected_pseudoinverse_at_high_stiffness_contrast():
    # F = U (U^T K U)^-1 N^T is the K-orthogonal projection of K^-1 H onto
    # the elongation space, here over six decades of stiffness
    definition, _ = build_tri_grid_with_hole()
    k = 10 ** np.random.default_rng(11).uniform(-3, 3, definition.n_springs)
    system = assemble(dataclasses.replace(definition, stiffness=k))
    HK = enhanced_pinv_top(system) / k[:, None]
    reference = HK - system.V_basis @ (coordinate_rows(system) @ HK)
    assert np.abs(system.F - reference).max() <= 1e-10 * np.abs(reference).max()


def test_basis_is_stiffness_orthonormal_at_high_stiffness_contrast():
    # the stiffness of test_spaces_agree_at_high_stiffness_contrast
    definition, _ = build_tri_grid_with_hole()
    k = 10 ** np.random.default_rng(11).uniform(-3, 3, definition.n_springs)
    system = assemble(dataclasses.replace(definition, stiffness=k))
    V = system.V_basis
    assert np.abs(V.T @ (k[:, None] * V) - np.eye(system.dims.dim_v)).max() <= 1e-12


@pytest.fixture(scope="module")
def weighted_grid():
    """The grid with hole under non-uniform stiffness."""
    definition, _ = build_tri_grid_with_hole()
    stiffness = np.random.default_rng(5).uniform(0.5, 2, 496)
    return assemble(dataclasses.replace(definition, stiffness=stiffness))


def test_weighted_grid_basis_is_orthonormal_and_stiffness_orthogonal(weighted_grid):
    system = weighted_grid
    V, k = system.V_basis, system.stiffness
    assert np.abs(V.T @ (k[:, None] * V) - np.eye(system.dims.dim_v)).max() <= 1e-12
    assert np.abs(system.U_basis.T @ (k[:, None] * V)).max() <= 1e-10


def test_weighted_grid_projector_matches_nullspace_reference(weighted_grid):
    system = weighted_grid
    k = system.stiffness
    N = scipy.linalg.null_space(system.U_basis.T * k)
    reference = N @ np.linalg.solve(N.T @ (k[:, None] * N), N.T * k)
    assert np.abs(system.V_basis @ coordinate_rows(system) - reference).max() <= 1e-10


def test_weighted_grid_force_map_matches_elongation_projection(weighted_grid):
    system = weighted_grid
    U, k = system.U_basis, system.stiffness
    UK = U.T * k
    reference = U @ np.linalg.solve(UK @ U, UK @ (enhanced_pinv_top(system) / k[:, None]))
    assert np.abs(system.F - reference).max() <= 1e-10 * np.abs(reference).max()


def test_elongation_projector_is_lazy_and_read_only():
    definition, loads = build_example1()
    system = assemble(definition)
    for space in (Space.FULL, Space.REDUCED):
        spec = build_moving_set(system, space, loads)
        state0 = initial_state(system, np.zeros(10), loads, space, spec)
        leapfrog(system, spec, state0, loads)
        catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 50))
    # no solve without a force load reads the dense U
    assert "U_basis" not in vars(system)
    safe_load_check(system, np.ones(system.dims.n_nodes * system.dims.dimension))
    # the elongation projector and H are test oracles: only F, and the dense
    # U that a force load's safe-load set reads, are ever cached
    fields = {f.name for f in dataclasses.fields(system)}
    assert "U_basis" not in fields
    assert set(vars(system)) - fields <= {"F", "U_basis"}
    assert not system.U_basis.flags.writeable and system.U_basis is system.U_basis
    assert not hasattr(system, "P_U") and not hasattr(system, "H")


def _relabelled(definition, seed):
    """The same lattice under a random numbering of its nodes and springs."""
    rng = np.random.default_rng(seed)
    d = definition.dimension
    nodes = rng.permutation(definition.n_nodes)
    dofs = (d * nodes[:, None] + np.arange(d)).ravel()
    moved = dataclasses.replace(
        definition,
        incidence=definition.incidence[nodes],
        reference_coords=definition.reference_coords[dofs],
        constraint_matrix=definition.constraint_matrix[:, dofs],
    )
    return relabel_springs(moved, rng.permutation(definition.n_springs))


def _dense_constraint_lattice():
    """A random lattice held by four dense rows on the dofs of three nodes,
    so that ``ker R_S`` has two columns and every spring at those nodes
    reaches them."""
    rng = np.random.default_rng(31)
    definition = random_small_lattice(rng)
    R = np.zeros((4, definition.n_dof))
    R[:, :6] = rng.standard_normal((4, 6))
    definition = dataclasses.replace(definition, constraint_matrix=R)
    assert constraint_factors(R)[1].block.shape[1] == 2
    return definition


def _band_cases():
    grid, _ = build_tri_grid_with_hole()
    patch, _ = build_triangular_periodic(8, 8)
    return {
        "relabelled grid": _relabelled(grid, 77),
        "8x8 patch": patch,
        "dense constraint rows": _dense_constraint_lattice(),
    }


@pytest.mark.parametrize("case", ["relabelled grid", "8x8 patch", "dense constraint rows"])
def test_band_ordered_projector_matches_a_dense_nullspace_reference(case):
    # the self-stresses are the spring blocks s of ker [C^T R^T], and the
    # plane is K^-1 of their span: its K-orthogonal projector, from one SVD
    definition = _band_cases()[case]
    system = assemble(definition)
    compat, k = compatibility_matrix(definition)[0], system.stiffness
    m = definition.n_springs
    stresses = nullspace_basis(np.hstack([compat.T, definition.constraint_matrix.T]))[:m]
    plane = stresses / k[:, None]
    reference = plane @ np.linalg.solve(plane.T @ (k[:, None] * plane), plane.T * k)
    assert plane.shape[1] == system.dims.dim_v
    assert np.abs(system.V_basis @ coordinate_rows(system) - reference).max() <= 1e-12


def _certificate_bound(monkeypatch, definition):
    """The bound ``||U||_F ||T^-1||_F sqrt(k_max)`` on the triangle that
    assemble hands to the rank certificate."""
    bounds = []
    certify = assembly._elongation_rank

    def recorded(definition, N, directions, U_kernel, T):
        U = assembly._elongation_basis(definition, N, directions, U_kernel)
        root_k_max = np.sqrt(definition.stiffness.max())
        bounds.append(np.linalg.norm(U) * np.linalg.norm(np.linalg.inv(T)) * root_k_max)
        assert assembly._elongation_norm(definition, N, directions, U_kernel) == pytest.approx(
            np.linalg.norm(U), rel=1e-14
        )
        return certify(definition, N, directions, U_kernel, T)

    monkeypatch.setattr(assembly, "_elongation_rank", recorded)
    system = assemble(definition)
    monkeypatch.undo()
    return bounds[0], system


@pytest.mark.parametrize("case", ["relabelled grid", "8x8 patch", "dense constraint rows"])
def test_certificate_bound_does_not_depend_on_numbering(monkeypatch, case):
    # ||T^-1||_F = ||(K^(1/2) U)^+||_F, which no row or column order moves
    definition = _band_cases()[case]
    bound, system = _certificate_bound(monkeypatch, definition)
    U, root_k = system.U_basis, np.sqrt(system.stiffness)
    reference = np.linalg.norm(U) * np.linalg.norm(np.linalg.pinv(root_k[:, None] * U)) * root_k.max()
    assert bound == pytest.approx(reference, rel=1e-10)
    for seed in (1, 2):
        relabelled, _ = _certificate_bound(monkeypatch, _relabelled(definition, seed))
        assert relabelled == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("case", ["relabelled grid", "8x8 patch", "dense constraint rows"])
def test_band_gather_is_k_root_u_reordered_and_banded(case):
    # written from the spring endpoints and U_kernel alone, the gathered
    # entries hold all of K^(1/2) U, with its rows and columns permuted and
    # no nonzero outside each row's span
    definition = _band_cases()[case]
    N = constraint_factors(definition.constraint_matrix)[1]
    U = compatibility_matrix(definition)[0] @ N
    directions = assembly._directions(definition)[0]
    U_kernel = assembly._kernel_columns(definition, N, directions)[1]
    root_k = np.sqrt(definition.stiffness)
    (i, j, v), rows, first, last = assembly._band_gather(definition, N, directions, U_kernel, root_k)
    assert np.all(np.diff(i) >= 0)  # entries in row order
    A = np.zeros(U.shape)
    A[i, j] = v
    assert np.array_equal(np.sort(rows), np.arange(U.shape[0]))
    B = (root_k[:, None] * U)[rows]
    by_bytes = {B[:, j].tobytes(): j for j in range(B.shape[1])}
    cols = [by_bytes.get(A[:, c].tobytes(), -1) for c in range(A.shape[1])]
    assert sorted(cols) == list(range(U.shape[1]))
    assert np.all(np.diff(first) >= 0)
    column = np.arange(U.shape[1])
    assert not A[(column < first[:, None]) | (column > last[:, None])].any()
    if case == "relabelled grid":  # reverse Cuthill-McKee undoes the numbering
        assert (last - first).max() < PANEL


def _dense_route_cases():
    return {
        "example1": build_example1()[0],
        "grid": build_tri_grid_with_hole()[0],
        "8x8 patch": build_triangular_periodic(8, 8)[0],
        "dense constraint rows": _dense_constraint_lattice(),
    }


@pytest.mark.parametrize("case", ["example1", "grid", "8x8 patch", "dense constraint rows"])
def test_assemble_matches_the_dense_compatibility_route_bit_for_bit(case):
    # U and G come from C's support columns and endpoints, U itself only on
    # first read: each equals what the dense C gives, bit for bit
    definition = _dense_route_cases()[case]
    system = assemble(definition)
    assert "U_basis" not in vars(system)
    compat = compatibility_matrix(definition)[0]
    _, N, R_pinv = constraint_factors(definition.constraint_matrix)
    V, k = system.V_basis, system.stiffness
    for built, dense in (
        (system.U_basis, compat @ N),
        (system.G, V @ (V.T @ (k[:, None] * (compat[:, N.support] @ R_pinv)))),
    ):
        assert built.shape == dense.shape and built.tobytes() == dense.tobytes()
    assert not system.U_basis.flags.writeable
    assert system.U_basis is system.U_basis


def test_solve_and_generate_never_form_the_dense_compatibility(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense compatibility matrix or U was formed")

    monkeypatch.setattr(assembly, "compatibility_matrix", refuse)
    monkeypatch.setattr(assembly, "_elongation_basis", refuse)
    net = tmp_path / "grid.json"
    assert cli.main(["generate", "grid", "--out", str(net)]) == 0
    for solver in ("leapfrog", "catchup"):
        for space in ("full", "reduced"):
            argv = ["solve", str(net), "--solver", solver, "--space", space, "--out", str(tmp_path / "out")]
            assert cli.main(argv) == 0


def test_rank_certificate_allocates_less_than_its_triangle():
    # T is inverted in its own place: no second n x n array, and no n x n
    # product, above what is alive on entry
    definition = build_tri_grid_with_hole()[0]
    _, N, _ = constraint_factors(definition.constraint_matrix)
    directions = assembly._directions(definition)[0]
    U_kernel = assembly._kernel_columns(definition, N, directions)[1]
    T = assembly._factor_elongations(definition, N, directions, U_kernel, np.sqrt(definition.stiffness))[0]
    n = T.shape[1]
    assert n == 340
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        rank = assembly._elongation_rank(definition, N, directions, U_kernel, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == n
    assert peak - entry < n * n * np.dtype(float).itemsize


def test_assemble_peak_holds_no_dense_u_beside_its_band_gather():
    # the band QR works on one front at a time from the gathered entries:
    # its triangle, the reflectors and the front set the peak, with no
    # dense m x dim_u gather or U beside them (a dense gather read 2.37 and
    # 2.09 m x dim_u arrays)
    for build, dim_u, bound in (
        (build_tri_grid_with_hole, 340, 2.0),
        (lambda: build_triangular_periodic(16, 16), 510, 1.75),
    ):
        definition = build()[0]
        m = definition.n_springs
        tracemalloc.start()
        try:
            system = assemble(definition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert system.dims.dim_u == definition.n_dof - definition.n_constraints == dim_u
        assert peak < bound * m * dim_u * np.dtype(float).itemsize


def test_rigidity_report_counts_zero_modes_as_the_dense_svd_does():
    # validate_assumptions reads rank C from the triangle of C's band QR:
    # the singular values of C, so the same count as a values-only SVD of
    # the dense C, on grids, periodic patches and lattices with mechanisms
    rng = np.random.default_rng(123)
    braced = braced_square_frame()
    open_square = dataclasses.replace(  # the braced square without its diagonals: one mechanism
        braced, incidence=braced.incidence[:, :4], stiffness=np.ones(4),
        lower_limits=-np.ones(4), upper_limits=np.ones(4),
    )
    lattices = [build_example1()[0], triangle(), braced, open_square, single_spring()]
    lattices += [build_tri_grid_with_hole(rows, cols)[0] for rows, cols in ((15, 14), (20, 19), (30, 28))]
    lattices += [build_triangular_periodic(cells, cells)[0] for cells in (2, 4, 8, 16, 24)]
    lattices += [random_small_lattice(rng) for _ in range(10)]
    mechanisms = 0
    for definition in lattices:
        rank_C = numerical_rank(compatibility_matrix(definition)[0])
        report = validate_assumptions(definition)
        assert report.zero_modes == definition.n_dof - rank_C
        assert report.self_stress_states == definition.n_springs - rank_C
        mechanisms += report.mechanisms > 0
    assert mechanisms


def test_force_map_and_safe_load_check_read_the_kept_constraint_kernel(monkeypatch, grid_with_hole):
    # F and the safe-load set read the N that assemble keeps, with no second
    # factorization of R, and F is what that factorization gave, bit for bit
    definition = grid_with_hole[0]
    system = assemble(definition)
    N = constraint_factors(definition.constraint_matrix)[1]

    def refuse(R):
        raise AssertionError("R was factored again")

    monkeypatch.setattr(assembly, "constraint_factors", refuse)
    F = system.F
    assert "U_basis" not in vars(system)  # F forms its own dense U and drops it
    U, k = system.U_basis, system.stiffness
    reference = (N @ np.linalg.solve(weighted_gram(U, k), U.T)).T
    assert F.tobytes() == reference.tobytes()
    assert safe_load_check(system, np.zeros(definition.n_dof))
    assert not safe_load_check(system, np.full(definition.n_dof, 1e6))


def test_balance_is_u_transpose_without_u(example1, grid_with_hole):
    rng = np.random.default_rng(8)
    for system in (example1[2], grid_with_hole[2], assemble(_dense_constraint_lattice())):
        s = rng.standard_normal(system.dims.n_springs)
        U = system.U_basis
        assert np.allclose(system.balance(s), U.T @ s, rtol=0, atol=1e-13)
        assert np.allclose(system.balance(s, absolute=True), np.abs(U).T @ s, rtol=0, atol=1e-13)


def test_assembled_systems_compare_by_identity():
    definition = build_example1()[0]
    system = assemble(definition)
    assert system == system and system != assemble(definition)
