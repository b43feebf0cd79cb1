import numpy as np
import pytest
from scipy.optimize import lsq_linear

from latsweep import projection
from latsweep.catchup import TimePartition, catchup
from latsweep.errors import ConeProjectionError, InfeasibleSetError, InvalidInputError
from latsweep.leapfrog import leapfrog, tangent_cone
from latsweep.linalg import numerical_rank
from latsweep.projection import (
    PolyhedralSet,
    find_feasible_point,
    project,
    project_cone,
)
from latsweep.sweeping import Space, build_moving_set, initial_state, static_set

from helpers import (
    abstract_catchup,
    box_offset,
    coordinate_rows,
    full_form_rows,
    full_form_set,
    polar_projection_oracle,
    projection_oracle,
    random_cone_problem,
    random_projection_problem,
    random_spd,
)


def unit_box(n):
    return PolyhedralSet(A=np.vstack([np.eye(n), -np.eye(n)]), b=np.ones(2 * n))


def s_norm(S, v):
    Sv = S * v if np.ndim(S) == 1 else S @ v
    return np.sqrt(v @ Sv)


def test_interior_point_is_fixed():
    res = project(np.ones(2), np.array([0.2, -0.3]), unit_box(2))
    assert np.allclose(res.point, [0.2, -0.3], atol=1e-12)
    assert res.active_inequalities == ()


def test_identity_weight_clamps_to_box():
    res = project(np.ones(2), np.array([2.0, 0.5]), unit_box(2))
    assert np.allclose(res.point, [1.0, 0.5], atol=1e-10)
    assert res.active_inequalities == (0,)


def test_weighted_halfplane_hand_kkt():
    # diag(1, 4) weight onto {y1 + y2 <= 1}: multiplier 12/5 by hand
    S = np.array([1.0, 4.0])
    poly = PolyhedralSet(A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
    res = project(S, np.array([2.0, 2.0]), poly)
    assert np.allclose(res.point, [-0.4, 1.4], atol=1e-9)


def test_weighted_halfplane_matches_grid_search():
    S = np.array([1.0, 4.0])
    x = np.array([2.0, 2.0])
    grid = np.linspace(-3, 3, 601)
    best, best_obj = None, np.inf
    for y1 in grid:
        y2 = np.minimum(1.0 - y1, grid)
        obj = S[0] * (y1 - x[0]) ** 2 + S[1] * (y2 - x[1]) ** 2
        i = int(np.argmin(obj))
        if obj[i] < best_obj:
            best_obj, best = obj[i], np.array([y1, y2[i]])
    poly = PolyhedralSet(A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
    res = project(S, x, poly)
    assert np.linalg.norm(res.point - best) < 2e-2  # grid resolution


def test_start_is_checked_as_the_target_is():
    # A start of the wrong shape or with a NaN entry is a named error, not
    # a silent phase 1 or a NaN counted as feasible.
    box = unit_box(2)
    for start in (np.zeros(3), np.zeros((2, 1)), np.array([np.nan, 0.0]), np.array([np.inf, 0.0])):
        with pytest.raises(InvalidInputError):
            project(np.ones(2), np.array([2.0, 0.5]), box, start=start)
    # a finite start outside the set still falls back on phase 1
    res = project(np.ones(2), np.array([2.0, 0.5]), box, start=np.array([5.0, 0.0]))
    assert np.allclose(res.point, [1.0, 0.5], atol=1e-10)


def test_violation_propagates_nan():
    box = unit_box(2)
    assert np.isnan(box.violation(np.array([np.nan, 0.0])))
    assert not box.contains([np.nan, 0.0])
    plane = PolyhedralSet(A=np.zeros((0, 2)), b=np.zeros(0), A_eq=np.array([[1.0, 1.0]]))
    assert np.isnan(plane.violation(np.array([0.0, np.nan])))
    assert box.violation(np.array([0.5, 0.0])) == 0.0


def test_infeasible_set_raises():
    poly = PolyhedralSet(
        A=np.array([[1.0, 0.0], [-1.0, 0.0]]), b=np.array([0.0, -1.0])
    )
    with pytest.raises(InfeasibleSetError):
        project(np.ones(2), np.zeros(2), poly)
    with pytest.raises(InfeasibleSetError):
        find_feasible_point(poly)


def test_equality_only_set():
    poly = PolyhedralSet(
        A=np.zeros((0, 2)),
        b=np.zeros(0),
        A_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([1.0]),
    )
    res = project(np.ones(2), np.array([3.0, 0.0]), poly)
    assert np.allclose(res.point, [2.0, -1.0], atol=1e-9)


def test_cone_membership_is_identity():
    cone = PolyhedralSet(A=np.array([[0.0, 1.0]]), b=np.array([0.0]))
    x = np.array([0.5, -2.0])
    res = project_cone(np.ones(2), x, cone)
    assert np.allclose(res.point, x, atol=1e-12)


def test_cone_halfspace():
    cone = PolyhedralSet(A=np.array([[0.0, 1.0]]), b=np.array([0.0]))
    res = project_cone(np.ones(2), np.array([1.0, 1.0]), cone)
    assert np.allclose(res.point, [1.0, 0.0], atol=1e-10)


def test_cone_nonnegative_orthant():
    cone = PolyhedralSet(A=-np.eye(2), b=np.zeros(2))
    res = project_cone(np.ones(2), np.array([-1.0, -1.0]), cone)
    assert np.allclose(res.point, [0.0, 0.0], atol=1e-10)
    # matches componentwise clamping for the identity weight
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(2) * 2
        res = project_cone(np.ones(2), x, cone)
        assert np.allclose(res.point, np.maximum(x, 0.0), atol=1e-10)


def test_cone_rejects_nonzero_rhs():
    bad = PolyhedralSet(A=np.eye(2), b=np.array([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        project_cone(np.ones(2), np.zeros(2), bad)


def test_set_refuses_nan_and_infinite_bounds_on_the_wrong_side():
    # +inf in b and -inf in lower are no bound; anything else not finite is refused
    ones = np.ones(2)
    for b, lower in (([np.nan, 1.0], None), ([1.0, -np.inf], None), (ones, [np.inf, 0.0]),
                     (ones, [0.0, np.nan]), ([np.inf, -np.inf], [-np.inf, -np.inf])):
        with pytest.raises(InvalidInputError):
            PolyhedralSet(A=None, b=np.array(b), lower=lower)
    free = PolyhedralSet(A=None, b=np.full(2, np.inf))
    assert np.array_equal(free.lower, [-np.inf, -np.inf]) and free.n_inequalities == 4


@pytest.mark.parametrize("with_equalities", [False, True])
@pytest.mark.parametrize("diagonal", [True, False])
def test_cone_oracle_moreau_and_row_order(with_equalities, diagonal):
    # more rows than dimensions, with duplicated and dependent rows
    rng = np.random.default_rng(12 + 2 * with_equalities + diagonal)
    for _ in range(50):
        S, x, cone = random_cone_problem(rng, with_equalities, diagonal)
        scale = 1e-9 * (1 + np.linalg.norm(x))
        v = project_cone(S, x, cone).point
        assert np.linalg.norm(v - projection_oracle(S, x, cone)) <= scale
        # Moreau: x splits into its projections onto the cone and its
        # polar, and the two parts are S-orthogonal
        polar = polar_projection_oracle(S, x, cone)
        assert np.linalg.norm(x - v - polar) <= scale
        Sv = S * v if np.ndim(S) == 1 else S @ v
        assert abs(Sv @ polar) <= scale * (1 + np.linalg.norm(x))
        order = rng.permutation(cone.A.shape[0])
        shuffled = PolyhedralSet(A=cone.A[order], b=cone.b, A_eq=cone.A_eq)
        w = project_cone(S, x, shuffled).point
        assert np.linalg.norm(w - v) <= 1e-12 * (1 + np.linalg.norm(x))
        # rows scaled to unit norm bound the same cone; a short row
        # rows[i] - u rows[i] then becomes a duplicate of rows[i] up to
        # rounding, whose singular value of rounding size the working-set
        # solve must cut
        unit = PolyhedralSet(A=cone.A / np.linalg.norm(cone.A, axis=1)[:, None], b=cone.b, A_eq=cone.A_eq)
        assert np.linalg.norm(project_cone(S, x, unit).point - v) <= scale


@pytest.mark.parametrize("with_equalities", [False, True])
@pytest.mark.parametrize("diagonal", [True, False])
def test_degenerate_vertex_oracle(with_equalities, diagonal):
    # A cone shifted to its apex c: every row, duplicated and dependent ones
    # included and more of them than dimensions, is active at the start c.
    rng = np.random.default_rng(30 + 2 * with_equalities + diagonal)
    for _ in range(50):
        S, x, cone = random_cone_problem(rng, with_equalities, diagonal)
        c = rng.standard_normal(cone.dim)
        b_eq = None if cone.A_eq is None else cone.A_eq @ c
        poly = PolyhedralSet(A=cone.A, b=cone.A @ c, A_eq=cone.A_eq, b_eq=b_eq)
        x = x + c
        scale = 1e-9 * (1 + np.linalg.norm(x))
        res = project(S, x, poly, start=c)
        assert np.linalg.norm(res.point - projection_oracle(S, x, poly)) <= scale
        assert res.kkt_residual <= scale
        order = rng.permutation(poly.A.shape[0])
        shuffled = PolyhedralSet(A=poly.A[order], b=poly.b[order], A_eq=poly.A_eq, b_eq=b_eq)
        assert np.linalg.norm(project(S, x, shuffled, start=c).point - res.point) <= scale


def test_cone_degenerate_first_event_of_periodic_patch(periodic_8x8):
    # At the first event of the periodic 8x8 patch 64 springs arrive at
    # once; their rows in the 66-dimensional reduced space have rank 58, so
    # the multipliers are not unique and the solve must still be exact
    # whatever the row order and whatever orthonormal basis of the plane
    # (a relabelling of the springs changes both).
    _, loads, system = periodic_8x8
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(system.dims.n_springs), loads, Space.REDUCED, spec)
    traj = leapfrog(system, spec, state0, loads)
    t = traj.events[0].time
    y = next(s.y for s in traj.states if s.time == t)
    opened = tangent_cone(spec, y, offset=box_offset(spec, loads, t))
    # the opened cone's 64 finite bounds as signed rows A v <= 0
    up, down = np.flatnonzero(opened.b == 0.0), np.flatnonzero(opened.lower == 0.0)
    cone = PolyhedralSet(A=np.vstack([opened.A[up], -opened.A[down]]), b=np.zeros(64))
    assert cone.A.shape == (64, 66) and numerical_rank(cone.A) == 58
    S = np.eye(system.dims.dim_v)
    x = -spec.reduce(spec.offset_rate(loads, t))
    # An independent reference: Moreau's decomposition, with scipy's
    # bounded-variable least squares on the whitened problem.  With S = L
    # L^T and w = L^T v the cone is M^T w <= 0 for M = L^-1 A^T, and the
    # projection is L^-T (d - M mu), where d = L^T x and mu >= 0 minimizes
    # ||d - M mu||.
    L = np.linalg.cholesky(S)
    M = np.linalg.solve(L, cone.A.T)
    M /= np.linalg.norm(M, axis=0)
    d = L.T @ x
    mu = lsq_linear(M, d, bounds=(0.0, np.inf), method="bvls", tol=1e-14).x
    reference = np.linalg.solve(L.T, d - M @ mu)
    scale = 1e-12 * s_norm(S, x)
    res = project_cone(np.ones(x.size), x, opened)  # the weight leapfrog passes
    assert s_norm(S, res.point - reference) <= scale
    assert res.kkt_residual <= 1e-12
    rng = np.random.default_rng(13)
    for _ in range(200):
        order = rng.permutation(64)
        Q, _ = np.linalg.qr(rng.standard_normal((66, 66)))
        rotated = PolyhedralSet(A=cone.A[order] @ Q, b=cone.b)
        res = project_cone(Q.T @ S @ Q, Q.T @ x, rotated)
        assert s_norm(S, Q @ res.point - reference) <= scale
        assert res.kkt_residual <= 1e-12


def test_cone_solve_missing_kkt_raises(monkeypatch):
    # A kernel that returns a wrong answer is caught by the KKT check
    # instead of yielding a velocity that is not the projection: the point
    # left where it was (outside the cone), or the right point, the apex,
    # without its multipliers (not stationary).
    cone = PolyhedralSet(A=np.array([[0.0, 1.0], [1.0, 1.0]]), b=np.zeros(2))
    x = np.array([1.0, 1.0])
    res = project_cone(np.ones(2), x, cone)
    assert np.allclose(res.point, 0.0, atol=1e-12) and res.kkt_residual <= 1e-12
    none = np.zeros(0, dtype=int), np.zeros(0)
    for wrong in (
        lambda white, M, slack, x, y0, active: (x, *none, 0.0),
        lambda white, M, slack, x, y0, active: (y0, *none, 0.0),
    ):
        monkeypatch.setattr(projection, "_active_set", wrong)
        with pytest.raises(ConeProjectionError):
            project_cone(np.ones(2), x, cone)


def test_oracle_equivalence_bulk():
    rng = np.random.default_rng(42)
    for _ in range(300):
        S, x, poly = random_projection_problem(rng)
        res = project(S, x, poly)
        oracle = projection_oracle(S, x, poly)
        assert oracle is not None
        assert np.linalg.norm(res.point - oracle) <= 1e-9 * (1 + np.linalg.norm(x))


@pytest.mark.parametrize("identity", [False, True])
def test_two_sided_oracle_bulk(identity):
    # lo <= B y <= hi through a random map or the identity, with and without
    # an equality row, from phase 1: the result and the phase-1 point both
    # respect the lower bounds, and the result is the oracle's
    rng = np.random.default_rng(44 + identity)
    opener = np.random.default_rng(46 + identity)
    for _ in range(30):
        S, x, poly = random_projection_problem(rng)
        interior = find_feasible_point(poly)
        B = None if identity else poly.A
        values = interior if identity else B @ interior
        lo = values - rng.uniform(0.05, 0.5, values.size)
        hi = values + rng.uniform(0.05, 0.5, values.size)
        two = PolyhedralSet(A=B, b=hi, A_eq=poly.A_eq, b_eq=poly.b_eq, lower=lo)
        assert two.contains(find_feasible_point(two), tol=1e-9)
        res = project(S, x, two)
        assert np.linalg.norm(res.point - projection_oracle(S, x, two)) <= 1e-9 * (1 + np.linalg.norm(x))
        assert res.kkt_residual <= 1e-9 * (1 + np.linalg.norm(x))
        # some bounds opened to +-inf: the same answers as the set with
        # those rows removed, drawn from a second generator so that the
        # draws above stay as they were
        up, down = opener.random((2, values.size)) < 0.3
        opened = PolyhedralSet(A=B, b=np.where(up, np.inf, hi), A_eq=poly.A_eq, b_eq=poly.b_eq,
                               lower=np.where(down, -np.inf, lo))
        rows = np.eye(x.size) if identity else B
        keep = ~np.concatenate([up, down])
        removed = PolyhedralSet(A=np.vstack([rows, -rows])[keep], b=np.concatenate([hi, -lo])[keep],
                                A_eq=poly.A_eq, b_eq=poly.b_eq)
        points = find_feasible_point(opened), find_feasible_point(removed)
        for point in points:
            assert opened.contains(point, tol=1e-9) and removed.contains(point, tol=1e-9)
        if not identity:  # the same linear program
            assert np.array_equal(*points)
        res = project(S, x, opened)
        assert np.linalg.norm(res.point - project(S, x, removed).point) <= 1e-9 * (1 + np.linalg.norm(x))
        assert np.linalg.norm(res.point - projection_oracle(S, x, opened)) <= 1e-9 * (1 + np.linalg.norm(x))
        assert not np.isin(np.flatnonzero(~keep), res.active_inequalities).any()
    crossed = PolyhedralSet(A=None, b=np.ones(2), A_eq=np.ones((1, 2)), b_eq=np.ones(1), lower=np.full(2, 0.8))
    with pytest.raises(InfeasibleSetError):
        find_feasible_point(crossed)


def test_idempotence():
    rng = np.random.default_rng(5)
    for _ in range(100):
        S, x, poly = random_projection_problem(rng)
        y = project(S, x, poly).point
        y2 = project(S, y, poly).point
        assert np.linalg.norm(y2 - y) <= 1e-8


def random_feasible_probe(rng, poly, anchor):
    """A random point of the set: shrink a ray from a known member."""
    direction = rng.standard_normal(poly.dim)
    if poly.A_eq is not None:
        # stay on the affine part
        Aeq = poly.A_eq
        direction -= Aeq.T @ np.linalg.lstsq(Aeq @ Aeq.T, Aeq @ direction, rcond=None)[0]
    scale = 2.0
    for _ in range(60):
        c = anchor + scale * direction
        if poly.contains(c, tol=1e-12):
            return c
        scale *= 0.5
    return anchor


def test_variational_inequality():
    rng = np.random.default_rng(6)
    for _ in range(25):
        S, x, poly = random_projection_problem(rng)
        y = project(S, x, poly).point
        S2 = np.diag(S) if np.ndim(S) == 1 else S
        anchor = find_feasible_point(poly)
        for _ in range(100):
            c = random_feasible_probe(rng, poly, anchor)
            lhs = (x - y) @ S2 @ (c - y)
            assert lhs <= 1e-8 * (1 + np.linalg.norm(x)) * (1 + np.linalg.norm(c))


def test_nonexpansiveness():
    rng = np.random.default_rng(8)
    for _ in range(100):
        S, x1, poly = random_projection_problem(rng)
        x2 = x1 + rng.standard_normal(x1.shape)
        y1 = project(S, x1, poly).point
        y2 = project(S, x2, poly).point
        assert s_norm(S, y1 - y2) <= s_norm(S, x1 - x2) + 1e-9


def test_warm_start_consistency():
    # projections hinted by the last result's active set must agree with
    # cold ones: on a box, and along a catch-up recursion whose set provider
    # hands back the same writable rows and weight on every step
    rng = np.random.default_rng(9)
    S = np.array([1.0, 2.0, 0.5])
    box = unit_box(3)
    active = None
    x = rng.standard_normal(3) * 2
    for _ in range(20):
        x = x + 0.3 * rng.standard_normal(3)
        hot = project(S, x, box, active=active)
        active = hot.active_inequalities
        cold = project(S, x, box).point
        assert np.allclose(hot.point, cold, atol=1e-10)

    rng = np.random.default_rng(23)
    A = rng.standard_normal((6, 4))
    A_eq = rng.standard_normal((1, 4))
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    S = (Q * rng.uniform(0.5, 2.0, 4)) @ Q.T
    S = 0.5 * (S + S.T)
    drift = rng.standard_normal(6)

    def provider(t):
        return PolyhedralSet(A=A, b=1.0 + t * drift, A_eq=A_eq, lower=-1.0 + t * drift)

    part = TimePartition.uniform(0.5, 20)
    path = abstract_catchup(S, provider, np.zeros(4), part)
    for i, t in enumerate(part.points[1:]):
        cold = project(S, path[i], provider(float(t))).point
        assert np.allclose(path[i + 1], cold, atol=1e-10)


def test_warm_handle_follows_writable_arrays_changed_in_place():
    # A weight, equality rows, rows or a bound changed in place between
    # calls are read afresh, and a start and an active-set hint from the
    # last result are checked against the set as it is now: every answer is
    # the cold one.
    rng = np.random.default_rng(19)
    for _ in range(20):
        S, x, poly = random_projection_problem(rng)
        S = np.asarray(S, dtype=float)
        last = project(S, x, poly)
        for a in (S, poly.A, poly.A_eq, poly.b):
            if a is None:
                continue
            if a is S and a.ndim == 1:
                a *= rng.uniform(0.5, 2.0, a.shape)
            elif a is S:
                a += np.diag(rng.uniform(0.5, 2.0, x.size))
            else:
                a += 0.5 * rng.standard_normal(a.shape)
            x = x + 0.3 * rng.standard_normal(x.shape)
            try:
                cold = project(S, x, poly).point
            except InfeasibleSetError:
                continue
            last = project(S, x, poly, start=last.point, active=last.active_inequalities)
            assert np.allclose(last.point, cold, atol=1e-10)


def test_degenerate_duplicate_rows():
    # duplicated active rows exercise the pseudoinverse equality solves
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    poly = PolyhedralSet(A=A, b=np.array([1.0, 1.0, 1.0]))
    res = project(np.ones(2), np.array([3.0, 0.2]), poly)
    assert np.allclose(res.point, [1.0, 0.2], atol=1e-10)
    assert set(res.active_inequalities) == {0, 1}


def test_kkt_residual_reported_small():
    # in the problem's weight and in a weight of ones, which is the identity
    # without equality rows and is whitened in full with them
    rng = np.random.default_rng(10)
    with_rows = 0
    for _ in range(20):
        S, x, poly = random_projection_problem(rng)
        res = project(S, x, poly)
        assert res.kkt_residual <= 1e-7 * (1 + np.linalg.norm(x))
        ones = np.ones(x.size)
        res = project(ones, x, poly)
        assert res.kkt_residual <= 1e-7 * (1 + np.linalg.norm(x))
        assert np.linalg.norm(res.point - projection_oracle(ones, x, poly)) <= 1e-9 * (1 + np.linalg.norm(x))
        with_rows += poly.A_eq is not None
    assert with_rows


@pytest.mark.parametrize("space", [Space.REDUCED, Space.FULL])
def test_two_sided_grid_set_oracle(grid_with_hole, space):
    # The catch-up kernel on the grid's moving set, lo <= V y <= hi, and on
    # its full form for the full space's spring vectors, lo <= z <= hi with
    # the self-stress plane as equality rows U^T K in the stiffness weight:
    # random box offsets along the plane, starts with bounds active, random
    # points (off the plane in the full form), with and without the
    # active-set hint, against the enumeration oracle.  Its candidate
    # bounds hold every bound active at the start or at the answer and
    # every bound the unconstrained minimizer violates.
    definition, loads, system = grid_with_hole
    V = system.V_basis
    spec = build_moving_set(system, space, loads)
    state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
    traj = catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 50))
    if space is Space.FULL:
        rows = full_form_rows(system)
        S, image, coordinates = system.stiffness, (lambda v: v), (lambda v: v)
        sets = lambda offset: full_form_set(system, offset, rows)  # noqa: E731
    else:
        S, image, coordinates = np.ones(V.shape[1]), spec.lift, spec.reduce
        sets = lambda offset: static_set(spec, offset)  # noqa: E731
    assert not V.flags.writeable
    width = spec.box_upper - spec.box_lower
    rng = np.random.default_rng(5)
    hinted_counts = []
    for state in traj.states[10::20]:
        offset = box_offset(spec, loads, state.time)
        for scale in (0.05, 0.2):
            shift = V @ rng.standard_normal(V.shape[1]) * 0.02 * width
            poly = sets(offset + shift)
            start = state.y + coordinates(shift)
            x = start + coordinates(rng.standard_normal(definition.n_springs) * scale * width)
            hinted = tuple(np.flatnonzero(poly.slack(start) <= 1e-9 * np.tile(width, 2)))
            hinted_counts.append(len(hinted))
            on_plane = V @ (coordinate_rows(system) @ image(x))
            violated = np.flatnonzero(np.concatenate([
                on_plane - (spec.box_upper + offset + shift),
                spec.box_lower + offset + shift - on_plane,
            ]) > 0)
            for active in (None, hinted):
                res = project(S, x, poly, start=start, active=active)
                candidates = set(hinted) | set(res.active_inequalities) | set(violated.tolist())
                assert len(candidates) <= 8
                oracle = projection_oracle(S, x, poly, candidates=candidates)
                scale_tol = 1e-9 * (1 + np.linalg.norm(x))
                assert np.linalg.norm(res.point - oracle) <= scale_tol
                assert res.kkt_residual <= scale_tol
    assert max(hinted_counts) >= 3


def test_reduced_grid_solve_multiplies_by_no_weight(grid_with_hole, monkeypatch):
    # A moving set's weight is ones and it has no equality rows, so its
    # whitening is the identity, told from the weight alone: a grid solve,
    # by leapfrog or by catch-up, factors nothing and applies neither to a
    # vector, neither for the kernel's target nor for a cone's norm or
    # residual.
    _, loads, system = grid_with_hole
    products, factors = [], []
    weight_apply = projection._weight_apply

    def counted(S, v):
        products.append(np.shape(S))
        return weight_apply(S, v)

    def factored(name):
        original = getattr(projection, name)

        def call(M):
            factors.append(name)
            return original(M)

        monkeypatch.setattr(projection, name, call)

    monkeypatch.setattr(projection, "_weight_apply", counted)
    factored("inverse_cholesky_factor")
    factored("nullspace_basis")
    spec = build_moving_set(system, Space.REDUCED, loads)
    state0 = initial_state(system, np.zeros(system.dims.n_springs), loads, Space.REDUCED, spec)
    assert len(leapfrog(system, spec, state0, loads).events) >= 3
    assert len(catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, 200)).events) >= 3
    assert products == [] and factors == []
    # the general kernel still weighs and factors where the whitening is
    # not the identity
    epsilon0 = state0.sigma / system.stiffness
    project(system.stiffness, epsilon0, full_form_set(system, 0.0), start=epsilon0)
    assert products and factors == ["nullspace_basis", "inverse_cholesky_factor"]
