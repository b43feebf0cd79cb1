"""Shared test utilities: brute-force oracles and random problem factories."""

from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.spatial

from latsweep.assembly import compatibility_matrix
from latsweep.catchup import TimePartition
from latsweep.errors import InvalidInputError
from latsweep.lattice import LatticeDefinition, LoadSchedule
from latsweep.leapfrog import ACTIVE_TOL, _scan
from latsweep.projection import PolyhedralSet, project
from latsweep.sweeping import MovingSetSpec, Space, build_moving_set, static_set


def projection_oracle(S, x, poly, feas_tol=1e-9, candidates=None):
    """Exhaustive active-set enumeration for small projection problems.

    Tries every subset of the bounds (of ``candidates`` only, when given) as
    forced equalities, solves the equality-constrained problem through its
    KKT system in a kernel basis of the equality rows, and keeps the
    candidate feasible for every bound with the smallest objective.  With
    ``candidates`` that hold the true active set the answer is the
    projection.  Independent of the active-set solver being tested.
    """
    # one-sided rows A y <= b in bound order: the identity written out,
    # lower bounds negated below the upper ones, infinite bounds dropped
    # (candidates keep their bound numbers)
    A = np.eye(poly.dim) if poly.A is None else poly.A
    A, b = np.vstack([A, -A]), np.concatenate([poly.b, -poly.lower])
    finite = np.flatnonzero(np.isfinite(b))
    A, b = A[finite], b[finite]
    if candidates is not None:
        wanted = set(candidates)
        candidates = [i for i, j in enumerate(finite) if j in wanted]
    S2 = np.diag(S) if np.ndim(S) == 1 else np.asarray(S)
    if poly.A_eq is None:
        y0, N = np.zeros(poly.dim), np.eye(poly.dim)
    else:
        y0 = np.linalg.lstsq(poly.A_eq, poly.b_eq, rcond=None)[0]
        if np.max(np.abs(poly.A_eq @ y0 - poly.b_eq)) > feas_tol:
            return None
        N = scipy.linalg.null_space(poly.A_eq)
    # y = y0 + N w: minimize (w^T H w)/2 - g^T w subject to the forced rows
    H = N.T @ S2 @ N
    g = N.T @ S2 @ (x - y0)
    AN, c = A @ N, b - A @ y0
    k = N.shape[1]
    rows = range(A.shape[0]) if candidates is None else sorted(set(candidates))
    best_obj, best_y = None, None
    for r in range(len(rows) + 1):
        for J in combinations(rows, r):
            J = list(J)
            kkt = np.block([[H, AN[J].T], [AN[J], np.zeros((r, r))]])
            sol, *_ = np.linalg.lstsq(kkt, np.concatenate([g, c[J]]), rcond=None)
            w = sol[:k]
            if np.max(np.abs(AN[J] @ w - c[J]), initial=0.0) > feas_tol:
                continue
            y = y0 + N @ w
            if np.max(A @ y - b, initial=0.0) <= feas_tol:
                obj = float((y - x) @ S2 @ (y - x))
                if best_obj is None or obj < best_obj - 1e-15:
                    best_obj, best_y = obj, y
    return best_y


def polar_projection_oracle(S, x, cone, sign_tol=1e-9):
    """S-projection of ``x`` onto the polar of ``{A v <= 0, A_eq v = 0}``.

    The polar cone is ``{S^-1 (A^T lam + A_eq^T mu) : lam >= 0}``.  Every
    subset of the rows spans a candidate least-squares point; those with
    nonnegative ``lam`` are members, and by Caratheodory the nearest member
    is among them.  Independent of the cone projection under test.
    """
    A = cone.A
    S2 = np.diag(S) if np.ndim(S) == 1 else np.asarray(S)
    S_inv = np.linalg.inv(S2)
    best_obj, best_p = None, None
    for r in range(A.shape[0] + 1):
        for J in combinations(range(A.shape[0]), r):
            blocks = [A[list(J)]] + ([cone.A_eq] if cone.A_eq is not None else [])
            G = np.vstack(blocks)
            if G.shape[0]:
                c, *_ = np.linalg.lstsq(G @ S_inv @ G.T, G @ x, rcond=None)
                if np.any(c[:r] < -sign_tol):
                    continue
                p = S_inv @ G.T @ c
            else:
                p = np.zeros_like(x)
            obj = float((x - p) @ S2 @ (x - p))
            if best_obj is None or obj < best_obj - 1e-15:
                best_obj, best_p = obj, p
    return best_p


def random_cone_problem(rng, with_equalities, diagonal):
    """A cone with more rows than dimensions, some duplicated or dependent.

    Returns ``(S, x, cone)`` with ``n <= 4`` and at most 7 rows: random
    generators, a positively scaled duplicate, a nonnegative combination
    of two rows, and a combination with mixed signs.
    """
    n = int(rng.integers(2, 5))
    rows = list(rng.standard_normal((int(rng.integers(1, n + 1)), n)))
    i, j = rng.integers(0, len(rows), 2)
    rows.append(rng.uniform(0.5, 2.0) * rows[i])
    rows.append(rng.uniform(0.1, 1.0) * rows[i] + rng.uniform(0.1, 1.0) * rows[j])
    rows.append(rows[i] - rng.uniform(0.1, 1.0) * rows[j])
    while len(rows) <= n:
        rows.append(rng.standard_normal(n))
    A = np.array(rows)[rng.permutation(len(rows))]
    A_eq = rng.standard_normal((1, n)) if with_equalities else None
    cone = PolyhedralSet(A=A, b=np.zeros(A.shape[0]), A_eq=A_eq)
    x = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
    S = random_spd(rng, n, diag_probability=1.0 if diagonal else 0.0)
    return S, x, cone


def counted_svd(monkeypatch) -> list:
    """Shapes of the ``numpy.linalg.svd`` calls made from here on."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def enhanced_pinv_top(system):
    """``H``, the top ``m`` rows of ``pinv [C^T R^T]`` (m x nd), from its
    SVD: no solve reads it."""
    A = np.hstack([compatibility_matrix(system.definition)[0].T, system.definition.constraint_matrix.T])
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    # a kinematically determinate lattice: A has full row rank, no value is cut
    return (vt[:, : system.dims.n_springs].T / s) @ u.T


def coordinate_rows(system) -> np.ndarray:
    """``V^T K`` (dim_v x m): the coordinates in ``V`` of the K-orthogonal
    projection of a spring vector onto the self-stress plane, so that ``V
    @ coordinate_rows(system)`` is that projector.  Assembly keeps no copy
    of it: a solve scales by ``K`` and multiplies by ``V^T``."""
    return system.V_basis.T * system.stiffness


def elongation_projector(system):
    """``P_U = (U^T K U)^-1 U^T K`` (dim_u x m): ``U P_U = I - V V^T K``."""
    UK = full_form_rows(system)
    return np.linalg.solve(UK @ system.U_basis, UK)


def relabel_springs(definition, perm):
    """The same lattice with new spring ``j`` being old spring ``perm[j]``."""
    d = definition
    return LatticeDefinition(
        incidence=d.incidence[:, perm],
        reference_coords=d.reference_coords,
        dimension=d.dimension,
        stiffness=d.stiffness[perm],
        lower_limits=d.lower_limits[perm],
        upper_limits=d.upper_limits[perm],
        constraint_matrix=d.constraint_matrix,
        edge_shifts=None if d.edge_shifts is None else d.edge_shifts[perm],
        box_lengths=d.box_lengths,
        volume=d.volume,
    )


def random_spd(rng, n, diag_probability=0.5):
    """Random weight: sometimes diagonal, sometimes a full SPD matrix."""
    if rng.random() < diag_probability:
        return rng.uniform(0.3, 3.0, n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * rng.uniform(0.3, 3.0, n)) @ Q.T


def random_projection_problem(rng, with_equalities=True):
    """A feasible random polyhedron (n <= 4, l <= 6) and a probe point."""
    n = int(rng.integers(2, 5))
    l = int(rng.integers(1, 7))
    A = rng.standard_normal((l, n))
    interior = rng.standard_normal(n)
    b = A @ interior + rng.uniform(0.1, 1.0, l)
    A_eq = b_eq = None
    if with_equalities and rng.random() < 0.4:
        A_eq = rng.standard_normal((1, n))
        b_eq = A_eq @ interior
    poly = PolyhedralSet(A=A, b=b, A_eq=A_eq, b_eq=b_eq)
    x = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
    S = random_spd(rng, n)
    return S, x, poly


def triangle_lattice(q_rows=0):
    """Single equilateral triangle, optionally with pinned coordinates."""
    Q = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    R = np.zeros((q_rows, 6))
    if q_rows >= 1:
        R[0, 0] = 1.0
    if q_rows >= 2:
        R[1, 1] = 1.0
    if q_rows >= 3:
        R[2, 3] = 1.0
    return LatticeDefinition(
        incidence=Q,
        reference_coords=np.array([0.0, 0.0, 1.0, 0.0, 0.5, np.sqrt(3) / 2]),
        dimension=2,
        stiffness=np.ones(3),
        lower_limits=-np.ones(3) * 1e-3,
        upper_limits=np.ones(3) * 1e-3,
        constraint_matrix=R,
    )


def braced_square_frame():
    """Four corner nodes, four edges, both diagonals; no constraints."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
    Q = np.zeros((4, 6))
    for s, (a, b) in enumerate(edges):
        Q[a, s] = 1.0
        Q[b, s] = -1.0
    return LatticeDefinition(
        incidence=Q,
        reference_coords=np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0]),
        dimension=2,
        stiffness=np.ones(6),
        lower_limits=-np.ones(6),
        upper_limits=np.ones(6),
        constraint_matrix=np.zeros((0, 8)),
    )


def random_feasible_probe_anchor(rng, poly, member):
    """A random point of the set, found by shrinking a ray from a member."""
    direction = rng.standard_normal(poly.dim)
    if poly.A_eq is not None:
        Aeq = poly.A_eq
        direction -= Aeq.T @ np.linalg.lstsq(Aeq @ Aeq.T, Aeq @ direction, rcond=None)[0]
    scale = 2.0
    for _ in range(60):
        c = member + scale * direction
        if poly.contains(c, tol=1e-12):
            return c
        scale *= 0.5
    return member


def random_small_lattice(rng, max_tries=50):
    """A random Delaunay-triangulated lattice passing all assumptions.

    Nodes 0 and 1 are pinned completely, which generically yields
    kinematic determinacy with at least one self-stress state, and makes
    boundary motion produce nonzero stresses (it cannot be absorbed by a
    rigid motion).
    """
    from latsweep.assembly import validate_assumptions

    for _ in range(max_tries):
        n = int(rng.integers(5, 9))
        pts = rng.uniform(0.0, 1.0, (n, 2))
        try:
            tri = scipy.spatial.Delaunay(pts)
        except scipy.spatial.QhullError:
            continue
        edges = set()
        for simplex in tri.simplices:
            for i in range(3):
                a, b = int(simplex[i]), int(simplex[(i + 1) % 3])
                edges.add((min(a, b), max(a, b)))
        edges = sorted(edges)
        m = len(edges)
        if m - 2 * n + 4 <= 0:
            continue
        Q = np.zeros((n, m))
        for s, (a, b) in enumerate(edges):
            Q[a, s] = 1.0
            Q[b, s] = -1.0
        R = np.zeros((4, 2 * n))
        R[0, 0] = R[1, 1] = 1.0
        R[2, 2] = R[3, 3] = 1.0
        definition = LatticeDefinition(
            incidence=Q,
            reference_coords=pts.reshape(-1),
            dimension=2,
            stiffness=rng.uniform(0.5, 2.0, m),
            lower_limits=-rng.uniform(0.5, 2.0, m) * 1e-3,
            upper_limits=rng.uniform(0.5, 2.0, m) * 1e-3,
            constraint_matrix=R,
        )
        report = validate_assumptions(definition)
        if report.kinematically_determinate and report.constrained_self_stress_states > 0:
            return definition
    raise RuntimeError("could not build a valid random lattice")


def moving_set_at(spec: MovingSetSpec, t: float, loads: LoadSchedule) -> PolyhedralSet:
    """The constraint polyhedron at time ``t``: the static set at the whole
    box translation, frame and force shift together."""
    return static_set(spec, box_offset(spec, loads, t))


def abstract_catchup(S, set_provider, x0, partition: TimePartition) -> np.ndarray:
    """The bare catch-up recursion for an arbitrary moving polyhedron.

    ``set_provider`` maps a time to a :class:`PolyhedralSet`.  Every step is
    one kernel projection of the previous iterate onto the set at the next
    time, hinted by the last step's active bounds, with no frame and no
    blocks: the oracle of the block catch-up.  Returns the iterates stacked
    as rows, starting with ``x0``.
    """
    x0 = np.asarray(x0, dtype=float)
    first = set_provider(float(partition.points[0]))
    if not first.contains(x0, tol=1e-9):
        raise InvalidInputError("initial point is outside the set at t = 0")
    points = [x0]
    x, active = x0, None
    for t in partition.points[1:]:
        poly = set_provider(float(t))
        if not isinstance(poly, PolyhedralSet):
            raise InvalidInputError("set provider must return PolyhedralSet values")
        result = project(S, x, poly, active=active)
        x, active = result.point, result.active_inequalities
        points.append(x)
    return np.vstack(points)


def recover_stress(system, y, t: float, loads: LoadSchedule, space: Space, spec: MovingSetSpec | None = None):
    """Elastic elongations and stresses from the sweeping variable ``y`` as
    a state of ``space`` reports it."""
    if spec is None:
        spec = build_moving_set(system, space, loads)
    epsilon = spec.lift(coordinates_of(spec, y)) - box_offset(spec, loads, t)
    return epsilon, system.stiffness * epsilon


def box_offset(spec: MovingSetSpec, loads, t) -> np.ndarray:
    """The translation of the yield box at time ``t``, a vector in R^m:
    its in-plane part plus the force shift, the reference the full-form
    sets are built on."""
    return spec._in_plane(loads, t) + spec.force_shift(loads.f(t))


def coordinates_of(spec: MovingSetSpec, y: np.ndarray) -> np.ndarray:
    """The coordinates in ``V`` of a state's reported ``y``: ``V^T K y`` in
    the full space, ``y`` itself in the reduced space."""
    return spec.reduce(y) if spec.space is Space.FULL else y


def full_form_rows(system) -> np.ndarray:
    """The equality rows ``U^T K`` of the self-stress plane, read-only, so
    that one array can serve every set of a run."""
    rows = system.U_basis.T * system.stiffness
    rows.flags.writeable = False
    return rows


def full_form_set(system, offset, rows=None) -> PolyhedralSet:
    """The moving set at the box translation ``offset`` in its full form:
    spring vectors ``z`` in the shifted box ``K^-1 c^- <= z - offset <= K^-1
    c^+`` with ``U^T K z = 0``, to be projected in the weight
    ``system.stiffness``.  A projection onto it whitens by its own SVD of
    the equality rows (``rows``, else :func:`full_form_rows`), so it reads
    nothing of assembly's basis ``V``: the reference for the solve in
    ``V``."""
    k = system.stiffness
    return PolyhedralSet(
        A=None,
        b=system.upper_limits / k + offset,
        A_eq=full_form_rows(system) if rows is None else rows,
        lower=system.lower_limits / k + offset,
    )


def full_form_cone(system, z, offset, rows=None) -> PolyhedralSet:
    """The tangent cone of :func:`full_form_set` at the spring vector
    ``z``: the bounds ``z`` sits on within ``ACTIVE_TOL`` of the spring's
    elastic range at 0, the others opened, and the plane's equality rows."""
    box = full_form_set(system, offset, rows)
    tol = ACTIVE_TOL * (system.upper_limits - system.lower_limits) / system.stiffness
    return PolyhedralSet(
        A=None,
        b=np.where(box.b - z <= tol, 0.0, np.inf),
        A_eq=box.A_eq,
        lower=np.where(z - box.lower <= tol, 0.0, -np.inf),
    )


def next_event_time(spec: MovingSetSpec, z, zdot, offset=None) -> float | None:
    """Time until a currently inactive bound becomes active along ``zdot``:
    the second half of leapfrog's scan of the box."""
    return _scan(spec, np.asarray(z, float), np.asarray(zdot, float), offset, 0.0)[1]
