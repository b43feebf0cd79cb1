"""Built-in example lattices: the six-node toy truss, the triangular grid
with a default hole, and a fully periodic triangular patch under uniaxial
box strain."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .lattice import LatticeDefinition, LoadSchedule

#: Reference basis of the two self-stress directions of the toy truss,
#: fixed numerically so that prestressed demo runs are reproducible
#: independently of the basis the assembly happens to compute.
EXAMPLE1_SELF_STRESS_BASIS = np.array(
    [
        [-0.247641312342202, 0.409252171336287],
        [-0.247641312342202, 0.409252171336286],
        [-0.404312022261124, -0.120407185624592],
        [-0.404312022261124, -0.120407185624592],
        [0.497928264380854, -0.079402340433155],
        [0.497928264380854, -0.079402340433155],
        [0.116775452487286, 0.394784775694451],
        [0.116775452487287, 0.394784775694451],
        [0.116775452487287, 0.394784775694451],
        [0.116775452487286, 0.394784775694451],
    ]
)

#: Default damage zone of the triangular-grid example: three staggered
#: horizontal micro-cracks, 19 nodes in total, leaving the canonical demo
#: sizes of 198 nodes and 496 springs.
DEFAULT_GRID_HOLE = (
    tuple((5, i) for i in range(2, 9))
    + tuple((7, i) for i in range(8, 14))
    + tuple((9, i) for i in range(2, 8))
)


def build_example1() -> tuple[LatticeDefinition, LoadSchedule]:
    """Six-node, ten-spring toy truss pulled horizontally at one end node.

    Nodes 5 and 6 (1-based) are fully constrained; node 6 moves to the
    right at rate ``r0 * c0``.  All stiffnesses are one; axis-aligned,
    diagonal and side springs have yield limits ``c0``, ``c0/sqrt(2)`` and
    ``10*c0``.
    """
    origins = np.array([0, 1, 0, 2, 0, 1, 0, 1, 2, 3])
    termini = np.array([2, 3, 1, 3, 3, 2, 4, 4, 5, 5])
    xi0 = np.array([2, -1, 2, 1, 4, -1, 4, 1, 0, 0, 6, 0], dtype=float)
    c0 = 0.001
    r0 = 100.0
    scale = c0 * np.array([1, 1, 1, 1, 1 / np.sqrt(2), 1 / np.sqrt(2), 10, 10, 10, 10])
    R = np.zeros((4, 12))
    R[0, 8] = R[1, 9] = R[2, 10] = R[3, 11] = 1.0
    definition = LatticeDefinition(
        origins=origins,
        termini=termini,
        reference_coords=xi0,
        dimension=2,
        stiffness=np.ones(10),
        lower_limits=-scale,
        upper_limits=scale,
        constraint_matrix=R,
        volume=12.0,
        label="example1",
    )
    loads = LoadSchedule.constant_rate(
        displacement_offset=-R @ xi0,
        rate=np.array([0.0, 0.0, -r0 * c0, 0.0]),
        horizon=0.08,
    )
    return definition, loads


def example1_prestressed_stress(c0: float = 0.001) -> np.ndarray:
    """The nonzero initial stress of the toy truss's prestressed run.

    A self-equilibrated combination of the two reference self-stress
    directions, scaled into the elastic range.
    """
    return c0 * EXAMPLE1_SELF_STRESS_BASIS @ np.array([1.0, -1.0])


def _tri_grid_layout(rows: int, cols: int):
    """Node ids and coordinates of a staggered triangular grid.

    Even rows carry ``cols`` nodes at integer x; odd rows carry
    ``cols + 1`` nodes shifted half a spacing left.  Row spacing is the
    equilateral height ``sqrt(3)/2``.
    """
    height = np.sqrt(3.0) / 2.0
    ids = {}
    coords = []
    for j in range(rows):
        width = cols if j % 2 == 0 else cols + 1
        for i in range(width):
            x = float(i) if j % 2 == 0 else i - 0.5
            ids[(j, i)] = len(coords)
            coords.append((x, j * height))
    return ids, np.asarray(coords)


def _tri_grid_edges(rows: int, cols: int):
    edges = []
    for j in range(rows):
        width = cols if j % 2 == 0 else cols + 1
        for i in range(width - 1):
            edges.append(((j, i), (j, i + 1)))
    for j in range(rows - 1):
        if j % 2 == 0:
            # even row below, wider odd row above
            for i in range(cols):
                edges.append(((j, i), (j + 1, i)))
                edges.append(((j, i), (j + 1, i + 1)))
        else:
            for i in range(cols + 1):
                if i >= 1:
                    edges.append(((j, i), (j + 1, i - 1)))
                if i <= cols - 1:
                    edges.append(((j, i), (j + 1, i)))
    return edges


def build_tri_grid_with_hole(
    rows: int = 15,
    cols: int = 14,
    hole=DEFAULT_GRID_HOLE,
    stiffness: float = 1.0,
    yield_limit: float = 0.001,
    rate: float = 1.0,
    horizon: float = 0.02,
) -> tuple[LatticeDefinition, LoadSchedule]:
    """Triangular grid clamped top and bottom, with nodes removed.

    ``hole`` lists ``(row, index)`` pairs of nodes to delete together with
    their incident springs.  The top and bottom rows are fully constrained;
    the top row moves upward at ``rate``.  With the default parameters the
    counts are 198 nodes, 496 springs, and 56 constraint rows.
    """
    if rows < 2 or cols < 2:
        raise InvalidInputError("grid needs at least 2 rows and 2 columns")
    ids, coords = _tri_grid_layout(rows, cols)
    hole = set(tuple(h) for h in (hole or ()))
    for h in hole:
        if h not in ids:
            raise InvalidInputError(f"hole node {h} is outside the grid")
        if h[0] in (0, rows - 1):
            raise InvalidInputError(f"hole node {h} lies in a constrained row")
    keep = [key for key in ids if key not in hole]
    new_id = {key: idx for idx, key in enumerate(keep)}
    edges = [
        (a, b)
        for a, b in _tri_grid_edges(rows, cols)
        if a not in hole and b not in hole
    ]

    n, m, d = len(keep), len(edges), 2
    origins, termini = (np.array([new_id[key] for key in ends], dtype=int) for ends in zip(*edges))
    xi0 = np.zeros(n * d)
    for key, idx in new_id.items():
        xi0[2 * idx : 2 * idx + 2] = coords[ids[key]]

    bottom = [new_id[(0, i)] for i in range(cols)]
    top = [new_id[(rows - 1, i)] for i in range(cols)]
    q = 2 * (len(bottom) + len(top))
    R = np.zeros((q, n * d))
    rate_vec = np.zeros(q)
    row = 0
    for node in bottom + top:
        for axis in range(2):
            R[row, 2 * node + axis] = 1.0
            if node in top and axis == 1:
                # LSM sign convention: coordinate = -r(t), so an upward-moving
                # top boundary needs a negative rate entry.
                rate_vec[row] = -rate
            row += 1

    definition = LatticeDefinition(
        origins=origins,
        termini=termini,
        reference_coords=xi0,
        dimension=2,
        stiffness=np.full(m, stiffness),
        lower_limits=np.full(m, -yield_limit),
        upper_limits=np.full(m, yield_limit),
        constraint_matrix=R,
        volume=float((cols - 1) * (rows - 1) * np.sqrt(3.0) / 2.0),
        label=f"tri-grid-{rows}x{cols}-hole{len(hole)}",
    )
    loads = LoadSchedule.constant_rate(
        displacement_offset=-R @ xi0,
        rate=rate_vec,
        horizon=horizon,
    )
    return definition, loads


def build_triangular_periodic(
    cells_x: int = 4,
    cells_y: int = 4,
    stiffness: float = 1.0,
    yield_limit: float = 0.001,
    strain_rate: float = 1.0,
    horizon: float = 0.04,
) -> tuple[LatticeDefinition, LoadSchedule]:
    """Fully periodic triangular patch under uniaxial x-strain.

    Every node has six neighbors; springs crossing the box carry image
    shifts.  One node is pinned to remove the translations.  The box width
    grows as ``1 + strain_rate * t`` relative to its reference value.
    """
    if cells_y % 2 != 0:
        raise InvalidInputError("periodic triangular patch needs an even row count")
    if cells_x < 2 or cells_y < 2:
        raise InvalidInputError("periodic patch needs at least 2x2 cells")
    nx, ny = cells_x, cells_y
    height = np.sqrt(3.0) / 2.0
    box = np.array([float(nx), ny * height])
    node = lambda i, j: (j % ny) * nx + (i % nx)
    coords = np.zeros((nx * ny, 2))
    for j in range(ny):
        for i in range(nx):
            coords[node(i, j)] = (i + 0.5 * (j % 2), j * height)

    edges = []  # (origin, terminus, shift)
    for j in range(ny):
        for i in range(nx):
            shift_r = (1, 0) if i + 1 == nx else (0, 0)
            edges.append((node(i, j), node(i + 1, j), shift_r))
            wrap_y = 1 if j + 1 == ny else 0
            if j % 2 == 0:
                up_r = (0, wrap_y)
                up_l = (-1 if i == 0 else 0, wrap_y)
                edges.append((node(i, j), node(i, j + 1), up_r))
                edges.append((node(i, j), node(i - 1, j + 1), up_l))
            else:
                up_r = (1 if i + 1 == nx else 0, wrap_y)
                up_l = (0, wrap_y)
                edges.append((node(i, j), node(i + 1, j + 1), up_r))
                edges.append((node(i, j), node(i, j + 1), up_l))

    n, m = nx * ny, len(edges)
    origins, termini, shifts = (np.array(column, dtype=int) for column in zip(*edges))

    R = np.zeros((2, n * 2))
    R[0, 0] = R[1, 1] = 1.0
    xi0 = coords.reshape(-1)
    definition = LatticeDefinition(
        origins=origins,
        termini=termini,
        reference_coords=xi0,
        dimension=2,
        stiffness=np.full(m, stiffness),
        lower_limits=np.full(m, -yield_limit),
        upper_limits=np.full(m, yield_limit),
        constraint_matrix=R,
        edge_shifts=shifts,
        box_lengths=box,
        volume=float(box[0] * box[1]),
        label=f"tri-periodic-{nx}x{ny}",
    )
    loads = LoadSchedule.constant_rate(
        displacement_offset=-R @ xi0,
        rate=np.zeros(2),
        horizon=horizon,
        strain_axis=0,
        strain_times=np.array([0.0, horizon]),
        strain_values=np.array([0.0, strain_rate * horizon]),
    )
    return definition, loads
