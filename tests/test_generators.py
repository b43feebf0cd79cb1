import dataclasses
import functools

import numpy as np
import pytest

from latsweep import cli
from latsweep.assembly import assemble, determinacy_ranks, validate_assumptions
from latsweep.errors import InvalidInputError
from latsweep.generators import (
    DEFAULT_GRID_HOLE,
    _tri_grid_edges,
    _tri_grid_layout,
    build_example1,
    build_tri_grid_with_hole,
    build_triangular_periodic,
    example1_prestressed_stress,
)

from helpers import counted_svd


def test_example1_fixed_parameters():
    definition, loads = build_example1()
    assert (definition.n_nodes, definition.n_springs, definition.dimension) == (6, 10, 2)
    assert np.array_equal(
        definition.reference_coords, [2, -1, 2, 1, 4, -1, 4, 1, 0, 0, 6, 0]
    )
    assert np.array_equal(definition.stiffness, np.ones(10))
    c0 = 0.001
    scale = c0 * np.array([1, 1, 1, 1, 1 / np.sqrt(2), 1 / np.sqrt(2), 10, 10, 10, 10])
    assert np.allclose(definition.upper_limits, scale, rtol=0, atol=0)
    assert definition.upper_limits[4] == pytest.approx(c0 / np.sqrt(2), rel=1e-15)
    assert np.array_equal(definition.lower_limits, -definition.upper_limits)
    # constraint rows select the coordinates of the two boundary nodes
    R = definition.constraint_matrix
    assert R.shape == (4, 12)
    assert [int(np.flatnonzero(R[i])[0]) for i in range(4)] == [8, 9, 10, 11]
    assert np.count_nonzero(R) == 4
    # constant pull along x of the last node, reference-consistent offset
    assert np.array_equal(loads.displacement_offset, -R @ definition.reference_coords)
    rate = loads.rdot(0.0)
    assert rate[0] == rate[1] == rate[3] == 0.0
    assert rate[2] < 0.0
    assert loads.horizon == 0.08


def test_example1_prestress_is_balanced_combination():
    sigma0 = example1_prestressed_stress()
    definition, _ = build_example1()
    system = assemble(definition)
    assert np.abs(system.U_basis.T @ sigma0).max() <= 1e-12
    assert np.all(sigma0 <= definition.upper_limits)
    assert np.all(sigma0 >= definition.lower_limits)


def test_grid_counts_and_hole_audit():
    definition, _ = build_tri_grid_with_hole()
    rows, cols = 15, 14
    ids, _ = _tri_grid_layout(rows, cols)
    edges = _tri_grid_edges(rows, cols)
    hole = set(DEFAULT_GRID_HOLE)
    incident = [e for e in edges if e[0] in hole or e[1] in hole]
    assert definition.n_nodes == len(ids) - len(hole)
    assert definition.n_springs == len(edges) - len(incident)
    assert (definition.n_nodes, definition.n_springs) == (198, 496)
    internal = [e for e in edges if e[0] in hole and e[1] in hole]
    assert len(hole) == 19 and len(internal) == 16


def test_small_grid_without_hole_valid():
    definition, _ = build_tri_grid_with_hole(rows=2, cols=2, hole=())
    report = validate_assumptions(definition)
    assert report.kinematically_determinate
    assert report.constrained_self_stress_states > 0


def test_grid_rejects_bad_hole():
    with pytest.raises(InvalidInputError, match="outside"):
        build_tri_grid_with_hole(rows=5, cols=4, hole=[(2, 99)])
    with pytest.raises(InvalidInputError, match="constrained row"):
        build_tri_grid_with_hole(rows=5, cols=4, hole=[(0, 1)])


def test_periodic_counts_and_shifts():
    definition, loads = build_triangular_periodic(4, 4)
    n = 16
    assert definition.n_nodes == n
    assert definition.n_springs == 3 * n
    assert definition.edge_shifts is not None
    assert np.any(definition.edge_shifts != 0)
    assert np.array_equal(definition.box_lengths, [4.0, 4 * np.sqrt(3) / 2])
    system = assemble(definition)
    assert system.dims.dim_v == n + 2
    # every spring has unit reference length in the perfect lattice
    assert np.allclose(system.reference_lengths, 1.0)
    assert loads.strain_axis == 0
    assert loads.gamma(loads.horizon) == pytest.approx(0.04)


def test_periodic_requires_even_rows():
    with pytest.raises(InvalidInputError, match="even"):
        build_triangular_periodic(4, 3)


def _counted_qr(monkeypatch) -> list:
    """Shapes of the ``numpy.linalg.qr`` calls made from here on."""
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


#: Each family over its size range: the grids without a hole and the default
#: one with its hole, the periodic patches with even row counts only.
FAMILIES = {
    "example1": [build_example1],
    "grid": [
        functools.partial(build_tri_grid_with_hole, rows, cols, hole=())
        for rows in range(2, 7)
        for cols in range(2, 7)
    ] + [build_tri_grid_with_hole],
    "periodic": [
        functools.partial(build_triangular_periodic, cells_x, cells_y)
        for cells_x in range(2, 9)
        for cells_y in range(2, 9, 2)
    ],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generators_over_each_size_range_are_determinate_and_factor_nothing(monkeypatch, family):
    # The builders take no SVD and no QR: determinacy is decided once, by
    # assemble, validate_assumptions or latsweep generate.  Every size of
    # each family passes that rule, with at least one self-stress state.
    svd, qr = counted_svd(monkeypatch), _counted_qr(monkeypatch)
    built = [build()[0] for build in FAMILIES[family]]
    assert svd == [] and qr == []
    monkeypatch.undo()
    for definition in built:
        report = validate_assumptions(definition)
        assert report.kinematically_determinate, definition.label
        assert report.constrained_self_stress_states > 0, definition.label
        assert report.constraint_rank == definition.n_constraints, definition.label


def test_cli_generate_checks_once_and_refuses_a_floppy_lattice(monkeypatch, tmp_path, capsys):
    calls = []

    def counted(*args):
        calls.append(args)
        return determinacy_ranks(*args)

    monkeypatch.setattr(cli, "determinacy_ranks", counted)
    good = tmp_path / "periodic.json"
    assert cli.main(["generate", "periodic", "--cells-x", "3", "--cells-y", "2", "--out", str(good)]) == 0
    assert len(calls) == 1 and good.exists()
    # example1 with only its pulled node pinned turns about that node
    definition, loads = build_example1()
    floppy = dataclasses.replace(definition, constraint_matrix=definition.constraint_matrix[2:])
    monkeypatch.setattr(cli, "build_example1", lambda: (floppy, loads))
    out = tmp_path / "floppy.json"
    capsys.readouterr()
    assert cli.main(["generate", "example1", "--out", str(out)]) == 1
    assert "not kinematically determinate" in capsys.readouterr().err
    assert not out.exists()
