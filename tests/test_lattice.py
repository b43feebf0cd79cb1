"""The lattice's graph is its spring endpoints: their checks, the dense
incidence the constructor still takes, and a solve that never reads it."""

import dataclasses
import re

import numpy as np
import pytest

from latsweep import cli
from latsweep.errors import InvalidInputError
from latsweep.generators import (
    DEFAULT_GRID_HOLE,
    _tri_grid_edges,
    _tri_grid_layout,
    build_example1,
    build_tri_grid_with_hole,
    build_triangular_periodic,
)
from latsweep.io import save_network
from latsweep.lattice import LatticeDefinition

#: Example1's incidence as its builder wrote it, one column per spring.
EXAMPLE1_INCIDENCE = np.array(
    [
        [1, 0, 1, 0, 1, 0, 1, 0, 0, 0],
        [0, 1, -1, 0, 0, 1, 0, 1, 0, 0],
        [-1, 0, 0, 1, 0, -1, 0, 0, 1, 0],
        [0, -1, 0, -1, -1, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, -1, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, -1, -1],
    ],
    dtype=float,
)


def _fields(definition, **graph):
    """The constructor's keywords for ``definition``, with its graph given
    by ``graph``."""
    fields = {f.name: getattr(definition, f.name) for f in dataclasses.fields(definition)}
    del fields["origins"], fields["termini"]
    return {**fields, **graph}


def _grid_incidence():
    """The default grid's incidence as its builder filled it, from the edge
    list with the hole's nodes and springs removed."""
    ids, _ = _tri_grid_layout(15, 14)
    hole = set(DEFAULT_GRID_HOLE)
    new_id = {key: i for i, key in enumerate(k for k in ids if k not in hole)}
    edges = [(a, b) for a, b in _tri_grid_edges(15, 14) if a not in hole and b not in hole]
    Q = np.zeros((len(new_id), len(edges)))
    for s, (a, b) in enumerate(edges):
        Q[new_id[a], s] = 1.0
        Q[new_id[b], s] = -1.0
    return Q


@pytest.mark.parametrize("name, change, message", [
    ("origins", lambda o: np.where(np.arange(o.size) == 3, -1, o), "node indices 0 to 5"),
    ("termini", lambda t: np.where(np.arange(t.size) == 0, 6, t), "node indices 0 to 5"),
    ("termini", lambda t: np.where(np.arange(t.size) == 2, 0, t), "spring 2 joins node 0 to itself"),
    ("termini", lambda t: t[:-1], "same length"),
    ("origins", lambda o: o.astype(float), "integer node indices"),
    ("origins", lambda o: o.reshape(2, 5), "integer node indices"),
    ("origins", lambda o: None, "integer node indices"),
])
def test_constructor_refuses_bad_endpoints(name, change, message):
    definition, _ = build_example1()
    graph = {"origins": definition.origins, "termini": definition.termini}
    graph[name] = change(graph[name])
    with pytest.raises(InvalidInputError, match=message):
        LatticeDefinition(**_fields(definition, **graph))


ENTRIES = "incidence entries must be -1, 0 or +1"
COLUMNS = "each incidence column needs exactly one origin (+1) and one terminus (-1)"


@pytest.mark.parametrize("edit, message", [
    (lambda Q: Q.__setitem__((1, 2), 2.0), ENTRIES),
    (lambda Q: Q.__setitem__((0, 0), np.nan), ENTRIES),
    (lambda Q: Q.__setitem__((3, 1), 0.0), COLUMNS),
    (lambda Q: Q.__setitem__((5, 0), 1.0), COLUMNS),
])
def test_dense_incidence_keeps_its_messages(edit, message):
    definition, _ = build_example1()
    Q = EXAMPLE1_INCIDENCE.copy()
    edit(Q)
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        LatticeDefinition(**_fields(definition, incidence=Q))


@pytest.mark.parametrize("build, dense", [
    (build_example1, lambda: EXAMPLE1_INCIDENCE),
    (build_tri_grid_with_hole, _grid_incidence),
    (lambda: build_triangular_periodic(8, 8), None),
])
def test_dense_incidence_gives_the_endpoint_form(build, dense):
    definition, _ = build()
    Q = definition.incidence
    assert not Q.flags.writeable
    with pytest.raises(ValueError):
        Q[0, 0] = 0.0
    if dense is not None:
        assert np.array_equal(Q, dense())
    m = definition.n_springs
    assert Q.shape == (definition.n_nodes, m)
    assert np.array_equal(Q[definition.origins, np.arange(m)], np.ones(m))
    assert np.array_equal(Q[definition.termini, np.arange(m)], -np.ones(m))
    assert np.count_nonzero(Q) == 2 * m
    again = LatticeDefinition(**_fields(definition, incidence=Q))
    for field in dataclasses.fields(definition):
        a, b = getattr(again, field.name), getattr(definition, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and not a.flags.writeable
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_replace_with_an_incidence_takes_the_place_of_the_endpoints():
    definition, _ = build_example1()
    perm = np.random.default_rng(0).permutation(definition.n_nodes)
    moved = dataclasses.replace(definition, incidence=definition.incidence[perm])
    position = np.argsort(perm)  # new number of each old node
    assert np.array_equal(moved.origins, position[definition.origins])
    assert np.array_equal(moved.termini, position[definition.termini])
    stiffer = dataclasses.replace(definition, stiffness=2 * definition.stiffness)
    assert np.array_equal(stiffer.origins, definition.origins)
    assert np.array_equal(stiffer.termini, definition.termini)


def test_definitions_compare_by_value():
    definition, _ = build_example1()
    assert definition == build_example1()[0]
    assert dataclasses.replace(definition, incidence=definition.incidence) == definition
    stiffer = dataclasses.replace(definition, stiffness=2 * definition.stiffness)
    upper = definition.upper_limits.copy()
    upper[3] *= 2
    higher = dataclasses.replace(definition, upper_limits=upper)
    periodic = build_triangular_periodic(2, 2)[0]
    for other in (stiffer, higher, periodic):
        assert other != definition and definition != other
    assert periodic == build_triangular_periodic(2, 2)[0]  # edge shifts and box lengths
    assert definition != "example1"
    with pytest.raises(TypeError, match="unhashable"):
        hash(definition)


@pytest.mark.parametrize("solver", ["leapfrog", "catchup"])
@pytest.mark.parametrize("space", ["full", "reduced"])
def test_solve_never_reads_the_dense_incidence(tmp_path, monkeypatch, solver, space):
    net = tmp_path / "grid.json"
    save_network(net, *build_tri_grid_with_hole())

    def refuse(self):
        raise AssertionError("the dense incidence was read")

    monkeypatch.setattr(LatticeDefinition, "incidence", property(refuse))
    argv = ["solve", str(net), "--solver", solver, "--space", space, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
