import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import latsweep
from latsweep import cli
from latsweep.analysis import read_curve_csv
from latsweep.assembly import assemble
from latsweep.catchup import MAX_STEPS, TimePartition, catchup
from latsweep.cli import main
from latsweep.errors import InvalidInputError, SchemaError
from latsweep.generators import (
    build_example1,
    build_tri_grid_with_hole,
    build_triangular_periodic,
)
from latsweep.io import load_network, save_network
from latsweep.leapfrog import leapfrog
from latsweep.sweeping import Space, build_moving_set, initial_state


@pytest.mark.parametrize(
    "builder",
    [build_example1, lambda: build_tri_grid_with_hole(rows=5, cols=4, hole=()), lambda: build_triangular_periodic(4, 2)],
)
def test_network_round_trip(tmp_path, builder):
    definition, loads = builder()
    path = tmp_path / "net.json"
    save_network(path, definition, loads)
    back_def, back_loads = load_network(path)
    assert np.array_equal(back_def.incidence, definition.incidence)
    assert np.array_equal(back_def.reference_coords, definition.reference_coords)
    assert np.array_equal(back_def.stiffness, definition.stiffness)
    assert np.array_equal(back_def.lower_limits, definition.lower_limits)
    assert np.array_equal(back_def.upper_limits, definition.upper_limits)
    assert np.array_equal(back_def.constraint_matrix, definition.constraint_matrix)
    if definition.edge_shifts is None:
        assert back_def.edge_shifts is None
    else:
        assert np.array_equal(back_def.edge_shifts, definition.edge_shifts)
        assert np.array_equal(back_def.box_lengths, definition.box_lengths)
    assert np.array_equal(back_loads.displacement_offset, loads.displacement_offset)
    assert np.array_equal(back_loads.rate_times, loads.rate_times)
    assert np.array_equal(back_loads.rate_values, loads.rate_values)
    assert back_loads.horizon == loads.horizon
    if loads.strain_times is not None:
        assert back_loads.strain_axis == loads.strain_axis
        assert np.array_equal(back_loads.strain_times, loads.strain_times)
        assert np.array_equal(back_loads.strain_values, loads.strain_values)


def example1_document(tmp_path):
    definition, loads = build_example1()
    path = tmp_path / "ex1.json"
    save_network(path, definition, loads)
    with open(path) as fh:
        return path, json.load(fh)


def test_schema_error_names_missing_field(tmp_path):
    path, doc = example1_document(tmp_path)
    del doc["springs"][3]["stiffness"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"springs\[3\]\.stiffness"):
        load_network(path)


def test_schema_error_unknown_node(tmp_path):
    path, doc = example1_document(tmp_path)
    doc["springs"][0]["terminus"] = 77
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"springs\[0\]\.terminus"):
        load_network(path)


def test_schema_error_duplicate_ids(tmp_path):
    path, doc = example1_document(tmp_path)
    doc["nodes"][1]["id"] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"nodes\[1\]\.id"):
        load_network(path)


def test_schema_error_disordered_limits(tmp_path):
    path, doc = example1_document(tmp_path)
    doc["springs"][2]["lower"] = doc["springs"][2]["upper"] + 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"springs\[2\]"):
        load_network(path)


def test_schema_error_shift_without_box(tmp_path):
    definition, loads = build_triangular_periodic(4, 2)
    path = tmp_path / "per.json"
    save_network(path, definition, loads)
    doc = json.loads(path.read_text())
    doc["meta"]["box"] = None
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"meta\.box"):
        load_network(path)


def test_schema_error_unsupported_version(tmp_path):
    path, doc = example1_document(tmp_path)
    doc["version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"^version: ") as info:
        load_network(path)
    assert info.value.field == "version"
    del doc["version"]  # a document without one is read as version 1
    path.write_text(json.dumps(doc))
    assert load_network(path)[0].n_springs == 10


def test_schema_error_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="line"):
        load_network(path)


def test_hand_built_periodic_fixture_assembles(tmp_path):
    # 4 x 2 square grid braced with one diagonal per cell, wrapped in both
    # directions: 8 nodes, 24 springs
    nx, ny = 4, 2
    nodes = [
        {"id": j * nx + i, "coords": [float(i), float(j)]}
        for j in range(ny)
        for i in range(nx)
    ]
    springs = []
    for j in range(ny):
        for i in range(nx):
            a = j * nx + i
            right = j * nx + (i + 1) % nx
            up = ((j + 1) % ny) * nx + i
            diag = ((j + 1) % ny) * nx + (i + 1) % nx
            sx = 1 if i + 1 == nx else 0
            sy = 1 if j + 1 == ny else 0
            for terminus, shift in ((right, [sx, 0]), (up, [0, sy]), (diag, [sx, sy])):
                springs.append(
                    {
                        "id": len(springs),
                        "origin": a,
                        "terminus": terminus,
                        "stiffness": 1.0,
                        "lower": -0.001,
                        "upper": 0.001,
                        "shift": shift,
                    }
                )
    doc = {
        "format": "lattice-network",
        "version": 1,
        "meta": {"dimension": 2, "box": [4.0, 2.0], "volume": 8.0, "label": "hand"},
        "nodes": nodes,
        "springs": springs,
        "constraints": {
            "rows": [[[0, 0, 1.0]], [[0, 1, 1.0]]],
            "offset": [0.0, 0.0],
            "rate": {"times": [0.0], "values": [[0.0, 0.0]]},
        },
        "strain": {"axis": 0, "times": [0.0, 0.02], "values": [0.0, 0.02]},
        "horizon": 0.02,
    }
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(doc))
    definition, loads = load_network(path)
    assert definition.n_nodes == 8 and definition.n_springs == 24
    system = assemble(definition)
    assert system.dims.dim_v == 24 - 16 + 2
    assert loads.strain_axis == 0


def test_cli_generate_validate_roundtrip(tmp_path, capsys):
    net = tmp_path / "ex1.json"
    assert main(["generate", "example1", "--out", str(net)]) == 0
    assert main(["validate", str(net)]) == 0
    out = capsys.readouterr().out
    assert "dim_V = 2" in out
    assert "assumptions = pass" in out


def _floppy(constraints):
    constraints["rows"] = constraints["rows"][:2]
    constraints["offset"] = constraints["offset"][:2]
    constraints["rate"] = {"times": [0.0], "values": [[0.0, 0.0]]}


def _nearly_dependent_row(constraints):
    # rank deficient under the 1e-10 relative cutoff that assemble applies
    constraints["rows"].append([[0, 0, 1e-11]])
    constraints["offset"].append(0.0)
    constraints["rate"]["values"] = [v + [0.0] for v in constraints["rate"]["values"]]


def test_cli_validate_fails_on_floppy_network(tmp_path, capsys):
    for break_constraints in (_floppy, _nearly_dependent_row):
        path, doc = example1_document(tmp_path)
        break_constraints(doc["constraints"])
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert "assumptions = FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_cli_validate_passes_with_constraints_in_other_units(tmp_path, capsys, scale):
    path, doc = example1_document(tmp_path)
    constraints = doc["constraints"]
    for row in constraints["rows"]:
        for entry in row:
            entry[2] *= scale
    constraints["offset"] = [scale * v for v in constraints["offset"]]
    constraints["rate"]["values"] = [[scale * v for v in row] for row in constraints["rate"]["values"]]
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "kinematically_determinate = True" in out and "assumptions = pass" in out


def _set_coords(doc):
    doc["nodes"][2]["coords"][1] = "1.5"


def _set_offset(doc):
    doc["constraints"]["offset"][0] = "0"


def _set_coefficient(doc):
    doc["constraints"]["rows"][1][0][2] = "1"


def _set_row_entry(doc):
    doc["constraints"]["rows"][1] = [3]


def _set_row(doc):
    doc["constraints"]["rows"][1] = 3


def _set_rate(doc):
    doc["constraints"]["rate"]["values"][0][2] = "fast"


def _set_force(doc):
    doc["force"] = {"times": [0.0, 1.0], "values": [[0.0] * 12, [None] + [0.0] * 11]}


def _set_strain(doc):
    doc["strain"] = {"axis": 0, "times": [0.0, 0.08], "values": [0.0, "0.01"]}


def _set_stiffness(doc):
    doc["springs"][4]["stiffness"] = True


def _set_horizon(doc):
    doc["horizon"] = True


def _set_volume(doc):
    doc["meta"]["volume"] = "12"


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (_set_coords, r"nodes\[2\]\.coords\[1\]"),
        (_set_offset, r"constraints\.offset\[0\]"),
        (_set_coefficient, r"constraints\.rows\[1\]\[0\]"),
        (_set_row_entry, r"constraints\.rows\[1\]"),
        (_set_row, r"constraints\.rows\[1\]"),
        (_set_rate, r"constraints\.rate\.values\[0\]\[2\]"),
        (_set_force, r"force\.values\[1\]\[0\]"),
        (_set_strain, r"strain\.values\[1\]"),
        (_set_stiffness, r"springs\[4\]\.stiffness"),
        (_set_horizon, r"horizon"),
        (_set_volume, r"meta\.volume"),
    ],
)
def test_schema_error_names_field_of_a_value_that_is_no_number(tmp_path, capsys, corrupt, field):
    path, doc = example1_document(tmp_path)
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=rf"^{field}: "):
        load_network(path)
    good = tmp_path / "good.json"
    main(["generate", "example1", "--out", str(good)])
    capsys.readouterr()
    assert main(["solve", str(path), "--out", str(tmp_path / "single")]) == 1
    assert main(["solve", str(good), str(path), "--out", str(tmp_path / "batch")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: validation error: " in err and "Traceback" not in err


def _set_entry(*keys, value):
    def corrupt(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return corrupt


def _shifted_box(box):
    """A periodic image shift on spring 0, which makes ``meta.box`` read, and ``box``."""
    def corrupt(doc):
        doc["springs"][0]["shift"] = [1, 0]
        doc["meta"]["box"] = box
    return corrupt


# "@" stands for a literal written into the file as it is: JSON reads 1e400
# as inf and a 401-digit integer as an int beyond the float range.
@pytest.mark.parametrize(
    "corrupt, literal, field",
    [
        (_set_entry("nodes", 2, "coords", 1, value="@"), "1e400", "nodes[2].coords[1]"),
        (_set_entry("springs", 4, "stiffness", value="@"), "-1e400", "springs[4].stiffness"),
        (_set_entry("constraints", "offset", 0, value="@"), "1" + "0" * 400, "constraints.offset[0]"),
        (_set_entry("constraints", "rate", "values", 0, 2, value="@"), "NaN", "constraints.rate.values[0][2]"),
        (_set_entry("horizon", value="@"), "Infinity", "horizon"),
        (_set_entry("constraints", "rate", "times", value=[0.0, 0.0]), None, "constraints.rate.times"),
        (_set_entry("constraints", "rate", "times", value=[0.5]), None, "constraints.rate.times"),
        (_set_entry("force", value={"times": [0.0, 0.0], "values": [[0.0] * 12] * 2}), None, "force.times"),
        (_set_entry("strain", value={"axis": 0, "times": [0.1, 0.0], "values": [0.0, 0.01]}), None, "strain.times"),
        (_set_entry("springs", 4, "stiffness", value=0.0), None, "springs[4].stiffness"),
        (_set_entry("horizon", value=-1.0), None, "horizon"),
        (_shifted_box([2.0, 0.0]), None, "meta.box"),
    ],
    ids=["coords-1e400", "stiffness-minus-1e400", "offset-401-digits", "rate-NaN", "horizon-Infinity",
         "rate-times-repeat", "rate-times-not-from-0", "force-times-repeat", "strain-times-decrease",
         "stiffness-zero", "horizon-negative", "box-zero"],
)
def test_schema_error_names_field_of_a_non_finite_number_or_unordered_times(
    tmp_path, capsys, corrupt, literal, field
):
    # the lattice and load-schedule constructors reject these as well (a
    # stiffness, horizon or box length that is not positive too), but they
    # cannot name the field
    path, doc = example1_document(tmp_path)
    corrupt(doc)
    text = json.dumps(doc)
    path.write_text(text if literal is None else text.replace('"@"', literal))
    with pytest.raises(SchemaError, match=rf"^{re.escape(field)}: "):
        load_network(path)
    capsys.readouterr()
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) not in err and "Traceback" not in err
    assert f"validation error: {field}: " in err


def grid_document(tmp_path):
    path = tmp_path / "grid.json"
    save_network(path, *build_tri_grid_with_hole())
    with open(path) as fh:
        return path, json.load(fh)


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (_set_entry("springs", 300, "lower", value="low"), "springs[300].lower"),
        (_set_entry("nodes", 150, "coords", 1, value=None), "nodes[150].coords[1]"),
        (_set_entry("springs", 400, "origin", value=1.5), "springs[400].origin"),
    ],
    ids=["spring-300-lower", "node-150-coords", "spring-400-origin"],
)
def test_schema_error_names_the_item_at_a_large_index(tmp_path, corrupt, field):
    # nodes and springs are checked as columns; the one item that fails
    # is named with its field
    path, doc = grid_document(tmp_path)
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=rf"^{re.escape(field)}: "):
        load_network(path)


def test_schema_error_names_the_first_of_two_corrupt_springs(tmp_path):
    # spring 400's origin column is read before the lower column, yet
    # spring 300 comes first
    path, doc = grid_document(tmp_path)
    doc["springs"][400]["origin"] = -1
    doc["springs"][300]["lower"] = doc["springs"][300]["upper"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"^springs\[300\]: lower limit"):
        load_network(path)


def test_items_in_any_order_and_the_largest_float_are_read(tmp_path):
    # ids, not positions, place nodes and springs; a value the column check
    # cannot tell from an overflow, the largest float, is read on its own
    definition, loads = build_triangular_periodic(4, 2)
    path = tmp_path / "per.json"
    save_network(path, definition, loads)
    doc = json.loads(path.read_text())
    rng = np.random.default_rng(3)
    doc["nodes"] = [doc["nodes"][i] for i in rng.permutation(len(doc["nodes"]))]
    doc["springs"] = [doc["springs"][i] for i in rng.permutation(len(doc["springs"]))]
    doc["springs"][5]["lower"] = -sys.float_info.max
    path.write_text(json.dumps(doc))
    back, _ = load_network(path)
    lower = definition.lower_limits.copy()
    lower[doc["springs"][5]["id"]] = -sys.float_info.max
    assert np.array_equal(back.lower_limits, lower)
    for name in ("incidence", "reference_coords", "stiffness", "upper_limits", "edge_shifts"):
        assert np.array_equal(getattr(back, name), getattr(definition, name))


def test_cli_batch_refuses_inputs_that_share_an_output_prefix(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a, b = tmp_path / "a" / "net.json", tmp_path / "b" / "net.json"
    main(["generate", "example1", "--out", str(a)])
    main(["generate", "periodic", "--out", str(b)])
    capsys.readouterr()
    prefix = tmp_path / "batch"
    for networks in ([a, b], [a, a]):
        assert main(["solve", *map(str, networks), "--out", str(prefix)]) == 64
        out, err = capsys.readouterr()
        assert out == "" and f"{prefix}-net.csv" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]


def test_cli_solve_and_analyze(tmp_path, capsys):
    net = tmp_path / "ex1.json"
    main(["generate", "example1", "--out", str(net)])
    prefix = tmp_path / "run"
    assert main(["solve", str(net), "--solver", "leapfrog", "--out", str(prefix)]) == 0
    events = (tmp_path / "run.events.csv").read_text().splitlines()
    assert events[0] == "event,time,spring,side"
    times = sorted({float(line.split(",")[1]) for line in events[1:]})
    assert abs(times[0] - 0.042) <= 1e-3
    assert abs(times[1] - 0.055) <= 1e-3
    report = tmp_path / "report.txt"
    assert main(["analyze", str(prefix) + ".csv", "--out", str(report)]) == 0
    assert "stiffness = " in report.read_text()


def test_cli_spaces_agree(tmp_path):
    # --space full reports the reduced solve in the spring basis: both
    # spaces write byte-identical curve and event CSVs, and the full space's
    # states and event velocities are V times the reduced ones.
    for kind in ("example1", "grid"):
        net = tmp_path / f"{kind}.json"
        main(["generate", kind, "--out", str(net)])
        definition, loads = load_network(net)
        system = assemble(definition)
        V = system.V_basis
        for solver in ("leapfrog", "catchup"):
            outputs = {}
            for space in ("full", "reduced"):
                prefix = tmp_path / f"{kind}-{solver}-{space}"
                args = ["solve", str(net), "--solver", solver, "--space", space, "--out", str(prefix)]
                if solver == "catchup":
                    args += ["--mesh", repr(loads.horizon / 200)]
                assert main(args) == 0
                outputs[space] = [Path(f"{prefix}{ext}").read_bytes() for ext in (".csv", ".events.csv")]
            assert outputs["full"] == outputs["reduced"]

            runs = {}
            for space in Space:
                spec = build_moving_set(system, space, loads)
                state0 = initial_state(system, np.zeros(definition.n_springs), loads, space, spec)
                if solver == "leapfrog":
                    runs[space] = leapfrog(system, spec, state0, loads)
                else:
                    part = TimePartition.uniform(loads.horizon, 200)
                    runs[space] = catchup(system, spec, state0, loads, part)
            full, reduced = runs[Space.FULL], runs[Space.REDUCED]
            assert len(full.states) == len(reduced.states)
            for a, b in zip(full.states, reduced.states):
                assert a.time == b.time and a.y.shape == (definition.n_springs,)
                assert np.array_equal(a.sigma, b.sigma)
                assert np.linalg.norm(a.y - V @ b.y) <= 1e-15 * np.linalg.norm(V @ b.y)
            assert len(full.events) == len(reduced.events) >= 2
            for a, b in zip(full.events, reduced.events):
                assert (a.index, a.time, a.newly_active, a.newly_released) == (
                    b.index, b.time, b.newly_active, b.newly_released)
                assert np.array_equal(a.sigma, b.sigma)
                if b.relative_velocity is not None:
                    v = V @ b.relative_velocity
                    assert np.linalg.norm(a.relative_velocity - v) <= 1e-15 * np.linalg.norm(v)


def test_cli_cone_projection_failure_exits_2(tmp_path, capsys, monkeypatch):
    # an event velocity that misses its KKT conditions is a runtime error,
    # never a silently wrong trajectory: here the kernel leaves the negated
    # drive unprojected, which is wrong once bounds are active
    net = tmp_path / "ex1.json"
    main(["generate", "example1", "--out", str(net)])
    monkeypatch.setattr(
        "latsweep.projection._active_set",
        lambda white, M, slack, x, y0, active: (x, np.zeros(0, dtype=int), np.zeros(0), 0.0),
    )
    code = main(["solve", str(net), "--solver", "leapfrog", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "cone projection missed its KKT conditions" in capsys.readouterr().err


def test_cli_deterministic_output(tmp_path):
    net = tmp_path / "ex1.json"
    main(["generate", "example1", "--out", str(net)])
    a, b = tmp_path / "a", tmp_path / "b"
    main(["solve", str(net), "--solver", "catchup", "--mesh", "1e-3", "--out", str(a)])
    main(["solve", str(net), "--solver", "catchup", "--mesh", "1e-3", "--out", str(b)])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.events.csv").read_bytes() == (tmp_path / "b.events.csv").read_bytes()


def test_cli_grid_catchup_does_not_depend_on_blas_threads(tmp_path):
    # Catch-up's blocks stack many steps into matrix products, which BLAS
    # may split over its threads: a solve with one BLAS thread, in its own
    # process, must find the same events and the same curve to rounding.
    net = tmp_path / "grid.json"
    main(["generate", "grid", "--out", str(net)])
    argv = ["solve", str(net), "--solver", "catchup", "--mesh", "1e-4"]
    assert main(argv + ["--out", str(tmp_path / "default")]) == 0
    src = Path(latsweep.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys; from latsweep.cli import main; sys.exit(main(sys.argv[1:]))"
    single = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "single")],
                            env=env, capture_output=True, text=True, timeout=300)
    assert single.returncode == 0, single.stderr
    events = (tmp_path / "default.events.csv").read_text()
    assert events == (tmp_path / "single.events.csv").read_text()
    assert len(events.splitlines()) > 1
    default = read_curve_csv(tmp_path / "default.csv")
    one = read_curve_csv(tmp_path / "single.csv")
    stress_scale = max(np.abs(default[key]).max() for key in ("sigma11", "sigma22", "sigma12"))
    for key, column in default.items():
        scale = stress_scale if key.startswith("sigma") else np.abs(column).max()
        assert np.abs(one[key] - column).max() <= 1e-12 * scale


@pytest.mark.parametrize("space", ["full", "reduced"])
def test_cli_catchup_memory_does_not_grow_with_the_horizon(tmp_path, capsys, space):
    # The states stream into the curve rows as catch-up makes them, so the
    # tracemalloc peak of an in-process grid solve at 2000 steps stays within
    # 1.2 times the peak at 200 steps; keeping every state to the end made
    # it 6.4 times in the full space and 5.5 times in the reduced one.
    net = tmp_path / "grid.json"
    main(["generate", "grid", "--out", str(net)])

    def solve(mesh):
        return main(["solve", str(net), "--solver", "catchup", "--space", space, "--mesh", mesh,
                     "--out", str(tmp_path / mesh)])

    assert solve("1e-4") == 0  # untraced: lazy imports and caches are not the solve's
    peaks = {}
    for mesh in ("1e-4", "1e-5"):
        tracemalloc.start()
        try:
            assert solve(mesh) == 0
            peaks[mesh] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert read_curve_csv(tmp_path / "1e-5.csv")["time"].size == 2001
    assert peaks["1e-5"] <= 1.2 * peaks["1e-4"], peaks


def test_cli_solve_with_initial_stress(tmp_path):
    from latsweep.generators import example1_prestressed_stress

    net = tmp_path / "ex1.json"
    main(["generate", "example1", "--out", str(net)])
    sig = tmp_path / "sigma0.txt"
    np.savetxt(sig, example1_prestressed_stress())
    prefix = tmp_path / "pre"
    assert main(["solve", str(net), "--sigma0", str(sig), "--out", str(prefix)]) == 0
    events = (tmp_path / "pre.events.csv").read_text().splitlines()[1:]
    times = sorted({float(line.split(",")[1]) for line in events})
    assert len(times) == 3
    assert abs(times[0] - 0.027) <= 1e-3


@pytest.mark.parametrize("content, code, message", [
    ("abc\n", 1, "is unreadable: could not convert"),
    ("", 1, "holds no numbers"),
    ("0\n0\n", 1, "initial stress has shape"),
    (None, 2, "not found"),
])
def test_cli_unreadable_initial_stress_is_a_named_error(tmp_path, capsys, content, code, message):
    # A --sigma0 file that holds something other than numbers, or none, is
    # a validation error naming the file, with no traceback, alone and in a
    # batch; a file of the wrong length keeps its shape error, and a missing
    # file is a runtime error.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for net in (a, b):
        main(["generate", "example1", "--out", str(net)])
    sig = tmp_path / "sigma0.txt"
    if content is not None:
        sig.write_text(content)
    capsys.readouterr()
    for networks in ([a], [a, b]):
        argv = ["solve", *map(str, networks), "--sigma0", str(sig), "--out", str(tmp_path / "out")]
        assert main(argv) == code
        _, err = capsys.readouterr()
        assert message in err and "Traceback" not in err
        assert err.count(message) == len(networks)
        if code == 1 and content != "0\n0\n":
            assert str(sig) in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("content", ["abc\n", ""])
def test_cli_unreadable_initial_stress_is_refused_before_the_network_is_read(
    tmp_path, monkeypatch, capsys, content
):
    net = tmp_path / "net.json"
    main(["generate", "example1", "--out", str(net)])
    sig = tmp_path / "sigma0.txt"
    sig.write_text(content)
    calls = []

    def counted(original):
        def call(*args):
            calls.append(original.__name__)
            return original(*args)
        return call

    monkeypatch.setattr(cli, "load_network", counted(cli.load_network))
    monkeypatch.setattr(cli, "assemble", counted(cli.assemble))
    for networks in ([net], [net, net.with_name("other.json")]):
        argv = ["solve", *map(str, networks), "--sigma0", str(sig), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert calls == []
    capsys.readouterr()


def test_cli_initial_stress_of_the_wrong_length_is_refused_before_assemble(
    tmp_path, monkeypatch, capsys
):
    # the spring count is known once the network is read: a stress file of
    # another length fails there, alone and in a batch, with no assembly
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for net in (a, b):
        save_network(net, *build_tri_grid_with_hole())
    sig = tmp_path / "sigma0.txt"
    sig.write_text("0\n0\n")

    def refuse(definition):
        raise AssertionError("assemble was called")

    monkeypatch.setattr(cli, "assemble", refuse)
    capsys.readouterr()
    for networks in ([a], [a, b]):
        argv = ["solve", *map(str, networks), "--sigma0", str(sig), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        _, err = capsys.readouterr()
        assert err.count("initial stress has shape (2,), expected (496,)") == len(networks)
    assert not list(tmp_path.glob("out*"))


def test_cli_batch_reads_the_initial_stress_once(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for net in (a, b):
        main(["generate", "example1", "--out", str(net)])
    sig = tmp_path / "sigma0.txt"
    np.savetxt(sig, np.zeros(10))
    reads, read = [], cli._read_stress

    def counted(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(cli, "_read_stress", counted)
    assert main(["solve", str(a), str(b), "--sigma0", str(sig), "--out", str(tmp_path / "out")]) == 0
    assert reads == [str(sig)]


def test_cli_batch_solve(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["generate", "example1", "--out", str(a)])
    main(["generate", "periodic", "--out", str(b)])
    assert main(["solve", str(a), str(b), "--out", str(tmp_path / "batch")]) == 0
    for stem in ("a", "b"):
        assert (tmp_path / f"batch-{stem}.csv").exists()
        assert (tmp_path / f"batch-{stem}.events.csv").exists()


def test_cli_batch_isolates_a_failing_network(tmp_path, capsys):
    # A floppy network fails alone: the good network's outputs are complete,
    # each network reports its own status, and the exit code is the worst.
    good = tmp_path / "good.json"
    main(["generate", "example1", "--out", str(good)])
    _, doc = example1_document(tmp_path)
    _floppy(doc["constraints"])
    bad = tmp_path / "floppy.json"
    bad.write_text(json.dumps(doc))
    single = tmp_path / "single"
    assert main(["solve", str(good), "--out", str(single)]) == 0
    capsys.readouterr()
    prefix = tmp_path / "batch"
    assert main(["solve", str(bad), str(good), "--out", str(prefix)]) == 1
    out, err = capsys.readouterr()
    assert f"{good}: wrote" in out
    assert f"{bad}: validation error" in err
    for suffix in (".csv", ".events.csv"):
        assert (tmp_path / f"batch-good{suffix}").read_bytes() == (tmp_path / f"single{suffix}").read_bytes()
        assert not (tmp_path / f"batch-floppy{suffix}").exists()


def test_cli_check_safe_load(tmp_path, capsys):
    net = tmp_path / "ex1.json"
    main(["generate", "example1", "--out", str(net)])
    assert main(["check-safe-load", str(net)]) == 0
    assert "safe_load = pass" in capsys.readouterr().out
    # A force on node 0 along x is safe up to 0.004.  Ramped to 0.01 at
    # t = 1 it stays safe over the horizon 0.08, where the solve runs; it
    # is unsafe once the horizon reaches t = 1.
    path, doc = example1_document(tmp_path)
    doc["force"] = {"times": [0.0, 1.0], "values": [[0.0] * 12, [0.01] + [0.0] * 11]}
    path.write_text(json.dumps(doc))
    assert main(["check-safe-load", str(path)]) == 0
    assert "safe_load = pass" in capsys.readouterr().out
    run = str(tmp_path / "run")
    assert main(["solve", str(path), "--solver", "catchup", "--mesh", "1e-3", "--out", run]) == 0
    doc["horizon"] = 1.0
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check-safe-load", str(path)]) == 1
    assert "safe_load = FAIL" in capsys.readouterr().out


def test_cli_usage_errors_exit_64(capsys):
    assert main(["solve", "--bogus"]) == 64
    assert main(["frobnicate"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "NET", "--mesh", "0"],
        ["solve", "NET", "--mesh", "nan"],
        ["solve", "NET", "--mesh", "-1"],
        ["solve", "NET", "--mesh", "inf"],
        ["solve", "NET", "--mesh", "tiny"],
        ["generate", "grid", "--horizon", "0"],
        ["generate", "grid", "--horizon", "inf"],
        ["generate", "grid", "--rate", "nan"],
        ["generate", "grid", "--rate", "-inf"],
        ["analyze", "CURVE", "--bins", "0"],
        ["analyze", "CURVE", "--bins", "-3"],
    ],
)
def test_cli_refuses_bad_numeric_options(tmp_path, capsys, args):
    net, curve = tmp_path / "ex1.json", tmp_path / "run.csv"
    main(["generate", "example1", "--out", str(net)])
    main(["solve", str(net), "--out", str(tmp_path / "run")])
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    argv = [str(net) if a == "NET" else str(curve) if a == "CURVE" else a for a in args]
    assert main(argv + ["--out", str(tmp_path / "new")]) == 64
    err = capsys.readouterr().err
    option = next(a for a in args if a.startswith("--"))
    assert f"argument {option}:" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


def test_cli_refuses_a_mesh_too_fine_for_one_partition(tmp_path, capsys):
    # a positive finite mesh can still ask for more steps than an array holds
    net = tmp_path / "ex1.json"
    main(["generate", "example1", "--out", str(net)])
    capsys.readouterr()
    argv = ["solve", str(net), "--solver", "catchup", "--mesh", "1e-300", "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--mesh 1e-300" in err and "8e+298 catch-up steps" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ex1.json"]
    with pytest.raises(InvalidInputError, match="steps are more than"):
        TimePartition.uniform(1.0, MAX_STEPS + 1)


def test_cli_missing_file_is_validation_error(capsys):
    assert main(["validate", "/nonexistent/never.json"]) == 2
    capsys.readouterr()


def test_cli_solve_factors_with_numpy_once_per_assembly(tmp_path, monkeypatch):
    # One BLAS pool serves the solve path: no call reaches scipy.linalg, and
    # assembly's K-orthonormal basis of the plane whitens every moving set,
    # so no Cholesky factor is taken in assembly, the set or the solve.
    example1, periodic = tmp_path / "ex1.json", tmp_path / "per.json"
    main(["generate", "example1", "--out", str(example1)])
    main(["generate", "periodic", "--cells-x", "4", "--cells-y", "4", "--out", str(periodic)])

    def refuse(*args, **kwargs):
        raise AssertionError("the solve path called scipy.linalg")

    for name in dir(scipy.linalg):
        obj = getattr(scipy.linalg, name)
        if not name.startswith("_") and callable(obj) and not isinstance(obj, type):
            monkeypatch.setattr(scipy.linalg, name, refuse)
    log = []
    cholesky, assemble_ = np.linalg.cholesky, cli.assemble

    def counted_cholesky(a, *args, **kwargs):
        log.append("cholesky")
        return cholesky(a, *args, **kwargs)

    def logged_assemble(*args, **kwargs):
        log.append("assemble")
        system = assemble_(*args, **kwargs)
        log.append("assembled")
        return system

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(cli, "assemble", logged_assemble)
    runs = [(example1, solver) for solver in ("leapfrog", "catchup")] + [(periodic, "leapfrog")]
    for net, solver in runs:
        for space in ("full", "reduced"):
            log.clear()
            code = main(["solve", str(net), "--solver", solver, "--space", space,
                         "--mesh", "1e-3", "--out", str(tmp_path / "run")])
            assert code == 0
            assert log == ["assemble", "assembled"], (net.name, solver, space)


def _leaves(node, path=()):
    """The paths to the leaves of a JSON document: values that are not
    objects or arrays, and empty ones."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    children = list(children)
    if not children:
        return [path]
    return [leaf for key, child in children for leaf in _leaves(child, path + (key,))]


_MUTANTS = (None, "x", [], 1, -1, 0, 0.5, 1e30, 1e308)


def test_cli_exit_codes_under_schema_mutations(tmp_path, capsys):
    # Seeded mutations of example1's document, each replacing one or two
    # leaves: every command ends in a named exit code, never a traceback.
    path, doc = example1_document(tmp_path)
    leaves = _leaves(doc)
    rng = np.random.default_rng(22)
    runs = (
        ["validate"],
        ["solve", "--solver", "leapfrog", "--out", str(tmp_path / "run")],
        ["solve", "--solver", "catchup", "--mesh", "1e-2", "--out", str(tmp_path / "run")],
    )
    codes = set()
    for trial in range(60):
        mutant = json.loads(json.dumps(doc))
        changed = []
        for leaf in rng.choice(len(leaves), size=int(rng.integers(1, 3)), replace=False):
            *parents, key = leaves[leaf]
            value = _MUTANTS[rng.integers(len(_MUTANTS))]
            target = mutant
            for step in parents:
                target = target[step]
            target[key] = value
            changed.append((leaves[leaf], value))
        path.write_text(json.dumps(mutant))
        for run in runs:
            argv = run[:1] + [str(path)] + run[1:]
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 64), (changed, argv, code, err)
            assert "Traceback" not in err, (changed, argv, err)
            codes.add(code)
    assert {0, 1} <= codes


@pytest.mark.parametrize("solver", ["leapfrog", "catchup"])
def test_cli_refuses_arithmetic_out_of_range(tmp_path, capsys, solver):
    # a rate of 1e308 run to t = 10 overflows the displacement r(t) itself:
    # the solve must fail by name, not write inf or NaN stresses (to the
    # example's own horizon both solvers run through it: see below)
    path, doc = example1_document(tmp_path)
    doc["constraints"]["rate"]["values"][0][1] = 1e308
    doc["horizon"] = 10
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path), "--solver", solver, "--mesh", "1e-2", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "latsweep: error: overflow encountered" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_cli_catchup_runs_through_a_rate_of_1e308(tmp_path, capsys):
    # the kernel's residual norms are scaled by their largest entry, so a
    # finite residual with entries near 1e154 and above does not overflow:
    # catch-up finds example1's first event in both spaces
    path, doc = example1_document(tmp_path)
    doc["constraints"]["rate"]["values"][0][1] = 1e308
    path.write_text(json.dumps(doc))
    for space in ("full", "reduced"):
        out = tmp_path / space
        argv = ["solve", str(path), "--solver", "catchup", "--space", space, "--mesh", "0.125", "--out", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        assert "(1 events)" in capsys.readouterr().out
        events = (tmp_path / f"{space}.events.csv").read_text().splitlines()
        assert events[1:] == ["0,0.08,0,lower", "0,0.08,1,lower", "0,0.08,2,upper", "0,0.08,3,upper"]


def test_cli_leapfrog_runs_through_a_rate_of_1e308(tmp_path, capsys):
    # the drive's and the velocity's norms are scaled by their largest
    # entry, so a finite drive near 1e308 does not overflow: leapfrog
    # finds example1's three events in both spaces and ends where one-step
    # catch-up does
    path, doc = example1_document(tmp_path)
    doc["constraints"]["rate"]["values"][0][1] = 1e308
    path.write_text(json.dumps(doc))
    for space in ("full", "reduced"):
        runs = {}
        for solver, extra in (("leapfrog", []), ("catchup", ["--mesh", "0.125"])):
            out = tmp_path / f"{solver}-{space}"
            argv = ["solve", str(path), "--solver", solver, "--space", space, "--out", str(out)] + extra
            assert main(argv) == 0, capsys.readouterr().err
            runs[solver] = out
        assert "(3 events)" in capsys.readouterr().out
        rows = (tmp_path / f"leapfrog-{space}.events.csv").read_text().splitlines()[1:]
        assert [(e, j, side) for e, _, j, side in (row.split(",") for row in rows)] == [
            ("0", "4", "lower"), ("0", "5", "lower"), ("1", "2", "upper"),
            ("1", "3", "upper"), ("2", "0", "lower"), ("2", "1", "lower")]
        last = {solver: out.with_suffix(".csv").read_text().splitlines()[-1] for solver, out in runs.items()}
        assert last["leapfrog"] == last["catchup"]


def test_cli_validate_refuses_a_spring_length_out_of_range(tmp_path, capsys):
    # finite coordinates whose spring length overflows are an input error
    path, doc = example1_document(tmp_path)
    doc["nodes"][0]["coords"][0] = 1e308
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "reference length of inf" in capsys.readouterr().err
