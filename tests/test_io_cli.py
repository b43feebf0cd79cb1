import json

import numpy as np
import pytest

from latsweep.assembly import assemble
from latsweep.cli import main
from latsweep.errors import SchemaError
from latsweep.generators import (
    build_example1,
    build_tri_grid_with_hole,
    build_triangular_periodic,
)
from latsweep.io import load_network, save_network


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
    net = tmp_path / "ex1.json"
    main(["generate", "example1", "--out", str(net)])
    outs = {}
    for space in ("full", "reduced"):
        prefix = tmp_path / f"run-{space}"
        code = main(
            ["solve", str(net), "--solver", "catchup", "--space", space,
             "--mesh", "1e-3", "--out", str(prefix)]
        )
        assert code == 0
        data = np.loadtxt(f"{prefix}.csv", delimiter=",", skiprows=1)
        outs[space] = data
    assert np.abs(outs["full"] - outs["reduced"]).max() <= 1e-8


def test_cli_deterministic_output(tmp_path):
    net = tmp_path / "ex1.json"
    main(["generate", "example1", "--out", str(net)])
    a, b = tmp_path / "a", tmp_path / "b"
    main(["solve", str(net), "--solver", "catchup", "--mesh", "1e-3", "--out", str(a)])
    main(["solve", str(net), "--solver", "catchup", "--mesh", "1e-3", "--out", str(b)])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.events.csv").read_bytes() == (tmp_path / "b.events.csv").read_bytes()


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


def test_cli_batch_solve(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["generate", "example1", "--out", str(a)])
    main(["generate", "periodic", "--out", str(b)])
    assert main(["solve", str(a), str(b), "--out", str(tmp_path / "batch")]) == 0
    for stem in ("a", "b"):
        assert (tmp_path / f"batch-{stem}.csv").exists()
        assert (tmp_path / f"batch-{stem}.events.csv").exists()


def test_cli_check_safe_load(tmp_path, capsys):
    net = tmp_path / "ex1.json"
    main(["generate", "example1", "--out", str(net)])
    assert main(["check-safe-load", str(net)]) == 0
    assert "safe_load = pass" in capsys.readouterr().out


def test_cli_usage_errors_exit_64(capsys):
    assert main(["solve", "--bogus"]) == 64
    assert main(["frobnicate"]) == 64
    capsys.readouterr()


def test_cli_missing_file_is_validation_error(capsys):
    assert main(["validate", "/nonexistent/never.json"]) == 2
    capsys.readouterr()
