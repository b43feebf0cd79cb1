"""Network file schema: a self-describing JSON document.

Layout::

    {
      "format": "lattice-network", "version": 1,
      "meta": {"dimension": 2, "box": [w, h] | null, "volume": V, "label": "..."},
      "nodes": [{"id": 0, "coords": [x, y]}, ...],
      "springs": [{"id": 0, "origin": 0, "terminus": 1, "stiffness": 1.0,
                   "lower": -0.001, "upper": 0.001, "shift": [1, 0]?}, ...],
      "constraints": {"rows": [[[node, axis, coef], ...], ...],
                      "offset": [...], "rate": {"times": [...], "values": [[...], ...]}},
      "force": {"times": [...], "values": [[...], ...]}?,
      "strain": {"axis": 0, "times": [...], "values": [...]}?,
      "horizon": T
    }

Node and spring ids must be dense (0..count-1); constraint rows are sparse
(node, axis, coefficient) triples.  Spring shifts are integer periodic
image offsets of the terminus and require ``meta.box``.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import SchemaError
from .lattice import LatticeDefinition, LoadSchedule

FORMAT_NAME = "lattice-network"
FORMAT_VERSION = 1


def _need(mapping, key, where, kind=None):
    if not isinstance(mapping, dict) or key not in mapping:
        raise SchemaError("missing required field", field=f"{where}.{key}" if where else key)
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(
            f"expected {getattr(kind, '__name__', kind)}",
            field=f"{where}.{key}" if where else key,
        )
    return value


def _dense_ids(items, where):
    seen = set()
    for i, item in enumerate(items):
        ident = _need(item, "id", f"{where}[{i}]")
        if not isinstance(ident, int) or ident < 0:
            raise SchemaError("id must be a nonnegative integer", field=f"{where}[{i}].id")
        if ident in seen:
            raise SchemaError(f"duplicate id {ident}", field=f"{where}[{i}].id")
        seen.add(ident)
    if seen != set(range(len(items))):
        raise SchemaError(f"ids must be dense 0..{len(items) - 1}", field=where)


def load_network(path) -> tuple[LatticeDefinition, LoadSchedule]:
    """Parse and validate a network document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", field=str(path)) from exc

    if _need(doc, "format", "") != FORMAT_NAME:
        raise SchemaError(f"unknown format {doc['format']!r}", field="format")
    if doc.get("version", FORMAT_VERSION) != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported version {doc['version']!r} (expected {FORMAT_VERSION})", field="version"
        )
    meta = _need(doc, "meta", "")
    d = _need(meta, "dimension", "meta", int)
    if d not in (1, 2, 3):
        raise SchemaError("dimension must be 1, 2 or 3", field="meta.dimension")
    box = meta.get("box")

    nodes = _need(doc, "nodes", "", list)
    if not nodes:
        raise SchemaError("at least one node required", field="nodes")
    _dense_ids(nodes, "nodes")
    n = len(nodes)
    coords = np.zeros((n, d))
    for i, node in enumerate(nodes):
        c = _need(node, "coords", f"nodes[{i}]", list)
        if len(c) != d:
            raise SchemaError(f"expected {d} coordinates", field=f"nodes[{i}].coords")
        coords[node["id"]] = c

    springs = _need(doc, "springs", "", list)
    if not springs:
        raise SchemaError("at least one spring required", field="springs")
    _dense_ids(springs, "springs")
    m = len(springs)
    Q = np.zeros((n, m))
    stiffness = np.zeros(m)
    lower = np.zeros(m)
    upper = np.zeros(m)
    shifts = np.zeros((m, d), dtype=int)
    any_shift = False
    for i, spring in enumerate(springs):
        where = f"springs[{i}]"
        sid = spring["id"]
        origin = _need(spring, "origin", where, int)
        terminus = _need(spring, "terminus", where, int)
        for name, ref in (("origin", origin), ("terminus", terminus)):
            if not 0 <= ref < n:
                raise SchemaError(f"unknown node {ref}", field=f"{where}.{name}")
        if origin == terminus:
            # self-loops cannot carry an incidence +1/-1 pair, shifted or not
            raise SchemaError("origin equals terminus", field=where)
        stiffness[sid] = _need(spring, "stiffness", where, (int, float))
        lower[sid] = _need(spring, "lower", where, (int, float))
        upper[sid] = _need(spring, "upper", where, (int, float))
        if lower[sid] >= upper[sid]:
            raise SchemaError("lower limit must be below upper", field=where)
        Q[origin, sid] = 1.0
        Q[terminus, sid] = -1.0
        if "shift" in spring:
            shift = spring["shift"]
            if len(shift) != d or any(not isinstance(s, int) for s in shift):
                raise SchemaError(f"shift must be {d} integers", field=f"{where}.shift")
            shifts[sid] = shift
            any_shift = any_shift or any(s != 0 for s in shift)
    if any_shift and box is None:
        raise SchemaError("springs carry shifts but meta.box is missing", field="meta.box")

    constraints = _need(doc, "constraints", "")
    rows = _need(constraints, "rows", "constraints", list)
    q = len(rows)
    if q == 0:
        raise SchemaError("at least one constraint row required", field="constraints.rows")
    R = np.zeros((q, n * d))
    for r, row in enumerate(rows):
        if not row:
            raise SchemaError("empty constraint row", field=f"constraints.rows[{r}]")
        for trip in row:
            if len(trip) != 3:
                raise SchemaError(
                    "entries must be [node, axis, coefficient]",
                    field=f"constraints.rows[{r}]",
                )
            node, axis, coef = trip
            if not (isinstance(node, int) and 0 <= node < n):
                raise SchemaError(f"unknown node {node}", field=f"constraints.rows[{r}]")
            if not (isinstance(axis, int) and 0 <= axis < d):
                raise SchemaError(f"axis {axis} out of range", field=f"constraints.rows[{r}]")
            R[r, node * d + axis] += float(coef)
    offset = np.asarray(_need(constraints, "offset", "constraints", list), dtype=float)
    if offset.shape != (q,):
        raise SchemaError(f"offset must have length {q}", field="constraints.offset")
    rate = _need(constraints, "rate", "constraints")
    rate_times = np.asarray(_need(rate, "times", "constraints.rate", list), dtype=float)
    rate_values = np.asarray(_need(rate, "values", "constraints.rate", list), dtype=float)
    if rate_values.ndim != 2 or rate_values.shape != (rate_times.shape[0], q):
        raise SchemaError(
            f"values must be {rate_times.shape[0]} rows of length {q}",
            field="constraints.rate.values",
        )

    horizon = _need(doc, "horizon", "", (int, float))

    force_times = force_values = None
    if doc.get("force") is not None:
        force = doc["force"]
        force_times = np.asarray(_need(force, "times", "force", list), dtype=float)
        force_values = np.asarray(_need(force, "values", "force", list), dtype=float)
        if force_values.ndim != 2 or force_values.shape != (force_times.shape[0], n * d):
            raise SchemaError(
                f"values must be {force_times.shape[0]} rows of length {n * d}",
                field="force.values",
            )

    strain_axis = strain_times = strain_values = None
    if doc.get("strain") is not None:
        strain = doc["strain"]
        strain_axis = _need(strain, "axis", "strain", int)
        if not 0 <= strain_axis < d:
            raise SchemaError("axis out of range", field="strain.axis")
        strain_times = np.asarray(_need(strain, "times", "strain", list), dtype=float)
        strain_values = np.asarray(_need(strain, "values", "strain", list), dtype=float)

    try:
        definition = LatticeDefinition(
            incidence=Q,
            reference_coords=coords.reshape(-1),
            dimension=d,
            stiffness=stiffness,
            lower_limits=lower,
            upper_limits=upper,
            constraint_matrix=R,
            edge_shifts=shifts if any_shift else None,
            box_lengths=np.asarray(box, dtype=float) if any_shift else None,
            volume=meta.get("volume"),
            label=meta.get("label", ""),
        )
        loads = LoadSchedule(
            displacement_offset=offset,
            rate_times=rate_times,
            rate_values=rate_values,
            horizon=float(horizon),
            force_times=force_times,
            force_values=force_values,
            strain_axis=strain_axis,
            strain_times=strain_times,
            strain_values=strain_values,
        )
    except Exception as exc:
        raise SchemaError(str(exc), field=str(path)) from exc
    return definition, loads


def save_network(path, definition: LatticeDefinition, loads: LoadSchedule) -> None:
    """Write a network document; ``load_network`` round-trips all fields."""
    d = definition.dimension
    coords = definition.node_coords()
    origins, termini = definition.spring_endpoints()
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": {
            "dimension": d,
            "box": None
            if definition.box_lengths is None
            else [float(v) for v in definition.box_lengths],
            "volume": definition.volume,
            "label": definition.label,
        },
        "nodes": [
            {"id": i, "coords": [float(v) for v in coords[i]]}
            for i in range(definition.n_nodes)
        ],
        "springs": [],
        "constraints": {
            "rows": [],
            "offset": [float(v) for v in loads.displacement_offset],
            "rate": {
                "times": [float(t) for t in loads.rate_times],
                "values": [[float(v) for v in row] for row in loads.rate_values],
            },
        },
        "horizon": float(loads.horizon),
    }
    for s in range(definition.n_springs):
        spring = {
            "id": s,
            "origin": int(origins[s]),
            "terminus": int(termini[s]),
            "stiffness": float(definition.stiffness[s]),
            "lower": float(definition.lower_limits[s]),
            "upper": float(definition.upper_limits[s]),
        }
        if definition.edge_shifts is not None and np.any(definition.edge_shifts[s]):
            spring["shift"] = [int(v) for v in definition.edge_shifts[s]]
        doc["springs"].append(spring)
    R = definition.constraint_matrix
    for r in range(R.shape[0]):
        row = [
            [int(c) // d, int(c) % d, float(R[r, c])]
            for c in np.flatnonzero(R[r])
        ]
        doc["constraints"]["rows"].append(row)
    if loads.force_times is not None:
        doc["force"] = {
            "times": [float(t) for t in loads.force_times],
            "values": [[float(v) for v in row] for row in loads.force_values],
        }
    if loads.strain_times is not None:
        doc["strain"] = {
            "axis": int(loads.strain_axis),
            "times": [float(t) for t in loads.strain_times],
            "values": [float(v) for v in loads.strain_values],
        }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
