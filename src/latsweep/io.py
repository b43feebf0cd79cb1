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

import itertools
import json
import sys

import numpy as np

from .errors import SchemaError
from .lattice import LatticeDefinition, LoadSchedule

FORMAT_NAME = "lattice-network"
FORMAT_VERSION = 1

#: The largest float: NaN, inf (JSON reads 1e400 as inf) and an int beyond
#: the float range all fail ``-_MAX <= v <= _MAX``.
_MAX = sys.float_info.max


def _need(mapping, key, where, kind=None, *shape):
    """``mapping[key]``, of exactly the type ``kind`` when given (JSON's true
    is no int); ``float`` asks for a finite number, or for nested lists of
    them of ``shape``."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise SchemaError("missing required field", field=f"{where}.{key}" if where else key)
    value = mapping[key]
    if kind is None or (type(value) is kind and not shape
                        and (kind is not float or -_MAX <= value <= _MAX)):
        return value
    field = f"{where}.{key}" if where else key
    if kind is float:
        return _numbers(value, field, *shape)
    raise SchemaError(f"expected {kind.__name__}", field=field)


def _numbers(value, field, *shape):
    """A finite number as a float, or nested lists of them of ``shape`` (a
    leading ``None`` takes any length) as they are."""
    if not shape:
        if type(value) not in (int, float) or not -_MAX <= value <= _MAX:
            raise SchemaError("expected a finite number", field=field)
        return float(value)
    if not isinstance(value, list) or shape[0] not in (None, len(value)):
        length = "" if shape[0] is None else f" of length {shape[0]}"
        raise SchemaError(f"expected a list{length}", field=field)
    if len(shape) > 1 or not all(type(v) in (int, float) and -_MAX <= v <= _MAX for v in value):
        for i, v in enumerate(value):
            _numbers(v, f"{field}[{i}]", *shape[1:])
    return value


def _times(mapping, where, from_zero=False):
    """``mapping["times"]``: numbers that increase strictly, from 0 when ``from_zero``."""
    times = _need(mapping, "times", where, float, None)
    if not times or (from_zero and times[0] != 0) or any(b <= a for a, b in zip(times, times[1:])):
        rule = "expected times that increase strictly" + " from 0" * from_zero
        raise SchemaError(rule, field=f"{where}.times")
    return times


#: The JSON types of a number, and of an integer (JSON's true is no int).
_NUMBER = {int, float}
_INTEGER = {int}


def _numeric(values, types=_NUMBER):
    """``values`` as floats, and a mask that holds each one that may not be a
    finite number of ``types``: all of them, as NaN, when one is of another
    type or an int beyond the float range, for none is converted alone.

    The mask may hold valid values too (the largest float, an int that
    rounds to it): an item it holds is checked on its own."""
    if set(map(type, values)) <= types:
        try:
            array = np.array(values, dtype=float)
        except OverflowError:  # an int beyond the float range
            pass
        else:
            return array, ~(np.abs(array) < _MAX)
    return np.full(len(values), np.nan), np.ones(len(values), dtype=bool)


def _vectors(values, d):
    """Lists of ``d`` numbers as an ``(len, d)`` float array, and the mask of
    :func:`_numeric` over its rows."""
    if set(map(type, values)) == {list} and set(map(len, values)) == {d}:
        array, bad = _numeric(list(itertools.chain.from_iterable(values)))
        return array.reshape(-1, d), bad.reshape(-1, d).any(axis=1)
    return np.full((len(values), d), np.nan), np.ones(len(values), dtype=bool)


def _dense_ids(items, where) -> np.ndarray:
    """The ids of ``items``, which must number them 0..len-1: checked as one
    column, and item by item only to name the first that fails."""
    if set(map(type, items)) == {dict}:
        ids, bad = _numeric([item.get("id") for item in items], _INTEGER)
        if not bad.any() and np.all((0 <= ids) & (ids < len(items))):
            ids = ids.astype(int)
            if np.bincount(ids, minlength=len(items)).all():
                return ids
    seen = set()
    for i, item in enumerate(items):
        ident = _need(item, "id", f"{where}[{i}]")
        if type(ident) is not int or ident < 0:
            raise SchemaError("id must be a nonnegative integer", field=f"{where}[{i}].id")
        if ident in seen:
            raise SchemaError(f"duplicate id {ident}", field=f"{where}[{i}].id")
        seen.add(ident)
    raise SchemaError(f"ids must be dense 0..{len(items) - 1}", field=where)


def _check_spring(spring, where, n, d):
    """Raise the ``SchemaError`` of the first field of ``spring`` that fails
    its check, in the order the fields are read; return if none does."""
    origin = _need(spring, "origin", where, int)
    terminus = _need(spring, "terminus", where, int)
    for name, ref in (("origin", origin), ("terminus", terminus)):
        if not 0 <= ref < n:
            raise SchemaError(f"unknown node {ref}", field=f"{where}.{name}")
    if origin == terminus:
        # a spring joins two distinct nodes, shifted or not
        raise SchemaError("origin equals terminus", field=where)
    if _need(spring, "stiffness", where, float) <= 0:
        raise SchemaError("stiffness must be positive", field=f"{where}.stiffness")
    if _need(spring, "lower", where, float) >= _need(spring, "upper", where, float):
        raise SchemaError("lower limit must be below upper", field=where)
    if "shift" in spring:
        shift = spring["shift"]
        if not isinstance(shift, list) or len(shift) != d or any(type(v) is not int for v in shift):
            raise SchemaError(f"shift must be {d} integers", field=f"{where}.shift")


def load_network(path) -> tuple[LatticeDefinition, LoadSchedule]:
    """Parse and validate a network document.

    Nodes and springs are read by columns: each field is gathered once
    and checked as a whole, and the arrays are filled by index.  Only
    where a check fails are the items it flags read one by one, in order,
    to name the first that is invalid."""
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
    volume = None if meta.get("volume") is None else _need(meta, "volume", "meta", float)

    nodes = _need(doc, "nodes", "", list)
    if not nodes:
        raise SchemaError("at least one node required", field="nodes")
    node_ids = _dense_ids(nodes, "nodes")
    n = len(nodes)
    xs, bad = _vectors([node.get("coords") for node in nodes], d)
    for i in np.flatnonzero(bad):
        _need(nodes[i], "coords", f"nodes[{i}]", float, d)
    coords = np.empty((n, d))
    coords[node_ids] = xs

    springs = _need(doc, "springs", "", list)
    if not springs:
        raise SchemaError("at least one spring required", field="springs")
    ids = _dense_ids(springs, "springs")
    m = len(springs)

    def column(key, types=_NUMBER):
        return _numeric([spring.get(key) for spring in springs], types)

    origin, bad_origin = column("origin", _INTEGER)
    terminus, bad_terminus = column("terminus", _INTEGER)
    k, bad_k = column("stiffness")
    lo, bad_lo = column("lower")
    hi, bad_hi = column("upper")
    bad = (
        bad_origin | bad_terminus | bad_k | bad_lo | bad_hi
        | ~((0 <= origin) & (origin < n) & (0 <= terminus) & (terminus < n))
        | (origin == terminus) | ~(k > 0) | ~(lo < hi)
    )
    shifted = [i for i, spring in enumerate(springs) if "shift" in spring]
    given = [springs[i]["shift"] for i in shifted]
    shifts = np.zeros((m, d), dtype=int)
    if not (set(map(type, given)) <= {list} and set(map(len, given)) <= {d}
            and set(map(type, itertools.chain.from_iterable(given))) <= _INTEGER):
        bad[shifted] = True
    elif shifted:
        shifts[ids[shifted]] = given
    for i in np.flatnonzero(bad):
        _check_spring(springs[i], f"springs[{i}]", n, d)
    origins, termini = np.empty(m, dtype=int), np.empty(m, dtype=int)
    origins[ids], termini[ids] = origin, terminus
    stiffness, lower, upper = (np.empty(m) for _ in range(3))
    stiffness[ids], lower[ids], upper[ids] = k, lo, hi
    any_shift = bool(shifts.any())
    if any_shift and box is None:
        raise SchemaError("springs carry shifts but meta.box is missing", field="meta.box")
    box_lengths = _numbers(box, "meta.box", d) if any_shift else None
    if box_lengths is not None and min(box_lengths) <= 0:
        raise SchemaError("box lengths must be positive", field="meta.box")

    constraints = _need(doc, "constraints", "")
    rows = _need(constraints, "rows", "constraints", list)
    q = len(rows)
    if q == 0:
        raise SchemaError("at least one constraint row required", field="constraints.rows")
    R = np.zeros((q, n * d))
    for r, row in enumerate(rows):
        where = f"constraints.rows[{r}]"
        if not isinstance(row, list) or not row:
            raise SchemaError("expected a non-empty list of entries", field=where)
        for j, trip in enumerate(row):
            if not isinstance(trip, list) or len(trip) != 3:
                raise SchemaError("entries must be [node, axis, coefficient]", field=where)
            node, axis, coef = trip
            if not (type(node) is int and 0 <= node < n):
                raise SchemaError(f"unknown node {node}", field=where)
            if not (type(axis) is int and 0 <= axis < d):
                raise SchemaError(f"axis {axis} out of range", field=where)
            R[r, node * d + axis] += _numbers(coef, f"{where}[{j}]")
    offset = _need(constraints, "offset", "constraints", float, q)
    rate = _need(constraints, "rate", "constraints")
    rate_times = _times(rate, "constraints.rate", from_zero=True)
    rate_values = _need(rate, "values", "constraints.rate", float, len(rate_times), q)

    horizon = _need(doc, "horizon", "", float)
    if horizon <= 0:
        raise SchemaError("horizon must be positive", field="horizon")

    force_times = force_values = None
    if doc.get("force") is not None:
        force_times = _times(doc["force"], "force")
        force_values = _need(doc["force"], "values", "force", float, len(force_times), n * d)

    strain_axis = strain_times = strain_values = None
    if doc.get("strain") is not None:
        strain = doc["strain"]
        strain_axis = _need(strain, "axis", "strain", int)
        if not 0 <= strain_axis < d:
            raise SchemaError("axis out of range", field="strain.axis")
        strain_times = _times(strain, "strain")
        strain_values = _need(strain, "values", "strain", float, len(strain_times))

    try:
        definition = LatticeDefinition(
            origins=origins,
            termini=termini,
            reference_coords=coords.reshape(-1),
            dimension=d,
            stiffness=stiffness,
            lower_limits=lower,
            upper_limits=upper,
            constraint_matrix=R,
            edge_shifts=shifts if any_shift else None,
            box_lengths=box_lengths,
            volume=volume,
            label=meta.get("label", ""),
        )
        loads = LoadSchedule(
            displacement_offset=offset,
            rate_times=rate_times,
            rate_values=rate_values,
            horizon=horizon,
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
    origins, termini = definition.spring_endpoints()
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": {
            "dimension": d,
            "box": None if definition.box_lengths is None else definition.box_lengths.tolist(),
            "volume": definition.volume,
            "label": definition.label,
        },
        "nodes": [{"id": i, "coords": c} for i, c in enumerate(definition.node_coords().tolist())],
        "springs": [],
        "constraints": {
            "rows": [],
            "offset": loads.displacement_offset.tolist(),
            "rate": {"times": loads.rate_times.tolist(), "values": loads.rate_values.tolist()},
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
            spring["shift"] = definition.edge_shifts[s].tolist()
        doc["springs"].append(spring)
    R = definition.constraint_matrix
    for r in range(R.shape[0]):
        row = [
            [int(c) // d, int(c) % d, float(R[r, c])]
            for c in np.flatnonzero(R[r])
        ]
        doc["constraints"]["rows"].append(row)
    if loads.force_times is not None:
        doc["force"] = {"times": loads.force_times.tolist(), "values": loads.force_values.tolist()}
    if loads.strain_times is not None:
        doc["strain"] = {
            "axis": int(loads.strain_axis),
            "times": loads.strain_times.tolist(),
            "values": loads.strain_values.tolist(),
        }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
