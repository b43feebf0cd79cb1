"""Output check: a solve's events and curve against the reference outputs.

Events are mapped back through the relabelling before comparison: each
event's set of (spring, side) arrivals must equal the reference set, and
event times must agree to ``TIME_RTOL``.  The curve is invariant under
relabelling; each column must agree to ``CURVE_RTOL`` of its scale (the
three stress columns share one scale).  Sizing runs on relabelled grids and
periodic patches showed gaps of at most 2e-12 in event times and 2e-11 in
stresses, in both spaces.
"""

from __future__ import annotations

import csv
import json

import numpy as np

TIME_RTOL = 1e-9
CURVE_RTOL = 1e-9
CURVE_COLUMNS = ("time", "strain", "sigma11", "sigma22", "sigma12")
STRESS_COLUMNS = ("sigma11", "sigma22", "sigma12")


def read_output(prefix: str, springs: np.ndarray | None = None) -> dict:
    """Events and curve written by ``latsweep solve --out prefix``.

    ``springs[j]`` is the original id of spring ``j`` of the solved network.
    """
    events: dict[int, dict] = {}
    with open(f"{prefix}.events.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            event = events.setdefault(int(row["event"]), {"time": float(row["time"]), "arrivals": []})
            spring = int(row["spring"])
            event["arrivals"].append([int(springs[spring]) if springs is not None else spring, row["side"]])
    with open(f"{prefix}.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CURVE_COLUMNS:
            raise ValueError(f"unexpected curve header {header}")
        rows = [[float(v) for v in row] for row in reader]
    columns = list(zip(*rows)) if rows else [()] * len(CURVE_COLUMNS)
    return {
        "events": [
            {"time": e["time"], "arrivals": sorted(e["arrivals"])}
            for _, e in sorted(events.items())
        ],
        "curve": {name: list(col) for name, col in zip(CURVE_COLUMNS, columns)},
    }


def compare(output: dict, reference: dict) -> str | None:
    """First disagreement between two outputs, or ``None`` when they agree."""
    got, want = output["events"], reference["events"]
    if len(got) != len(want):
        return f"{len(got)} events, reference has {len(want)}"
    for k, (g, w) in enumerate(zip(got, want)):
        if g["arrivals"] != w["arrivals"]:
            return f"event {k} arrivals differ from the reference"
        if abs(g["time"] - w["time"]) > TIME_RTOL * abs(w["time"]):
            return f"event {k} at t = {g['time']!r}, reference t = {w['time']!r}"
    curve, ref = output["curve"], reference["curve"]
    if len(curve["time"]) != len(ref["time"]):
        return f"{len(curve['time'])} curve rows, reference has {len(ref['time'])}"
    stress_scale = max(np.abs(ref[c]).max(initial=0.0) for c in STRESS_COLUMNS)
    for name in CURVE_COLUMNS:
        scale = stress_scale if name in STRESS_COLUMNS else np.abs(ref[name]).max(initial=0.0)
        gap = np.abs(np.subtract(curve[name], ref[name])).max(initial=0.0)
        if gap > CURVE_RTOL * scale:
            return f"curve column {name} off by {gap:.3e} (scale {scale:.3e})"
    return None


def load_reference(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
