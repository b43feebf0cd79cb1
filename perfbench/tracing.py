"""Spans around the public functions of each latsweep module.

The tracer replaces module attributes with timing wrappers for the length
of a ``with`` block and restores them afterwards; nothing under ``src/``
is edited.  Each name is patched where the caller looks it up: ``cli``
imports ``load_network``, ``assemble``, ``leapfrog`` and ``catchup`` by
name, and ``catchup`` imports ``project`` and ``static_set`` by name.
Modules come from ``importlib`` because the package attributes
``latsweep.catchup`` and ``latsweep.leapfrog`` are functions.

Spans are kept in memory as (name, start, end, parent, solve, info); the
``solve`` field is the index of the root ``cli.solve`` span, so all spans
of one solve share it.
"""

from __future__ import annotations

import importlib
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    solve: int = -1
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _svd_gflop(args, kwargs, result) -> dict:
    """Nominal Golub-Reinsch flop count of the SVD (Golub & Van Loan, table 8.6.1)."""
    rows, cols = args[0].shape[-2:]
    big, small = max(rows, cols), min(rows, cols)
    if not kwargs.get("compute_uv", True):
        flops = 4 * big * small**2 - 4 * small**3 / 3
    elif kwargs.get("full_matrices", True):
        flops = 4 * big**2 * small + 8 * big * small**2 + 9 * small**3
    else:
        flops = 14 * big * small**2 + 8 * small**3
    return {"gflop": flops / 1e9}


def _projection(args, kwargs, result) -> dict:
    return {"active_rows": len(result.active_inequalities), "kkt": result.kkt_residual}


def _set_megabytes(args, kwargs, result) -> dict:
    parts = (result.A, result.b, result.A_eq, result.b_eq)
    return {"mb": sum(p.nbytes for p in parts if p is not None) / 1e6}


def _bytes_written(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _events(args, kwargs, result) -> dict:
    return {"events": len(result.events)}


def _steps(args, kwargs, result) -> dict:
    return {"steps": len(result.states) - 1}


#: (module, attribute, span name, observer of the call's arguments and result)
PATCHES = (
    ("latsweep.cli", "load_network", "io.load_network", None),
    ("latsweep.cli", "assemble", "assembly.assemble", None),
    ("latsweep.cli", "build_moving_set", "sweeping.build_moving_set", None),
    ("latsweep.cli", "initial_state", "sweeping.initial_state", None),
    ("latsweep.cli", "leapfrog", "leapfrog.leapfrog", _events),
    ("latsweep.cli", "catchup", "catchup.catchup", _steps),
    ("latsweep.catchup", "project", "projection.project", _projection),
    ("latsweep.catchup", "static_set", "sweeping.static_set", _set_megabytes),
    ("latsweep.catchup", "detect_events", "catchup.detect_events", None),
    ("latsweep.leapfrog", "event_velocity", "leapfrog.event_velocity", None),
    ("latsweep.leapfrog", "tangent_cone", "leapfrog.tangent_cone", None),
    ("latsweep.leapfrog", "project_cone", "projection.project_cone", None),
    ("latsweep.projection", "project", "projection.project", _projection),
    ("latsweep.projection", "find_feasible_point", "projection.find_feasible_point", None),
    ("latsweep.analysis", "stress_strain_curve", "analysis.stress_strain_curve", None),
    ("latsweep.analysis", "write_curve_csv", "analysis.write", _bytes_written),
    ("latsweep.analysis", "write_events_csv", "analysis.write", _bytes_written),
    ("numpy.linalg", "svd", "linalg.svd", _svd_gflop),
)


class Tracer:
    """Records nested spans; use as a context manager to install the patches."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, observe=None, info=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, parent=parent,
                    solve=self.spans[parent].solve if parent >= 0 else index,
                    info=dict(info or {}))
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if observe is not None:
            span.info.update(observe(args, kwargs, result))
        return result

    def _wrap(self, fn, name, observe):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, observe=observe, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module_name, attr, name, observe in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, observe))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def _under(spans: list[Span], index: int, ancestor: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(
    spans: list[Span], overhead: float, solves: set[int] | None = None
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``, averaged per solve.

    ``solves`` restricts them to the solves whose root spans have these
    indices (all solves by default).
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        if solves is None or span.solve in solves:
            by_name.setdefault(span.name, []).append(i)
    n = max(len(by_name.get("cli.solve", ())), 1)

    def total(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def infos(name, key):
        return [spans[i].info[key] for i in by_name.get(name, ())]

    project = by_name.get("projection.project", [])
    project_ms = sorted(spans[i].duration * 1e3 for i in project)
    assemble_svd = [i for i in by_name.get("linalg.svd", []) if _under(spans, i, "assembly.assemble")]
    project_svd = [i for i in by_name.get("linalg.svd", []) if _under(spans, i, "projection.project")]
    active = infos("projection.project", "active_rows")

    def decile(values, q):
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=10, method="inclusive")[q - 1]

    catchup = total("catchup.catchup")
    catchup_inner = sum(
        spans[i].duration
        for name in ("projection.project", "sweeping.static_set", "catchup.detect_events")
        for i in by_name.get(name, ())
        if _under(spans, i, "catchup.catchup")
    )
    return {
        "io.load_network.s": (total("io.load_network") / n, "s"),
        "assembly.assemble.s": (total("assembly.assemble") / n, "s"),
        "linalg.svd.calls": (len(assemble_svd) / n, "count"),
        "linalg.svd.s": (sum(spans[i].duration for i in assemble_svd) / n, "s"),
        "linalg.svd.gflop_computed": (sum(spans[i].info["gflop"] for i in assemble_svd) / n, "GFLOP"),
        "sweeping.build_moving_set.s": (total("sweeping.build_moving_set") / n, "s"),
        "sweeping.initial_state.s": (total("sweeping.initial_state") / n, "s"),
        "sweeping.static_set.calls": (calls("sweeping.static_set") / n, "count"),
        "sweeping.static_set.s": (total("sweeping.static_set") / n, "s"),
        "sweeping.static_set.mb_computed": (sum(infos("sweeping.static_set", "mb")) / n, "MB"),
        "projection.project.calls": (len(project) / n, "count"),
        "projection.project.s": (total("projection.project") / n, "s"),
        "projection.project.self_s": (sum(own[i] for i in project) / n, "s"),
        "projection.project.p50_ms": (decile(project_ms, 5), "ms"),
        "projection.project.p90_ms": (decile(project_ms, 9), "ms"),
        "projection.svd_per_project": (len(project_svd) / max(len(project), 1), "count"),
        "projection.active_rows.mean": (sum(active) / max(len(active), 1), "count"),
        "projection.active_rows.max": (max(active, default=0), "count"),
        "projection.kkt_residual.max": (max(infos("projection.project", "kkt"), default=0.0), "1"),
        "projection.find_feasible_point.calls": (calls("projection.find_feasible_point") / n, "count"),
        "projection.find_feasible_point.s": (total("projection.find_feasible_point") / n, "s"),
        "leapfrog.leapfrog.s": (total("leapfrog.leapfrog") / n, "s"),
        "leapfrog.event_velocity.calls": (calls("leapfrog.event_velocity") / n, "count"),
        "leapfrog.event_velocity.s": (total("leapfrog.event_velocity") / n, "s"),
        "leapfrog.tangent_cone.s": (total("leapfrog.tangent_cone") / n, "s"),
        "leapfrog.bookkeeping_s": ((total("leapfrog.leapfrog") - total("leapfrog.event_velocity")) / n, "s"),
        "leapfrog.events": (sum(infos("leapfrog.leapfrog", "events")) / n, "count"),
        "catchup.catchup.s": (catchup / n, "s"),
        "catchup.steps": (sum(infos("catchup.catchup", "steps")) / n, "count"),
        "catchup.detect_events.s": (total("catchup.detect_events") / n, "s"),
        "catchup.bookkeeping_s": ((catchup - catchup_inner) / n, "s"),
        "analysis.stress_strain_curve.s": (total("analysis.stress_strain_curve") / n, "s"),
        "analysis.write.s": (total("analysis.write") / n, "s"),
        "analysis.bytes_written": (sum(infos("analysis.write", "bytes")) / n, "bytes"),
        "cli.solve.s": (total("cli.solve") / n, "s"),
        "cli.solve.self_s": (sum(own[i] for i in by_name.get("cli.solve", ())) / n, "s"),
        "trace.overhead": (overhead, "ratio"),
    }


def self_time_table(
    spans: list[Span], solves: set[int] | None = None
) -> list[tuple[str, int, float, float]]:
    """(name, calls, inclusive s, self s) per span name, in first-seen order."""
    own = self_times(spans)
    rows: dict[str, list] = {}
    for span, self_s in zip(spans, own):
        if solves is not None and span.solve not in solves:
            continue
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += self_s
    return [(name, c, s, o) for name, (c, s, o) in rows.items()]
