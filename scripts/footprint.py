"""Print the memory footprint of ``assemble``, ``validate_assumptions`` and
catch-up's states on named networks.

    python scripts/footprint.py [--src <src-dir>] grid periodic8x8 periodic32x32

A name is ``example1``, ``grid`` (the 15 x 14 grid with a hole),
``periodic<X>x<Y>`` (the periodic triangular patch of X by Y cells), or the
path of a network file.  For each network it prints

- the dimensions: nodes, springs, constraints, ``dim_u`` and ``dim_v``;
- the peaks of ``assemble`` and of ``validate_assumptions`` (what
  ``latsweep validate`` runs), each traced on its own by ``tracemalloc``,
  which sees NumPy's arrays but not LAPACK's workspace;
- the bytes of each array the ``AssembledSystem`` keeps, as assembled,
  before any solve builds a cached one; the lattice definition is the
  input and is not counted;
- the bytes a catch-up trajectory keeps per state in each space, traced
  by ``tracemalloc`` around a run of :data:`STEPS` steps of the network's
  own loads from zero stress, as ``latsweep solve`` starts, divided by its
  states after the first, and in units of one m-vector;
- the peak of an in-process ``latsweep solve --solver catchup`` in each
  space, at :data:`STEPS` steps and at ten times as many, and their ratio.
  The CLI folds each state into its curve row as it is made: past one
  block of ``STACKED_ROWS`` steps, its peak grows by those rows alone.

``<src-dir>`` holds the ``latsweep`` package, by default this checkout's
``src``: running the script on two trees compares their footprints.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

MB = 1e6

#: Steps of the catch-up run whose kept bytes are counted per state.
STEPS = 20


def build(name: str):
    """The lattice definition and the loads a name stands for."""
    from latsweep.generators import build_example1, build_tri_grid_with_hole, build_triangular_periodic
    from latsweep.io import load_network

    if name == "example1":
        return build_example1()
    if name == "grid":
        return build_tri_grid_with_hole()
    cells = re.fullmatch(r"periodic(\d+)x(\d+)", name)
    if cells:
        return build_triangular_periodic(int(cells[1]), int(cells[2]))
    if Path(name).is_file():
        return load_network(name)
    raise SystemExit(f"unknown network {name!r}: example1, grid, periodic<X>x<Y> or a network file")


def kept_arrays(system) -> dict[str, int]:
    """Bytes of each array the system keeps, by field name; the arrays of
    a dataclass field (such as the constraint kernel ``N``) are summed under
    its name."""
    sizes = {}
    for name, value in vars(system).items():
        if name == "definition":
            continue
        if isinstance(value, np.ndarray):
            sizes[name] = value.nbytes
        elif dataclasses.is_dataclass(value):
            parts = [getattr(value, f.name) for f in dataclasses.fields(value)]
            arrays = [p for p in parts if isinstance(p, np.ndarray)]
            if arrays:
                sizes[name] = sum(a.nbytes for a in arrays)
    return sizes


def bytes_per_state(system, loads, space) -> float:
    """Bytes a :data:`STEPS`-step catch-up run keeps per state it adds."""
    from latsweep.catchup import TimePartition, catchup
    from latsweep.sweeping import build_moving_set, initial_state

    spec = build_moving_set(system, space, loads)
    state0 = initial_state(system, np.zeros(system.dims.n_springs), loads, space, spec)
    partition = TimePartition.uniform(loads.horizon, STEPS)
    tracemalloc.start()
    try:
        trajectory = catchup(system, spec, state0, loads, partition)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return kept / (len(trajectory.states) - 1)


def traced_peak(function, *args):
    """``function(*args)`` and the peak bytes ``tracemalloc`` saw it take."""
    tracemalloc.start()
    try:
        result = function(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def cli_catchup_peaks(definition, loads, space) -> tuple[int, int]:
    """Peak bytes of an in-process ``latsweep solve --solver catchup`` of
    the network in ``space``, at :data:`STEPS` steps and at ten times as
    many."""
    from latsweep.cli import main
    from latsweep.io import save_network

    peaks = []
    with tempfile.TemporaryDirectory() as tmp:
        network = f"{tmp}/network.json"
        save_network(network, definition, loads)
        for steps in (STEPS, 10 * STEPS):
            argv = ["solve", network, "--solver", "catchup", "--space", space.value,
                    "--mesh", repr(loads.horizon / steps), "--out", f"{tmp}/out"]
            with contextlib.redirect_stdout(io.StringIO()):
                code, peak = traced_peak(main, argv)
            if code != 0:
                raise SystemExit(f"latsweep {' '.join(argv)} exited {code}")
            peaks.append(peak)
    return peaks[0], peaks[1]


def footprint(name: str) -> str:
    from latsweep.assembly import assemble, validate_assumptions
    from latsweep.sweeping import Space

    definition, loads = build(name)
    system, peak = traced_peak(assemble, definition)
    _, validate_peak = traced_peak(validate_assumptions, definition)
    dims = system.dims
    sizes = sorted(kept_arrays(system).items(), key=lambda item: -item[1])
    vector = 8 * dims.n_springs
    per_state = {space.value: bytes_per_state(system, loads, space) for space in Space}
    cli_peaks = {space.value: cli_catchup_peaks(definition, loads, space) for space in Space}
    return "\n".join([
        f"{name}: nodes {dims.n_nodes}, springs {dims.n_springs}, constraints {dims.n_constraints}, "
        f"dim_u {dims.dim_u}, dim_v {dims.dim_v}",
        f"  assemble peak {peak / MB:.3f} MB, validate_assumptions peak {validate_peak / MB:.3f} MB"
        " (tracemalloc)",
        f"  kept {sum(size for _, size in sizes) / MB:.3f} MB: "
        + ", ".join(f"{field} {size / MB:.3f}" for field, size in sizes),
        f"  catch-up keeps per state ({STEPS} steps): "
        + ", ".join(f"{space} {size / 1e3:.2f} kB ({size / vector:.2f} m-vectors)"
                    for space, size in per_state.items()),
        f"  CLI catch-up peak at {STEPS} and {10 * STEPS} steps (tracemalloc): "
        + ", ".join(f"{space} {small / MB:.3f} and {large / MB:.3f} MB ({large / small:.2f}x)"
                    for space, (small, large) in cli_peaks.items()),
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("networks", nargs="+", help="example1, grid, periodic<X>x<Y> or a network file")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory that holds the latsweep package (default: this checkout's src)")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "latsweep" / "__init__.py").is_file():
        parser.error(f"{src} holds no latsweep package")
    sys.path.insert(0, str(src))
    for name in args.networks:
        print(footprint(name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
