"""Command-line interface.

Subcommands: ``generate``, ``validate``, ``solve``, ``analyze``,
``check-safe-load``.  Exit codes: 0 success, 1 validation failure,
2 runtime error, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis
from .assembly import assemble, validate_assumptions
from .catchup import TimePartition, catchup
from .errors import (
    AssumptionError,
    InitialConditionError,
    InvalidInputError,
    LatSweepError,
    SchemaError,
    UnsupportedLoadError,
)
from .generators import build_example1, build_tri_grid_with_hole, build_triangular_periodic
from .io import load_network, save_network
from .leapfrog import leapfrog
from .linalg import numerical_rank
from .sweeping import Space, build_moving_set, initial_state, safe_load_check

USAGE_EXIT = 64
VALIDATION_EXIT = 1
RUNTIME_EXIT = 2

_VALIDATION_ERRORS = (
    SchemaError,
    AssumptionError,
    InvalidInputError,
    InitialConditionError,
    UnsupportedLoadError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="latsweep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="write a built-in example network")
    gen.add_argument("kind", choices=["example1", "grid", "periodic"])
    gen.add_argument("--out", required=True, help="output network file")
    gen.add_argument("--rows", type=int, default=15)
    gen.add_argument("--cols", type=int, default=14)
    gen.add_argument("--cells-x", type=int, default=4)
    gen.add_argument("--cells-y", type=int, default=4)
    gen.add_argument("--rate", type=float, default=1.0)
    gen.add_argument("--horizon", type=float, default=None)

    val = sub.add_parser("validate", help="print a rigidity report")
    val.add_argument("network")

    slv = sub.add_parser("solve", help="integrate the stress evolution")
    slv.add_argument("network", nargs="+", help="one or more network files")
    slv.add_argument("--solver", choices=["catchup", "leapfrog"], default="leapfrog")
    slv.add_argument("--space", choices=["full", "reduced"], default="reduced")
    slv.add_argument("--mesh", type=float, default=1e-4, help="catch-up step size")
    slv.add_argument("--sigma0", default=None, help="file with initial stresses, one per line")
    slv.add_argument("--out", required=True, help="output prefix for CSV files")

    ana = sub.add_parser("analyze", help="macroscopic metrics from solve output")
    ana.add_argument("curve", help="curve CSV written by solve")
    ana.add_argument("--events", default=None, help="events CSV (default: <curve-prefix>.events.csv)")
    ana.add_argument("--bins", type=int, default=20)
    ana.add_argument("--label", default="")
    ana.add_argument("--out", required=True, help="report output path")

    saf = sub.add_parser("check-safe-load", help="test the safe load condition")
    saf.add_argument("network")
    return parser


def _cmd_generate(args) -> int:
    if args.kind == "example1":
        definition, loads = build_example1()
    elif args.kind == "grid":
        kwargs = {"rows": args.rows, "cols": args.cols, "rate": args.rate}
        if args.horizon is not None:
            kwargs["horizon"] = args.horizon
        definition, loads = build_tri_grid_with_hole(**kwargs)
    else:
        kwargs = {"cells_x": args.cells_x, "cells_y": args.cells_y, "strain_rate": args.rate}
        if args.horizon is not None:
            kwargs["horizon"] = args.horizon
        definition, loads = build_triangular_periodic(**kwargs)
    save_network(args.out, definition, loads)
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    definition, _ = load_network(args.network)
    report = validate_assumptions(definition)
    n, m = definition.n_nodes, definition.n_springs
    nd, q = definition.n_dof, definition.n_constraints
    print(f"nodes = {n}")
    print(f"springs = {m}")
    print(f"dimension = {definition.dimension}")
    print(f"constraints = {q}")
    print(f"zero_modes = {report.zero_modes}")
    print(f"self_stress_states = {report.self_stress_states}")
    print(f"rigid_motion_dim = {report.rigid_motion_dim}")
    print(f"index_residual = {report.index_residual}")
    print(f"mechanisms = {report.mechanisms}")
    print(f"kinematically_determinate = {report.kinematically_determinate}")
    print(f"statically_determinate = {report.statically_determinate}")
    print(f"dim_U = {nd - q}")
    print(f"dim_V = {m - nd + q}")
    ok = (
        report.kinematically_determinate
        and not report.statically_determinate
        and numerical_rank(definition.constraint_matrix) == q
    )
    print(f"assumptions = {'pass' if ok else 'FAIL'}")
    return 0 if ok else VALIDATION_EXIT


def _volume(definition) -> float:
    if definition.volume is not None:
        return float(definition.volume)
    coords = definition.node_coords()
    extents = coords.max(axis=0) - coords.min(axis=0)
    vol = float(np.prod(extents[extents > 0]))
    return vol if vol > 0 else 1.0


def _solve_one(network, args, prefix) -> str:
    definition, loads = load_network(network)
    system = assemble(definition)
    space = Space(args.space)
    spec = build_moving_set(system, space, loads)
    if args.sigma0 is not None:
        sigma0 = np.loadtxt(args.sigma0, ndmin=1)
    else:
        sigma0 = np.zeros(system.dims.n_springs)
    state0 = initial_state(system, sigma0, loads, space, spec)
    if args.solver == "leapfrog":
        traj = leapfrog(system, spec, state0, loads)
    else:
        steps = max(1, int(round(loads.horizon / args.mesh)))
        traj = catchup(system, spec, state0, loads, TimePartition.uniform(loads.horizon, steps))
    curve = analysis.stress_strain_curve(traj, system, loads, _volume(definition))
    analysis.write_curve_csv(f"{prefix}.csv", curve)
    analysis.write_events_csv(f"{prefix}.events.csv", traj.events)
    return f"wrote {prefix}.csv and {prefix}.events.csv ({len(traj.events)} events)"


def _cmd_solve(args) -> int:
    if len(args.network) == 1:
        print(_solve_one(args.network[0], args, args.out))
        return 0
    # batch mode: one worker thread per trajectory, read-only shared inputs
    from concurrent.futures import ThreadPoolExecutor
    from pathlib import Path

    prefixes = [f"{args.out}-{Path(net).stem}" for net in args.network]
    with ThreadPoolExecutor(max_workers=min(len(args.network), 8)) as pool:
        for line in pool.map(lambda nv: _solve_one(nv[0], args, nv[1]),
                             zip(args.network, prefixes)):
            print(line)
    return 0


def _cmd_analyze(args) -> int:
    curve = analysis.read_curve_csv(args.curve)
    events_path = args.events
    if events_path is None:
        base = args.curve[:-4] if args.curve.endswith(".csv") else args.curve
        events_path = f"{base}.events.csv"
    event_times = analysis.read_events_csv(events_path)
    report = analysis.metrics_from_curve(
        curve["time"],
        curve["strain"],
        curve["sigma11"],
        event_times,
        horizon=float(curve["time"][-1]),
        bins=args.bins,
        label=args.label,
        curve=curve,
    )
    analysis.write_report(args.out, report)
    print(f"wrote {args.out}")
    return 0


def _cmd_check_safe_load(args) -> int:
    definition, loads = load_network(args.network)
    system = assemble(definition)
    times = loads.rate_breakpoints() if loads.force_times is None else loads.force_times
    ok = all(safe_load_check(system, loads.f(float(t))) for t in times)
    print(f"safe_load = {'pass' if ok else 'FAIL'}")
    return 0 if ok else VALIDATION_EXIT


_COMMANDS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "check-safe-load": _cmd_check_safe_load,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"latsweep: validation error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except (LatSweepError, OSError) as exc:
        print(f"latsweep: error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
