"""Command-line interface.

Subcommands: ``generate``, ``validate``, ``solve``, ``analyze``,
``check-safe-load``.  Exit codes: 0 success, 1 validation failure,
2 runtime error, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys
import traceback

import numpy as np

from . import analysis
from .assembly import assemble, determinacy_ranks, validate_assumptions
from .catchup import MAX_STEPS, TimePartition, catchup
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


_ERROR_LABELS = {VALIDATION_EXIT: "validation error", RUNTIME_EXIT: "error"}


def _exit_code(exc: BaseException) -> int | None:
    """Exit code of a named failure; None for anything else."""
    if isinstance(exc, _VALIDATION_ERRORS):
        return VALIDATION_EXIT
    if isinstance(exc, (LatSweepError, OSError, FloatingPointError)):
        return RUNTIME_EXIT
    return None


#: Arithmetic out of the floating-point range fails a command by name, exit
#: 2, instead of reaching its output as inf or NaN.  NumPy keeps this state
#: per thread, so each batch worker takes it too.
_finite_arithmetic = np.errstate(over="raise", invalid="raise", divide="raise")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _checked(convert, test, what: str):
    """An argparse type that converts with ``convert`` and refuses a value
    failing ``test``: a usage error naming the option."""

    def parse(text: str):
        try:
            value = convert(text)
            ok = bool(test(value))
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


_POSITIVE_FINITE = _checked(float, lambda v: 0 < v < np.inf, "a positive finite number")
_FINITE = _checked(float, np.isfinite, "a finite number")
_POSITIVE_INT = _checked(int, lambda v: v > 0, "a positive integer")


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
    gen.add_argument("--rate", type=_FINITE, default=1.0)
    gen.add_argument("--horizon", type=_POSITIVE_FINITE, default=None)

    val = sub.add_parser("validate", help="print a rigidity report")
    val.add_argument("network")

    slv = sub.add_parser("solve", help="integrate the stress evolution")
    slv.add_argument("network", nargs="+", help="one or more network files")
    slv.add_argument("--solver", choices=["catchup", "leapfrog"], default="leapfrog")
    slv.add_argument("--space", choices=["full", "reduced"], default="reduced")
    slv.add_argument("--mesh", type=_POSITIVE_FINITE, default=1e-4, help="catch-up step size")
    slv.add_argument("--sigma0", default=None, help="file with initial stresses, one per line")
    slv.add_argument("--out", required=True, help="output prefix for CSV files")

    ana = sub.add_parser("analyze", help="macroscopic metrics from solve output")
    ana.add_argument("curve", help="curve CSV written by solve")
    ana.add_argument("--events", default=None, help="events CSV (default: <curve-prefix>.events.csv)")
    ana.add_argument("--bins", type=_POSITIVE_INT, default=20)
    ana.add_argument("--label", default="")
    ana.add_argument("--out", required=True, help="report output path")

    saf = sub.add_parser("check-safe-load", help="test the safe load condition")
    saf.add_argument("network")
    return parser


def _cmd_generate(args) -> int:
    horizon = {} if args.horizon is None else {"horizon": args.horizon}
    if args.kind == "example1":
        definition, loads = build_example1()
    elif args.kind == "grid":
        definition, loads = build_tri_grid_with_hole(args.rows, args.cols, rate=args.rate, **horizon)
    else:
        definition, loads = build_triangular_periodic(
            args.cells_x, args.cells_y, strain_rate=args.rate, **horizon
        )
    # sizes from the command line, and no assemble: check once, as validate_assumptions does
    rank_R, rank_U = determinacy_ranks(definition)
    if rank_R + rank_U != definition.n_dof:
        raise InvalidInputError("generated lattice is not kinematically determinate")
    if definition.n_springs + definition.n_constraints - definition.n_dof <= 0:
        raise InvalidInputError("generated lattice has no self-stress states")
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
        and report.constraint_rank == q
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


def _read_stress(path: str | None) -> np.ndarray | None:
    """The numbers of the text file ``path``, as ``np.loadtxt`` reads them,
    read-only; ``None`` for no file.  None, or one that is no number, is an
    :class:`InitialConditionError`."""
    if path is None:
        return None
    try:
        with open(path) as file:
            lines = file.readlines()
    except FileNotFoundError:
        raise FileNotFoundError(f"{path} not found") from None
    if not any(line.split("#")[0].strip() for line in lines):
        raise InitialConditionError(f"initial stress file {path} holds no numbers")
    try:
        sigma0 = np.loadtxt(lines, ndmin=1)
    except ValueError as exc:
        raise InitialConditionError(f"initial stress file {path} is unreadable: {exc}") from None
    sigma0.flags.writeable = False  # shared by the networks of a batch
    return sigma0


@_finite_arithmetic
def _solve_one(network, args, prefix, sigma0) -> str:
    definition, loads = load_network(network)
    m = definition.n_springs
    if sigma0 is not None and sigma0.shape != (m,):  # refused before assemble
        raise InitialConditionError(f"initial stress has shape {sigma0.shape}, expected ({m},)")
    if args.solver == "catchup":  # refused before any factorization
        steps = loads.horizon / args.mesh
        if steps > MAX_STEPS:
            raise InvalidInputError(
                f"--mesh {args.mesh:g} asks for {steps:.3g} catch-up steps over the "
                f"horizon {loads.horizon:g}, more than the {MAX_STEPS} a partition holds"
            )
        partition = TimePartition.uniform(loads.horizon, max(1, int(round(steps))))
    system = assemble(definition)
    space = Space(args.space)
    spec = build_moving_set(system, space, loads)
    if sigma0 is None:
        sigma0 = np.zeros(m)
    state0 = initial_state(system, sigma0, loads, space, spec)
    if args.solver == "leapfrog":
        traj = leapfrog(system, spec, state0, loads)
    else:
        traj = catchup(system, spec, state0, loads, partition)
    curve = analysis.stress_strain_curve(traj, system, loads, _volume(definition))
    analysis.write_curve_csv(f"{prefix}.csv", curve)
    analysis.write_events_csv(f"{prefix}.events.csv", traj.events)
    return f"wrote {prefix}.csv and {prefix}.events.csv ({len(traj.events)} events)"


def _report(network, exc: BaseException) -> int:
    """Print one batch network's failure; its exit code."""
    code = _exit_code(exc)
    if code is None:  # not a named failure: keep its traceback
        traceback.print_exception(exc)
        code = RUNTIME_EXIT
    print(f"{network}: {_ERROR_LABELS[code]}: {exc}", file=sys.stderr)
    return code


def _cmd_solve(args) -> int:
    # the stress file is read once, and an unreadable one is refused
    # before any network is read
    if len(args.network) == 1:
        print(_solve_one(args.network[0], args, args.out, _read_stress(args.sigma0)))
        return 0
    # batch mode: one worker thread per trajectory, read-only shared inputs;
    # every network runs to its end and reports its own status
    from concurrent.futures import ThreadPoolExecutor
    from pathlib import Path

    prefixes = [f"{args.out}-{Path(net).stem}" for net in args.network]
    shared = sorted({p for p in prefixes if prefixes.count(p) > 1})
    if shared:  # refused before any solve: one output would overwrite another
        print(f"latsweep: error: several networks would write {shared[0]}.csv", file=sys.stderr)
        return USAGE_EXIT
    try:
        sigma0 = _read_stress(args.sigma0)
    except (LatSweepError, OSError) as exc:  # every network fails with it
        return max([_report(net, exc) for net in args.network])
    with ThreadPoolExecutor(max_workers=min(len(args.network), 8)) as pool:
        futures = [pool.submit(_solve_one, n, args, p, sigma0) for n, p in zip(args.network, prefixes)]
    worst = 0
    for net, future in zip(args.network, futures):
        exc = future.exception()
        if exc is None:
            print(f"{net}: {future.result()}")
        else:
            worst = max(worst, _report(net, exc))
    return worst


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
    # Within [0, horizon] the force path is piecewise linear with its kinks
    # among the breakpoints, and the safe set is convex: checking the
    # distinct forces there suffices.
    if loads.force_times is None:
        forces = [None]
    else:
        forces = np.unique([loads.f(float(t)) for t in loads.rate_breakpoints()], axis=0)
    ok = all(safe_load_check(system, f) for f in forces)
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
        return _finite_arithmetic(_COMMANDS[args.command])(args)
    except (LatSweepError, OSError, FloatingPointError) as exc:
        code = _exit_code(exc)
        print(f"latsweep: {_ERROR_LABELS[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
