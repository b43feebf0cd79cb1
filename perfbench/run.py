"""latsweep benchmark: wall time of ``latsweep solve`` on relabelled lattices.

    python3 perfbench/run.py --workload grid-catchup --seed 1 --seconds 30 --trace 0

Each workload is one generated lattice.  The benchmark draws relabellings
of its node and spring ids (a fixed corpus, the same in every run, plus a
few drawn from ``--seed``), writes each relabelled network with
``save_network``, and runs ``latsweep solve`` on the files in-process
through ``latsweep.cli.main``: one process, one solve at a time (a closed
loop), BLAS threads left at the library default.  Every output is mapped
back through its relabelling and checked against ``reference/``.

With ``--trace 0`` the last line holds the end-to-end metrics: the mean
solve time per space over the input set, the median set-up time, and the
peak traced allocation of one solve.  With ``--trace 1`` it holds the
per-layer split of a traced pass (see ``tracing.py``) and the tracing
overhead against an untraced pass over the same inputs.  Details go to
``.perfbench_work/<workload>-seed<seed>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "latsweep" / "__init__.py").is_file():
    sys.exit(f"perfbench: no latsweep sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from latsweep import (  # noqa: E402
    Space,
    assemble,
    build_moving_set,
    build_tri_grid_with_hole,
    build_triangular_periodic,
    initial_state,
    load_network,
    save_network,
)
from latsweep import cli  # noqa: E402

import check  # noqa: E402
from relabel import Relabelling  # noqa: E402
from tracing import Tracer, layer_metrics, self_time_table  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WORK_DIR = ROOT / ".perfbench_work"
SPACES = ("reduced", "full")
MESH = "1e-4"
#: Set-up is timed at least this many times and for at least this many
#: seconds per run, cycling over the input set.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str
    build: Callable
    corpus: int  # relabellings from a fixed stream, the same in every run
    seeded: int  # relabellings drawn from --seed


# Set sizes make one pass over both spaces last about 30 s on a 2-core
# x86-64 machine.  Solve time across numberings is heavy-tailed (periodic 8x8:
# 0.2-4 s), so a set drawn from the seed alone would make the mean move
# with the seed; the fixed corpus keeps it steady while the seeded part
# still meets numberings no change was written against.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-catchup", "catchup", build_tri_grid_with_hole, 2, 1),
        Workload("periodic-leapfrog", "leapfrog", lambda: build_triangular_periodic(8, 8), 19, 1),
        Workload("grid-leapfrog", "leapfrog", build_tri_grid_with_hole, 18, 2),
    )
}


@dataclass(frozen=True)
class Job:
    index: int
    network: str
    springs: np.ndarray  # springs[j]: original id of spring j


def relabellings(workload: Workload, n_nodes: int, n_springs: int, seed: int) -> list[Relabelling]:
    key = zlib.crc32(workload.name.encode())
    corpus = np.random.default_rng([key, 0])
    seeded = np.random.default_rng([key, 1, seed])
    return [Relabelling.draw(corpus, n_nodes, n_springs) for _ in range(workload.corpus)] + [
        Relabelling.draw(seeded, n_nodes, n_springs) for _ in range(workload.seeded)
    ]


def write_networks(workload: Workload, seed: int, workdir: Path) -> list[Job]:
    definition, loads = workload.build()
    jobs = []
    for k, relabelling in enumerate(
        relabellings(workload, definition.n_nodes, definition.n_springs, seed)
    ):
        path = workdir / f"net-{k}.json"
        save_network(path, *relabelling.apply(definition, loads))
        jobs.append(Job(k, str(path), relabelling.springs))
    return jobs


class Runner:
    """Runs and checks solves, counting attempts and failures."""

    def __init__(self, workload: Workload, workdir: Path, reference: dict):
        self.workload = workload
        self.workdir = workdir
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def solve(self, job: Job, space: str, tracer: Tracer | None = None,
              peaks: dict | None = None) -> float:
        """Wall seconds of one ``latsweep solve`` call; the output is checked after.

        With ``peaks`` the call runs under ``tracemalloc`` and its peak
        allocation in MB is stored under ``peaks[space]``.
        """
        prefix = str(self.workdir / f"out-{job.index}-{space}")
        argv = ["solve", job.network, "--solver", self.workload.solver,
                "--space", space, "--mesh", MESH, "--out", prefix]
        self.attempted += 1
        problem = None
        if peaks is not None:
            tracemalloc.start()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call("cli.solve", cli.main, argv, info={"space": space})
        except Exception as exc:  # a solve that raises fails alone; the run goes on
            traceback.print_exc()
            code, problem = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if peaks is not None:
            peaks[space] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
        if code is not None and code != 0:
            problem = f"exit code {code}"
        if problem is None:
            try:
                problem = check.compare(check.read_output(prefix, job.springs), self.reference)
            except (OSError, ValueError, KeyError) as exc:
                problem = f"unreadable output: {exc}"
        if problem is not None:
            self.failed += 1
            print(f"perfbench: network {job.index} ({space}) failed: {problem}", file=sys.stderr)
        return elapsed


def timed_passes(runner: Runner, jobs: list[Job], seconds: float) -> dict[str, list[float]]:
    """Whole passes over the input set while another pass fits in ``seconds``."""
    samples = {space: [] for space in SPACES}
    start = perf_counter()
    while True:
        began = perf_counter()
        for job in jobs:
            # alternate the space order so neither space always runs first
            for space in SPACES if job.index % 2 == 0 else SPACES[::-1]:
                samples[space].append(runner.solve(job, space))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return samples


def setup_times(jobs: list[Job]) -> list[float]:
    """Wall seconds of load -> assemble -> build_moving_set -> initial_state
    (both spaces) per network, untraced."""
    times = []
    began = perf_counter()
    while len(times) < SETUP_REPEATS or perf_counter() - began < SETUP_SECONDS:
        job = jobs[len(times) % len(jobs)]
        start = perf_counter()
        definition, loads = load_network(job.network)
        system = assemble(definition)
        for space in Space:
            spec = build_moving_set(system, space, loads)
            initial_state(system, np.zeros(system.dims.n_springs), loads, space, spec)
        times.append(perf_counter() - start)
    return times


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, when it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "latsweep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS") if k in os.environ},
        "machine": platform.machine(),
    }


def _summary(values: list[float]) -> dict:
    return {"mean": statistics.fmean(values), "median": statistics.median(values),
            "max": max(values), "n": len(values)}


def run_untraced(runner: Runner, jobs: list[Job], seconds: float) -> tuple[dict, dict]:
    setups = setup_times(jobs)
    # peak traced Python/NumPy allocation of one untimed solve per space;
    # tracemalloc does not see LAPACK workspace
    peaks: dict[str, float] = {}
    for space in SPACES:
        runner.solve(jobs[0], space, peaks=peaks)
    samples = timed_passes(runner, jobs, seconds)
    solve = {space: _summary(samples[space]) for space in SPACES}
    for space in SPACES:
        s = solve[space]
        print(f"solve_{space}_s: mean {s['mean']:.4f} s, median {s['median']:.4f} s, "
              f"max {s['max']:.4f} s, n {s['n']}")
    print(f"setup_s: median {statistics.median(setups):.4f} s over {len(setups)} set-ups")
    print("peak_mem_mb: " + ", ".join(f"{space} {peaks[space]:.2f} MB" for space in SPACES))
    metrics = {
        "solve_reduced_s": (solve["reduced"]["mean"], "s"),
        "solve_full_s": (solve["full"]["mean"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_mem_mb": (max(peaks.values()), "MB"),
    }
    detail = {"solve": solve, "samples": samples, "setup_s": setups, "peak_mem_mb": peaks}
    return metrics, detail


def run_traced(runner: Runner, jobs: list[Job], workdir: Path) -> tuple[dict, dict]:
    runner.solve(jobs[0], SPACES[0])  # warm-up, not timed
    # Each solve runs untraced and traced back to back, in alternating order,
    # so drift in machine speed cancels out of the overhead.
    tracer = Tracer()
    wall = {"untraced": 0.0, "traced": 0.0}
    for job in jobs:
        for k, space in enumerate(SPACES):
            for traced in (False, True) if (job.index + k) % 2 == 0 else (True, False):
                if traced:
                    with tracer:
                        wall["traced"] += runner.solve(job, space, tracer)
                else:
                    wall["untraced"] += runner.solve(job, space)
    overhead = wall["traced"] / wall["untraced"] - 1.0
    spans = tracer.spans
    detail = {"wall_s": wall, "overhead": overhead, "by_space": {}}
    print(f"trace: {len(spans)} spans, traced solves {wall['traced']:.3f} s, "
          f"untraced solves {wall['untraced']:.3f} s, overhead {overhead:+.1%}")
    for space in SPACES:
        solves = {i for i, s in enumerate(spans) if s.name == "cli.solve" and s.info["space"] == space}
        n = len(solves)
        print(f"layers, {space} space, per solve over {n} solves: calls, inclusive s, self s")
        rows = self_time_table(spans, solves)
        for name, calls, incl, own in rows:
            print(f"  {name:34s} {calls / n:10.1f} {incl / n:10.4f} {own / n:10.4f}")
        detail["by_space"][space] = {
            "table": rows,
            "metrics": {k: v for k, (v, _) in layer_metrics(spans, overhead, solves).items()},
        }
    with open(workdir / "spans.json", "w", encoding="utf-8") as fh:
        json.dump([[s.name, s.start, s.end, s.parent, s.solve] for s in spans], fh)
    return layer_metrics(spans, overhead), detail


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    reference = check.load_reference(REFERENCE_DIR / f"{workload.name}.json")
    jobs = write_networks(workload, args.seed, workdir)
    print(f"workload {workload.name}: {len(jobs)} networks ({workload.corpus} corpus + "
          f"{workload.seeded} from seed {args.seed}), {workload.solver}, spaces {', '.join(SPACES)}")

    runner = Runner(workload, workdir, reference)
    if args.trace:
        metrics, detail = run_traced(runner, jobs, workdir)
    else:
        metrics, detail = run_untraced(runner, jobs, args.seconds)
    print(f"error_rate: {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.4f}")
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
                   "attempted": runner.attempted, "failed": runner.failed,
                   "metrics": metrics, "detail": detail}, fh, indent=1)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
