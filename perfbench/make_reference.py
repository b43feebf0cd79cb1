"""Write the reference outputs the benchmark checks every solve against.

    python3 perfbench/make_reference.py

Solves each workload's network in the generator's own numbering, in both
spaces, requires the two spaces to agree, and stores the reduced-space
events and curve as ``reference/<workload>.json``.  Run it only when a
workload changes, never to make a failing check pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

from run import MESH, REFERENCE_DIR, SPACES, WORK_DIR, WORKLOADS  # puts src/ on sys.path

import check
from latsweep import cli, save_network


def main() -> int:
    workdir = WORK_DIR / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        network = workdir / f"{workload.name}.json"
        save_network(network, *workload.build())
        outputs = {}
        for space in SPACES:
            prefix = str(workdir / f"{workload.name}-{space}")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["solve", str(network), "--solver", workload.solver,
                                 "--space", space, "--mesh", MESH, "--out", prefix])
            if code != 0:
                print(f"{workload.name}: {space} solve exited with {code}", file=sys.stderr)
                return 1
            outputs[space] = check.read_output(prefix)
        problem = check.compare(outputs["full"], outputs["reduced"])
        if problem is not None:
            print(f"{workload.name}: full and reduced spaces disagree: {problem}", file=sys.stderr)
            return 1
        with open(REFERENCE_DIR / f"{workload.name}.json", "w", encoding="utf-8") as fh:
            json.dump(outputs["reduced"], fh)
            fh.write("\n")
        print(f"{workload.name}: {len(outputs['reduced']['events'])} events, "
              f"{len(outputs['reduced']['curve']['time'])} curve rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
