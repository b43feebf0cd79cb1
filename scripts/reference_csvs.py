"""Write the reference curve and event CSVs of one source tree.

    python scripts/reference_csvs.py <src-dir> <out-dir>

``<src-dir>`` is the directory that holds the ``latsweep`` package (a
checkout's ``src``); ``<out-dir>`` receives 36 files, one curve and one
events CSV for each of

- the networks: example1 with zero stress, example1 prestressed, the
  15 x 14 grid and the periodic 8 x 8 patch, as ``latsweep generate``
  writes them;
- the solvers: leapfrog, and catch-up with ``--mesh 1e-4``;
- the spaces: full and reduced;

and for the grid under a force ramp (``grid-ramp``), solved by catch-up
alone with ``--mesh 1e-3`` (20 steps) in both spaces: every step of it
starts from a phase-1 point, hinted by the last step's active bounds.

Every network is written and solved through ``latsweep.cli.main`` of
``<src-dir>``, so two trees are compared end to end by running this script
on each, in its own process, and comparing the two output directories file
by file with ``cmp``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import sys
import tempfile
from pathlib import Path

NETWORKS = {
    "example1": ["example1"],
    "grid": ["grid"],
    "periodic8": ["periodic", "--cells-x", "8", "--cells-y", "8"],
}
SOLVERS = {"leapfrog": [], "catchup": ["--mesh", "1e-4"]}
SPACES = ("full", "reduced")
#: The grid's force ramp: from 0 to this norm over the horizon, in a
#: direction drawn from ``default_rng(RAMP_SEED)``; leapfrog refuses it.
RAMP_NORM, RAMP_SEED, RAMP_MESH = 4e-4, 99, "1e-3"


def _run(main, argv: list[str]) -> None:
    """``main(argv)``, with its output captured; a nonzero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"latsweep {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def _save_ramped(src: str, dst: str) -> None:
    """The network ``src`` under the force ramp, saved as ``dst``."""
    import numpy as np

    from latsweep.io import load_network, save_network

    definition, loads = load_network(src)
    direction = np.random.default_rng(RAMP_SEED).standard_normal(definition.n_dof)
    direction *= RAMP_NORM / np.linalg.norm(direction)
    ramp = dataclasses.replace(
        loads,
        force_times=np.array([0.0, loads.horizon]),
        force_values=np.vstack([np.zeros_like(direction), direction]),
    )
    save_network(dst, definition, ramp)


def write_references(out_dir: Path) -> list[Path]:
    """Write the 36 CSVs into ``out_dir`` with the ``latsweep`` on
    ``sys.path``; the paths written."""
    import numpy as np

    from latsweep.cli import main
    from latsweep.generators import example1_prestressed_stress

    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {}
        for name, kind in NETWORKS.items():
            inputs[name] = str(Path(tmp, f"{name}.json"))
            _run(main, ["generate", *kind, "--out", inputs[name]])
        prestress = Path(tmp, "example1.sigma0")
        np.savetxt(prestress, example1_prestressed_stress())
        ramped = str(Path(tmp, "grid-ramp.json"))
        _save_ramped(inputs["grid"], ramped)
        cases = [(name, path, [], SOLVERS) for name, path in inputs.items()]
        cases.insert(1, ("example1-prestressed", inputs["example1"], ["--sigma0", str(prestress)], SOLVERS))
        cases.append(("grid-ramp", ramped, [], {"catchup": ["--mesh", RAMP_MESH]}))
        for name, network, extra, solvers in cases:
            for solver, options in solvers.items():
                for space in SPACES:
                    prefix = out_dir / f"{name}-{solver}-{space}"
                    _run(main, ["solve", network, "--solver", solver, *options,
                                "--space", space, *extra, "--out", str(prefix)])
                    written += [Path(f"{prefix}.csv"), Path(f"{prefix}.events.csv")]
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", help="directory that holds the latsweep package")
    parser.add_argument("out_dir", help="directory the CSVs are written to")
    args = parser.parse_args(argv)
    src = Path(args.src_dir).resolve()
    if not (src / "latsweep" / "__init__.py").is_file():
        parser.error(f"{src} holds no latsweep package")
    sys.path.insert(0, str(src))
    written = write_references(Path(args.out_dir))
    print(f"wrote {len(written)} files to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
