"""Write the reference curve and event CSVs of one source tree.

    python scripts/reference_csvs.py <src-dir> <out-dir>

``<src-dir>`` is the directory that holds the ``latsweep`` package (a
checkout's ``src``); ``<out-dir>`` receives 32 files, one curve and one
events CSV for each of

- the networks: example1 with zero stress, example1 prestressed, the
  15 x 14 grid and the periodic 8 x 8 patch, as ``latsweep generate``
  writes them;
- the solvers: leapfrog, and catch-up with ``--mesh 1e-4``;
- the spaces: full and reduced.

Every network is written and solved through ``latsweep.cli.main`` of
``<src-dir>``, so two trees are compared end to end by running this script
on each, in its own process, and comparing the two output directories file
by file with ``cmp``.
"""

from __future__ import annotations

import argparse
import contextlib
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


def _run(main, argv: list[str]) -> None:
    """``main(argv)``, with its output captured; a nonzero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"latsweep {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def write_references(out_dir: Path) -> list[Path]:
    """Write the 32 CSVs into ``out_dir`` with the ``latsweep`` on
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
        cases = [(name, path, []) for name, path in inputs.items()]
        cases.insert(1, ("example1-prestressed", inputs["example1"], ["--sigma0", str(prestress)]))
        for name, network, extra in cases:
            for solver, options in SOLVERS.items():
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
