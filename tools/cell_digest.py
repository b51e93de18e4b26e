"""Digest of every benchmark reference cell's output, for checking bit identity.

    python3 tools/cell_digest.py [--root CHECKOUT]

Runs every cell of the reference table in ``perfbench/cells.py`` (the three
workloads' 4,228 cells) through ``run_experiment``. For each workload it
prints the workload's name, its cell count and the sha256 of
``repr((rows, summary))`` over its cells, with the summary's ``wall_time_s``
left out; the last line is the cell count and the same sha256 over all
cells. A change meant to leave the output bits alone must print the same
lines as its parent: run it in both checkouts, or point ``--root`` at the
other one. Where the total differs, the workload lines show which workload
moved. It imports the package from ``CHECKOUT/src`` and the cells from
``CHECKOUT/perfbench``, and writes nothing.
"""

from __future__ import annotations

import os

# one BLAS thread, as in the benchmark
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import cells
    from robust_oco.harness.runner import run_experiment

    digest = hashlib.sha256()
    count = 0
    for workload in cells.WORKLOADS:
        workload_digest = hashlib.sha256()
        workload_count = 0
        for cell in cells.reference_cells(workload):
            trace = run_experiment(cell.config, seed=cell.seed)
            summary = {k: v for k, v in trace.summary.items() if k != "wall_time_s"}
            record = repr((trace.rows, summary)).encode()
            digest.update(record)
            workload_digest.update(record)
            workload_count += 1
        print(f"{workload} {workload_count} cells {workload_digest.hexdigest()}", flush=True)
        count += workload_count
    print(f"{count} cells {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
