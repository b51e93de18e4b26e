"""Python and C calls per round of one reference cell per player, for review.

    python3 tools/call_count.py [--root CHECKOUT]

Runs the first reference cell of each player of every workload in
``perfbench/cells.py`` through ``run_experiment``, under ``sys.setprofile``,
and prints one line per cell: the workload, the player and the calls per
round, counting every Python call and every call into C over the whole run
(set-up included) divided by its rounds. The count is exact and repeatable
for a given Python and numpy, unlike a timing, so it shows a change that
adds or removes work on the round path. Run it in both checkouts, or point
``--root`` at the other one, to compare. It imports the package from
``CHECKOUT/src`` and the cells from ``CHECKOUT/perfbench``, and writes no
trace.
"""

from __future__ import annotations

import os

# one BLAS thread, as in the benchmark
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def calls_of(fn) -> int:
    """The Python and C calls made while fn() runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import cells
    from robust_oco.harness.runner import run_experiment

    for workload in cells.WORKLOADS:
        first = {}
        for cell in cells.reference_cells(workload):
            first.setdefault(cell.player, cell)
        for player, cell in first.items():
            calls = calls_of(lambda: run_experiment(cell.config, seed=cell.seed))
            print(f"{workload} {player} {calls / cell.rounds:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
