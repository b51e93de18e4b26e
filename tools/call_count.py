"""Python and C calls per round, and the allocation peak, of one reference cell per player.

    python3 tools/call_count.py [--root CHECKOUT] [--functions N]

Runs the first reference cell of each player of every workload in
``perfbench/cells.py`` through ``run_experiment``, under ``sys.setprofile``,
and prints one line per cell: the workload, the player, the calls per
round, counting every Python call and every call into C over the whole run
(the cell's set-up included) divided by its rounds, and the cell's
allocation peak in MB (10**6 bytes): tracemalloc's peak over a second run
of the cell, set-up included, taken in a pass of its own so the tracer adds
no calls to the count. One uncounted warm-up cell runs first, so the
process's one-time imports (the first run's ``numpy.random``) land on no
line. Both figures are exact and repeatable for a given Python and numpy,
unlike a timing: the count shows a change that adds or removes work on the
round path, the peak one that adds or removes a large temporary. The peak
counts numpy's buffers and Python's objects, not the process's resident
set, so it does not move with where the checkout sits. Run it in both
checkouts, or point ``--root`` at the other one, to compare. It imports the package from
``CHECKOUT/src`` and the cells from ``CHECKOUT/perfbench``, and writes no
trace.

With ``--functions N`` each cell's line is followed by the N functions with
the most calls per round, one indented ``file:function calls/round`` line
each: the listing that shows where a new hotspot is. A Python function is
named by its file and code name (a namedtuple's generated ``__new__`` reads
``<string>:<lambda>``), a C function as ``<built-in>:`` and its qualified
name.
"""

from __future__ import annotations

import os

# one BLAS thread, as in the benchmark
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def calls_of(fn) -> Counter:
    """The Python and C calls made while fn() runs, by code object or C function name.

    A C function is keyed by its (module, qualified name), not by itself: a
    bound method would keep its object alive.
    """
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1
        elif event == "c_call":
            calls[getattr(arg, "__module__", None), arg.__qualname__] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def peak_of(fn) -> int:
    """tracemalloc's peak, in bytes, of the memory allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def label(called) -> str:
    """``file:function`` for a code object, ``<built-in>:name`` for a C function's key."""
    if hasattr(called, "co_filename"):
        return f"{Path(called.co_filename).name}:{called.co_name}"
    module, name = called
    if module and module != "builtins":
        name = f"{module}.{name}"
    return f"<built-in>:{name}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to run (default: this one)")
    parser.add_argument("--functions", type=int, default=0, metavar="N",
                        help="also list each cell's N most-called functions")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import cells
    from robust_oco.harness.runner import run_experiment

    warm_up = cells.reference_cells(next(iter(cells.WORKLOADS)))[0]
    run_experiment(warm_up.config, seed=warm_up.seed)
    for workload in cells.WORKLOADS:
        first = {}
        for cell in cells.reference_cells(workload):
            first.setdefault(cell.player, cell)
        for player, cell in first.items():
            calls = calls_of(lambda: run_experiment(cell.config, seed=cell.seed))
            peak = peak_of(lambda: run_experiment(cell.config, seed=cell.seed))
            print(f"{workload} {player} {calls.total() / cell.rounds:.2f} {peak / 1e6:.3f}",
                  flush=True)
            # the same function reached twice (two code objects of one name) is summed
            by_label = Counter()
            for called, n in calls.items():
                by_label[label(called)] += n
            top = sorted(by_label.items(), key=lambda item: (-item[1], item[0]))
            for name, n in top[:args.functions]:
                print(f"  {name} {n / cell.rounds:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
