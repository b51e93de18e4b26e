"""Digest of every benchmark reference cell's, shipped config's and verify suite's output.

    python3 tools/cell_digest.py [--root CHECKOUT]

Runs every cell of the reference table in ``perfbench/cells.py`` (the three
workloads' 4,228 cells) through ``run_experiment``. For each workload it
prints the workload's name, its cell count and the sha256 of
``repr((rows, summary))`` over its cells, with the summary's ``wall_time_s``
left out; then the cell count and the same sha256 over all cells. The
line ``configs <runs> runs <sha256>`` digests every run of the checkout's
own ``configs/*.ini`` in file-name order: each seed of an experiment
config (its rows and summary, as for a cell) and each row of a sweep
config. The line ``verify <n> suites <sha256>`` digests each
verification suite's name, verdict and lines, in ``CHECKS`` order. A
change meant to leave the output bits alone must print the same lines as
its parent: run it in both checkouts, or point ``--root`` at the other
one. Where the total differs, the workload lines show which workload
moved. Each cell's outcome is also checked, by ``cells.check_cell``,
against the checkout's ``perfbench/reference.json``: if any cell fails,
up to 20 ``CHECK FAILED`` lines follow the digests and the exit status
is 1. It imports the package from ``CHECKOUT/src`` and the cells from
``CHECKOUT/perfbench``, reads ``CHECKOUT/configs``, and writes nothing.
The run takes about half a minute (21 s with Python 3.11 on a 2-CPU
x86-64 machine).
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
    from robust_oco.harness.checks import CHECKS
    from robust_oco.harness.config import from_ini, sweep_from_ini
    from robust_oco.harness.runner import run_experiment, run_sweep

    def record(trace) -> bytes:
        summary = {k: v for k, v in trace.summary.items() if k != "wall_time_s"}
        return repr((trace.rows, summary)).encode()

    reference = cells.load_reference()
    failures = []
    digest = hashlib.sha256()
    count = 0
    for workload in cells.WORKLOADS:
        workload_digest = hashlib.sha256()
        workload_count = 0
        for cell in cells.reference_cells(workload):
            trace = run_experiment(cell.config, seed=cell.seed)
            failures += cells.check_cell(cell, cells.outcome_of(trace), reference[workload])
            cell_record = record(trace)
            digest.update(cell_record)
            workload_digest.update(cell_record)
            workload_count += 1
        print(f"{workload} {workload_count} cells {workload_digest.hexdigest()}", flush=True)
        count += workload_count
    print(f"{count} cells {digest.hexdigest()}", flush=True)

    configs_digest = hashlib.sha256()
    runs = 0
    for path in sorted((root / "configs").glob("*.ini")):
        text = path.read_text()
        if "[sweep]" in text:
            records = [repr(row).encode() for row in run_sweep(sweep_from_ini(text))]
        else:
            config = from_ini(text)
            records = [record(run_experiment(config, seed=s)) for s in config.seeds]
        for run_record in records:
            configs_digest.update(run_record)
        runs += len(records)
    print(f"configs {runs} runs {configs_digest.hexdigest()}", flush=True)

    suites_digest = hashlib.sha256()
    for check in CHECKS.values():
        report = check()
        suites_digest.update(repr((report.name, report.passed, report.lines)).encode())
    print(f"verify {len(CHECKS)} suites {suites_digest.hexdigest()}")
    for line in failures[:20]:
        print(f"CHECK FAILED {line}")
    if len(failures) > 20:
        print(f"CHECK FAILED ... and {len(failures) - 20} more")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
