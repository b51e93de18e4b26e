"""Record the reference table that the benchmark checks cell outputs against.

    python3 perfbench/record_reference.py

For every cell a workload can run (every mc_floor and dro_highdim cell seed,
every long_horizon player) it stores the final true regret and the iterate
path (sum of |w| or ||w|| over rounds). Record it only at a commit whose
numerics are trusted; the table is what later commits are checked against.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_package()
    import cells
    from robust_oco.harness import runner

    table = {"recorded_at": run.git_sha()}
    for workload in cells.WORKLOADS:
        entries = {}
        for cell in cells.reference_cells(workload):
            out = cells.outcome_of(runner.run_experiment(cell.config, seed=cell.seed))
            entries[cell.ref_key] = [out.regret, out.iterate_path]
        table[workload] = entries
        print(f"{workload}: {len(entries)} cells")
    # one cell per line, so a re-recorded table diffs cell by cell
    lines = [f'"recorded_at": {json.dumps(table.pop("recorded_at"))}']
    for workload, entries in table.items():
        body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
        lines.append(f"{json.dumps(workload)}: {{\n{body}\n}}")
    cells.REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
