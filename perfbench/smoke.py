"""Smoke test of the benchmark itself, at tiny sizes (one pass per workload).

    python3 perfbench/smoke.py

Checks that:
- every workload, untraced and traced, exits 0 with correct outputs and no
  failed cell, and prints every metric of BENCHMARK.json with its unit;
- two traced runs of the same seed count solver work identically;
- a perturbed reference regret makes the output check fail;
- in a directory holding only BENCHMARK.json and the benchmark, the command
  exits nonzero without printing a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SEED = 3
TINY_SECONDS = "0.5"  # rounds to one pass of every workload


def run(workload: str, trace: int, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", TINY_SECONDS, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def record(workload: str, trace: int) -> dict:
    return json.loads((OUT / f"result_{workload}_seed{SEED}_trace{trace}.json").read_text())


def scratch_tree(name: str, with_src: bool) -> Path:
    """A checkout under perfbench/out holding BENCHMARK.json, the benchmark's
    files and, if asked, the package source."""
    root = OUT / name
    shutil.rmtree(root, ignore_errors=True)
    (root / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    for f in BENCH.iterdir():
        if f.is_file():
            shutil.copy(f, root / "perfbench")
    if with_src:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok: bool, text: str):
        print(f"[{'ok' if ok else 'FAIL'}] {text}")
        if not ok:
            problems.append(text)

    counts = {}
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc, result = run(w, trace)
            label = f"{w} trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
            if result is None:
                expect(False, f"{label}: no result line\n{proc.stderr[-2000:]}")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['failed']}/{result['attempted']} failed")
            metrics = result["metrics"]
            expect(set(metrics) == set(declared[trace]), f"{label}: every declared metric")
            printed = {
                parts[0]: parts[2]
                for parts in (line.split() for line in proc.stdout.splitlines()
                              if line.startswith("  ") and not line.startswith("  note"))
                if len(parts) == 3
            }
            for name, unit in declared[trace].items():
                m = metrics.get(name, {})
                value = m.get("value")
                ok = (m.get("unit") == unit == printed.get(name)
                      and isinstance(value, (int, float)) and math.isfinite(value)
                      and (trace or value > 0))
                if not ok:
                    expect(False, f"{label}: metric {name} = {m} not printed as {unit}")
            if trace:
                counts[w] = record(w, 1)["notes"]["count_pass"]

    proc, _ = run("long_horizon", 1)
    again = record("long_horizon", 1)["notes"]["count_pass"]
    expect(proc.returncode == 0 and again == counts.get("long_horizon"),
           f"two count passes agree: {again}")

    perturbed = scratch_tree("perturbed", with_src=True)
    reference = json.loads((BENCH / "reference.json").read_text())
    key = f"known_g/{SEED}"
    reference["mc_floor"][key][0] *= 1.0 + 1e-4
    (perturbed / "perfbench" / "reference.json").write_text(json.dumps(reference))
    proc, result = run("mc_floor", 0, root=perturbed)
    expect(proc.returncode != 0 and result is not None and not result["correct"]
           and f"CHECK FAILED {key}: regret" in proc.stdout,
           "a perturbed reference regret fails the output check")
    shutil.rmtree(perturbed)

    bare = scratch_tree("bare", with_src=False)
    proc, result = run("mc_floor", 0, root=bare)
    expect(proc.returncode != 0 and result is None,
           f"without the package: exit code {proc.returncode}, no result")
    shutil.rmtree(bare)

    print("smoke test " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
