"""Benchmark of the robust-oco package: one workload per process, on one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_floor --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run prints every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` it prints every per-layer metric from a traced run. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when every
output check passed. The package is imported from the checkout's ``src``;
without it the run fails before printing a result.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy is imported, here and in set-up probes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
HOST_PROBE_EVERY_S = 0.1  # one host probe per this much cell time
HOST_PROBE_REF_S = 2.0e-3  # host probe time on the 2-CPU x86-64 machine at its fastest
TAIL_GROUP = 100
TRACE_SHARE = 0.25  # share of the untraced work that a traced run repeats


def import_package():
    """Put the checkout's package first on the path, or stop without a result."""
    package = SRC / "robust_oco"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: package source not found at {package}")
    sys.path.insert(0, str(SRC))
    import robust_oco

    if Path(robust_oco.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported robust_oco from {robust_oco.__file__}, "
                 f"not from {package}")


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def git_sha() -> str:
    # the ceiling keeps git from searching above the checkout for a repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


class CellLog:
    """Latency and outcome of every cell a section ran, by pass."""

    def __init__(self):
        self.rows = []  # (pass, cell, latency_s, outcome or None, error or None)

    def add(self, index, cell, latency, outcome, error):
        self.rows.append((index, cell, latency, outcome, error))

    @property
    def wall_s(self) -> float:
        return sum(r[2] for r in self.rows)

    @property
    def rounds(self) -> int:
        return sum(r[1].rounds for r in self.rows if r[3] is not None)

    def by_player(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for _, cell, latency, _, _ in self.rows:
            out.setdefault(cell.player, []).append(latency)
        return out

    def rounds_per_s(self, player: str | None = None) -> float:
        """Completed rounds over the summed latency of the player's cells."""
        rounds = seconds = 0.0
        for _, cell, latency, outcome, _ in self.rows:
            if player is None or cell.player == player:
                rounds += cell.rounds if outcome is not None else 0
                seconds += latency
        return rounds / seconds if seconds else 0.0

    def p50_by_player(self) -> float:
        """Median over players of each player's median cell latency.

        A workload that mixes players of very different cost has no typical
        cell; the plain median would sit on the gap between two players.
        """
        return statistics.median(statistics.median(v) for v in self.by_player().values())


def run_cell(runner, cell, outcome_of):
    """One guarded run_experiment call: (latency, outcome, error type name)."""
    trace_dir = (tempfile.TemporaryDirectory(dir=OUT) if cell.writes_trace
                 else nullcontext(None))
    with trace_dir as out_dir:
        started = time.perf_counter()
        try:
            trace = runner.run_experiment(cell.config, seed=cell.seed, out_dir=out_dir)
        # SolverError, NonFiniteError and the KT wealth error are RuntimeErrors
        except (RuntimeError, ValueError) as exc:
            return time.perf_counter() - started, None, type(exc).__name__
        latency = time.perf_counter() - started
    return latency, outcome_of(trace), None


def tail(latencies: list[float]) -> tuple[float, str]:
    """Cell latency with 10 cells beyond it, per group of cells; median over groups.

    Groups are TAIL_GROUP consecutive cells, or all the cells when there are
    fewer than two groups' worth. Pooled over thousands of cells, the
    latency with 10 beyond it is set by a handful of host stalls and
    varies by half from run to run; per group it is the p90.
    """
    n = len(latencies)
    size = TAIL_GROUP if n >= 2 * TAIL_GROUP else n
    if size < 11:
        return max(latencies), f"max of {n} cells (fewer than 11)"
    groups = [sorted(latencies[i:i + size]) for i in range(0, n - size + 1, size)]
    value = statistics.median(g[size - 11] for g in groups)
    return value, (f"p{100.0 * (size - 10) / size:.1f} of {size} cells, 10 beyond it; "
                   f"median over {len(groups)} groups")


def tail_by_player(log: CellLog) -> tuple[float, dict[str, str]]:
    """Median over players of each player's tail, as cell_ms_p50 takes medians.

    Pooling players of very different cost would give a quantile of the
    player mix, not a latency tail.
    """
    tails = {p: tail(v) for p, v in log.by_player().items()}
    value = statistics.median(t[0] for t in tails.values())
    return value, {p: f"{1e3 * t[0]:.4g} ms, {t[1]}" for p, t in tails.items()}


def check_log(log: CellLog, table: dict, cells_mod, workload: str) -> list[str]:
    failures = []
    for _, cell, _, outcome, error in log.rows:
        if error is not None:
            failures.append(f"{cell.ref_key}: raised {error}")
        else:
            failures += cells_mod.check_cell(cell, outcome, table)
    if workload == "mc_floor":
        problem = cells_mod.check_mc_floor(
            [r[3].regret for r in log.rows if r[3] is not None])
        if problem:
            failures.append(problem)
    return failures


def setup_probe_s(args) -> float:
    """Wall time of a fresh process that sets up this run and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    started = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - started


def host_probe_s() -> float:
    """Time of a fixed mix of interpreted float arithmetic and small numpy
    operations: the kind of work the package does, without the package."""
    import numpy as np

    started = time.perf_counter()
    x = np.linspace(0.0, 1.0, 16)
    acc = 0.0
    for i in range(450):
        acc = 0.5 * acc + math.sqrt(i + 1.0)
        x = np.minimum(x * 1.0001 + 1e-4, 2.0)
        acc += float(x @ x)
    return time.perf_counter() - started


def timed_run(args, passes, table, cells_mod, runner):
    # A shared machine runs 20-60% slower for seconds to minutes at a time.
    # Host probes after every HOST_PROBE_EVERY_S of cell time measure that
    # speed, and every timing is reported at the reference machine's speed:
    # divided by the run's mean probe over HOST_PROBE_REF_S. Spread evenly
    # over cell time, the mean follows the host's average speed during the
    # cells; the median jumps between its fast and slow states. The probes
    # do not touch the package, so its own cost shows in full. Set-up
    # probes are spread over the run for the same reason.
    probe_before = {round(i * len(passes) / SETUP_PROBES) for i in range(SETUP_PROBES)}
    setup = []
    run_cell(runner, passes[0][0], cells_mod.outcome_of)  # warm-up, not counted
    host_probe_s()
    host_probes = []
    unprobed = 0.0
    log = CellLog()
    for index, cells in enumerate(passes):
        if index in probe_before:
            setup.append(setup_probe_s(args))
        for cell in cells:
            row = run_cell(runner, cell, cells_mod.outcome_of)
            log.add(index, cell, *row)
            unprobed += row[0]
            while unprobed >= HOST_PROBE_EVERY_S:
                host_probes.append(host_probe_s())
                unprobed -= HOST_PROBE_EVERY_S
    while len(setup) < SETUP_PROBES:  # runs of fewer passes than probes
        setup.append(setup_probe_s(args))
    if not host_probes:
        host_probes.append(host_probe_s())
    failures = check_log(log, table, cells_mod, args.workload)
    tail_s, tail_labels = tail_by_player(log)
    measured = {
        "setup_s": statistics.median(setup),
        "wall_s": log.wall_s,
        "rounds_per_s": log.rounds_per_s(),
        "rounds_per_s.known_g": log.rounds_per_s("known_g"),
        "cell_ms_p50": 1e3 * log.p50_by_player(),
        "cell_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    host = statistics.mean(host_probes) / HOST_PROBE_REF_S  # > 1 on a slower host
    per_host = {"rounds_per_s": 1, "rounds_per_s.known_g": 1, "peak_rss_mb": 0}
    metrics = {k: v * host ** per_host.get(k, -1) for k, v in measured.items()}
    players = sorted({r[1].player for r in log.rows})
    notes = {
        "host_factor": host,
        "host_probes": len(host_probes),
        "host_probe_ms_median": 1e3 * statistics.median(host_probes),
        "measured": measured,
        "setup_probes_s": setup,
        "cell_ms_tail_by_player": tail_labels,
        "rounds_per_s_by_player": {p: log.rounds_per_s(p) for p in players},
    }
    return log, failures, metrics, notes


def traced_run(args, passes, table, cells_mod, runner, layers):
    trace_passes = passes[:max(1, round(len(passes) * TRACE_SHARE))]
    run_cell(runner, trace_passes[0][0], cells_mod.outcome_of)  # warm-up
    recorder = layers.SpanRecorder()
    plain, traced = CellLog(), CellLog()
    for index, cells in enumerate(trace_passes):
        for cell in cells:
            plain.add(index, cell, *run_cell(runner, cell, cells_mod.outcome_of))
        with recorder.installed():
            for cell in cells:
                recorder.current_cell = len(traced.rows)
                traced.add(index, cell, *run_cell(runner, cell, cells_mod.outcome_of))
    failures = check_log(traced, table, cells_mod, args.workload)
    for (_, cell, _, a, _), (_, _, _, b, _) in zip(plain.rows, traced.rows):
        if a != b:
            failures.append(f"{cell.ref_key}: traced outcome {b} != untraced {a}")

    count_cells = [c for c in trace_passes[0] if c.player != "kt_bettor"]
    counts = layers.count_solver_work(
        lambda: [run_cell(runner, c, lambda trace: None) for c in count_cells])
    metrics = layers.layer_metrics(recorder.totals(), traced.rounds,
                                   recorder.protocols, counts)
    metrics["trace_overhead"] = traced.wall_s / plain.wall_s
    for player in ("kt_bettor", "unknown_g_case1", "unknown_g_case2"):
        metrics[f"rounds_per_s.{player}"] = plain.rounds_per_s(player)
    spans = OUT / f"spans_{args.workload}.npz"
    recorder.save(spans)
    notes = {"spans_file": str(spans.relative_to(ROOT)),
             "spans": len(recorder.start), "count_pass": counts,
             "count_pass_cells": len(count_cells),
             "untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}
    return plain, failures, metrics, notes


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="sets the run's work: passes = seconds / nominal pass time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up; used to time set-up in fresh processes")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    declared = declared_metrics()
    args = parse_args(argv, declared["workloads"])
    import_package()
    import cells as cells_mod
    from robust_oco.harness import runner

    passes = cells_mod.WORKLOADS[args.workload].plan(args.seed, args.seconds)
    reference = cells_mod.load_reference()
    table = reference[args.workload]
    if args.setup_only:
        return 0

    OUT.mkdir(exist_ok=True)
    if args.trace:
        import layers

        log, failures, metrics, notes = traced_run(
            args, passes, table, cells_mod, runner, layers)
        units = declared["per_layer"]
    else:
        log, failures, metrics, notes = timed_run(args, passes, table, cells_mod, runner)
        units = declared["end_to_end"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")

    env = environment()
    attempted = len(log.rows)
    failed = sum(1 for r in log.rows if r[4] is not None)
    errors: dict[str, int] = {}
    for r in log.rows:
        if r[4] is not None:
            errors[r[4]] = errors.get(r[4], 0) + 1
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    ran_passes = len({r[0] for r in log.rows})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "passes": ran_passes,
              "failed_share": failed / attempted, "errors": errors,
              "failures": failures, "notes": notes, "result": result}
    record["latencies_ms"] = {p: [1e3 * x for x in v] for p, v in log.by_player().items()}
    record_path = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} cells in {ran_passes} passes")
    print(f"environment: {json.dumps(env)}")
    for name, unit in units.items():
        print(f"  {name:<50} {metrics[name]:.6g} {unit}")
    for key, value in notes.items():
        print(f"  note {key}: {value}")
    print(f"failed_share {failed}/{attempted} {errors or ''}")
    for line in failures[:20]:
        print(f"CHECK FAILED {line}")
    if len(failures) > 20:
        print(f"CHECK FAILED ... and {len(failures) - 20} more")
    print(f"record written to {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
