"""Experiment execution: single runs, corruption-scaling sweeps, CSV emission.

Every run is deterministic given its config and seed; numbers are written
with 17 significant digits so traces round-trip through text exactly. The
trace CSV carries no timing, making repeated runs byte-identical; wall time
lives in the summary only.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..adversaries import AdversarySpec, KTBettor, make_adversary
from ..core import CorruptionLedger, NonFiniteError, RegretLedger, kernels
from ..mirror_descent import SolverError
from ..protocol import ProtocolConfig, RobustProtocol, RoundRecord
from .config import COMPARATOR_FROM_ADVERSARY, ExperimentConfig, SweepConfig, protocol_mode


def trace_columns(dim: int) -> list[str]:
    point = [f"w{i + 1}" for i in range(dim)] if dim <= 3 else ["w_norm"]
    return [
        "t", *point, *RoundRecord._fields[1:],
        "corrupted", "true_regret", "observed_regret",
    ]


_INT_COLUMNS = ("t", "corrupted")


def _fmt(x) -> str:
    if type(x) is float:  # nearly every trace value
        return format(x, ".17g")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: Path, columns, rows) -> None:
    """A header, then the rows: strings as they are, every other value through _fmt."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([v if isinstance(v, str) else _fmt(v) for v in row] for row in rows)


@dataclass
class ExperimentTrace:
    columns: list[str]
    rows: list[list]
    summary: dict

    def write(self, trace_path: Path, summary_path: Path) -> None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        # one % per row where every value has its column's usual type (int
        # for t and corrupted, float elsewhere), with the bytes _fmt gives
        # such a value; any other row is formatted value by value with _fmt
        is_int = [c in _INT_COLUMNS for c in self.columns]
        usual = tuple(int if i else float for i in is_int)
        line = ",".join("%d" if i else "%.17g" for i in is_int) + "\r\n"
        with open(trace_path, "w", newline="") as fh:
            csv.writer(fh).writerow(self.columns)
            fh.writelines(
                line % tuple(row) if tuple(map(type, row)) == usual
                else ",".join(map(_fmt, row)) + "\r\n"
                for row in self.rows
            )
        _write_csv(summary_path, self.summary.keys(), [self.summary.values()])


def resolve_comparator(config: ExperimentConfig, adversary) -> np.ndarray:
    if config.comparator == COMPARATOR_FROM_ADVERSARY:
        if adversary.comparator is None:
            raise ValueError(
                f"adversary kind {config.adversary.kind!r} constructs no comparator; "
                "set one explicitly"
            )
        return np.asarray(adversary.comparator, dtype=np.float64)
    return np.asarray(config.comparator, dtype=np.float64)


def make_player(config: ExperimentConfig, comparator: np.ndarray):
    """The configured algorithm, as a player with w, round() and decomposition."""
    if config.algorithm == "kt_bettor":
        return KTBettor(config.protocol.epsilon)
    return RobustProtocol(config.protocol, comparator=comparator)


def run_experiment(
    config: ExperimentConfig,
    seed: int | None = None,
    out_dir: str | Path | None = None,
) -> ExperimentTrace:
    """Run one (config, seed) cell; optionally write trace and summary CSVs."""
    seed = config.seeds[0] if seed is None else seed
    adversary = make_adversary(config.adversary, seed=seed)
    comparator = resolve_comparator(config, adversary)
    dim = config.adversary.dim
    T = config.adversary.T
    budget = CorruptionLedger(lipschitz_G=adversary.lipschitz_bound)
    player = make_player(config, comparator)
    u = kernels(dim).coerce(comparator, dim)[0]  # the comparator in the player's form
    regret = RegretLedger(comparator=u)  # the score, kept here for every player

    columns = trace_columns(dim)
    rows: list[list] = []
    loss_regret = 0.0  # the adversary's loss oracle, summed here
    started = time.perf_counter()
    try:
        for t in range(1, T + 1):
            w = player.w
            g_true, g_tilde = adversary.round(t, w)
            corrupted = budget.update(g_true, g_tilde)
            rec = player.round(g_tilde, g_true=g_true)
            regret.update(w - u, g_true, g_tilde)
            loss_regret += adversary.loss_gap(w, u)
            point = [w] if dim == 1 else w.tolist() if dim <= 3 else [rec.w_norm]
            rows.append([
                t, *point, *rec[1:], int(corrupted),
                regret.true_regret_linear, regret.observed_regret_linear,
            ])
    except (NonFiniteError, SolverError, ValueError) as exc:
        # same type, so callers and the benchmark still classify the failure;
        # aborted_at_round tells a run abort from a config error
        aborted = type(exc)(f"run aborted at round {len(rows) + 1}: {exc}")
        aborted.aborted_at_round = len(rows) + 1
        raise aborted from exc
    wall = time.perf_counter() - started

    d = player.decomposition  # None for KT, whose four terms read 0.0
    summary = {
        "algorithm": config.algorithm,
        "adversary": config.adversary.kind,
        "T": T,
        "k": config.adversary.k,
        "dim": dim,
        "seed": seed,
        "final_true_regret": regret.true_regret_linear,
        "final_observed_regret": regret.observed_regret_linear,
        "loss_regret": loss_regret,
        **{name: 0.0 if d is None else getattr(d, name) for name in (
            "error_term", "correction_term", "bias_term", "composite_term")},
        "count_corrupted": budget.count_corrupted,
        "big_rounds": budget.big_rounds,
        "deviation_sum": budget.deviation_sum,
        "wall_time_s": wall,
    }
    trace = ExperimentTrace(columns=columns, rows=rows, summary=summary)
    if out_dir is not None:
        base = Path(out_dir)
        stem = f"{config.algorithm}_{config.adversary.kind}_seed{seed}"
        trace.write(base / f"trace_{stem}.csv", base / f"summary_{stem}.csv")
    return trace


SWEEP_COLUMNS = [
    "algorithm", "k", "T",
    "regret_corrupted", "regret_uncorrupted", "ratio",
]


def _sweep_cell_configs(sweep: SweepConfig, algorithm: str, k: int) -> list[ExperimentConfig]:
    """The cell's corrupted and clean configs, checked as built and by building the cell's player.

    No stream is built. A k or window_frac that any rejects raises ValueError naming both keys.
    """
    T = k * k
    mode = protocol_mode(algorithm)
    try:
        protocol = ProtocolConfig(
            mode=mode, T=T, epsilon=sweep.epsilon, k=k,
            G=sweep.G if mode == "known_g" else None, tau_G=sweep.tau_G,
        )
        configs = [
            ExperimentConfig(
                algorithm=algorithm, protocol=protocol, comparator=(1.0,),
                output_path=sweep.output_path, adversary=AdversarySpec(
                    kind="sign_flip_window", T=T, k=budget,
                    window_start=int(sweep.window_frac * T),
                ),
            )
            for budget in (k, 0)
        ]
        make_player(configs[0], configs[0].comparator)
    except (ValueError, OverflowError) as exc:  # int() of an infinite window_frac * T
        raise ValueError(f"[sweep] ks = {k} with window_frac = {sweep.window_frac}: {exc}")
    return configs


def run_sweep(sweep: SweepConfig, out_path: str | Path | None = None) -> list[dict]:
    """Run the grid; rows come in grid order (algorithm, then k).

    Every cell is checked before the first one runs, so a bad [sweep] ks or
    window_frac discards no finished cell.
    """
    grid = [
        (algorithm, k, _sweep_cell_configs(sweep, algorithm, k))
        for algorithm in sweep.algorithms
        for k in sweep.ks
    ]
    rows = []
    for algorithm, k, configs in grid:
        r_cor, r_clean = (run_experiment(c).summary["final_true_regret"] for c in configs)
        rows.append({
            "algorithm": algorithm,
            "k": k,
            "T": k * k,
            "regret_corrupted": r_cor,
            "regret_uncorrupted": r_clean,
            "ratio": r_cor / r_clean if r_clean != 0.0 else math.inf,
        })
    if out_path is not None:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(path, SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))
    return rows
