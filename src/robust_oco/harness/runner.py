"""Experiment execution: single runs, corruption-scaling sweeps, CSV emission.

Every run is deterministic given its config and seed. Traces, summaries and
sweeps go through one CSV writer, which writes each number by its type: an
integer as an integer, any other number at 17 significant digits, so values
round-trip through text exactly. The trace CSV carries no timing, making
repeated runs byte-identical; wall time lives in the summary only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..adversaries import AdversarySpec, KTBettor, make_adversary
from ..core import CorruptionLedger, NonFiniteError, RegretLedger, kernels
from ..mirror_descent import SolverError
from ..protocol import ProtocolConfig, RobustProtocol, RoundRecord
from .config import COMPARATOR_FROM_ADVERSARY, ExperimentConfig, SweepConfig


def trace_columns(dim: int) -> list[str]:
    point = [f"w{i + 1}" for i in range(dim)] if dim <= 3 else ["w_norm"]
    return [
        "t", *point, *RoundRecord._fields[1:],
        "corrupted", "true_regret", "observed_regret",
    ]


def _write_csv(path: Path, columns, rows) -> None:
    """A header line, then each row through one % line for its value types: a str
    as is, any integer %d, anything else %.17g; rebuilt when the types change."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        types = None  # the previous row's, whose % line is kept
        for row in rows:
            if tuple(map(type, row)) != types:
                types = tuple(map(type, row))
                line = ",".join("%s" if t is str else "%d" if issubclass(t, (int, np.integer))
                                else "%.17g" for t in types) + "\r\n"
            fh.write(line % tuple(row))


@dataclass
class ExperimentTrace:
    columns: list[str]
    rows: list[list]
    summary: dict

    def write(self, trace_path: Path, summary_path: Path) -> None:
        _write_csv(trace_path, self.columns, self.rows)
        _write_csv(summary_path, self.summary.keys(), [self.summary.values()])


def make_player(config: ExperimentConfig, comparator: np.ndarray | float):
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
    dim = config.adversary.dim
    T = config.adversary.T
    from_stream = config.comparator == COMPARATOR_FROM_ADVERSARY  # ExperimentConfig checked both
    u = kernels(dim).coerce(adversary.comparator if from_stream else config.comparator, dim)[0]
    budget = CorruptionLedger(lipschitz_G=adversary.lipschitz_bound)
    player = make_player(config, u)
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
    """The cell's corrupted and clean configs, in SweepConfig's one design."""
    T = k * k
    protocol = ProtocolConfig(mode=algorithm, T=T, k=k,
                              G=1.0 if algorithm == "known_g" else None, tau_G=sweep.tau_G)
    return [
        ExperimentConfig(
            algorithm=algorithm, protocol=protocol, comparator=(1.0,),
            output_path=sweep.output_path, adversary=AdversarySpec(
                kind="sign_flip_window", T=T, k=budget, window_start=int(0.75 * T),
            ),
        )
        for budget in (k, 0)
    ]


def run_sweep(sweep: SweepConfig, out_path: str | Path | None = None) -> list[dict]:
    """Run the grid; rows come in grid order (algorithm, then k)."""
    rows = []
    for algorithm in sweep.algorithms:
        for k in sweep.ks:
            r_cor, r_clean = (run_experiment(c).summary["final_true_regret"]
                              for c in _sweep_cell_configs(sweep, algorithm, k))
            ratio = r_cor / r_clean if r_clean != 0.0 else math.inf
            rows.append(dict(zip(SWEEP_COLUMNS, (algorithm, k, k * k, r_cor, r_clean, ratio))))
    if out_path is not None:
        _write_csv(Path(out_path), SWEEP_COLUMNS, (row.values() for row in rows))
    return rows
