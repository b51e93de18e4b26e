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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..adversaries import KTBettor, make_adversary
from ..core import CorruptionLedger, NonFiniteError, RegretLedger, norm
from ..protocol import ProtocolConfig, RobustProtocol
from .config import COMPARATOR_FROM_ADVERSARY, ExperimentConfig


def trace_columns(dim: int) -> list[str]:
    if dim <= 3:
        point_cols = [f"w{i + 1}" for i in range(dim)]
    else:
        point_cols = ["w_norm"]
    return (
        ["t"]
        + point_cols
        + [
            "g_norm",
            "g_tilde_norm",
            "g_clipped_norm",
            "h",
            "z",
            "alpha",
            "beta",
            "corrupted",
            "true_regret",
            "observed_regret",
        ]
    )


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


@dataclass
class ExperimentTrace:
    columns: list[str]
    rows: list[list]
    summary: dict

    def write(self, trace_path: Path, summary_path: Path) -> None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_fmt(x) for x in row])
        with open(summary_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.summary.keys()))
            writer.writerow([_fmt(v) if not isinstance(v, str) else v
                             for v in self.summary.values()])


def resolve_comparator(config: ExperimentConfig, adversary) -> np.ndarray:
    if config.comparator == COMPARATOR_FROM_ADVERSARY:
        if adversary.comparator is None:
            raise ValueError(
                f"adversary kind {config.adversary.kind!r} constructs no comparator; "
                "set one explicitly"
            )
        return np.asarray(adversary.comparator, dtype=np.float64)
    return np.asarray(config.comparator, dtype=np.float64)


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

    protocol: RobustProtocol | None = None
    if config.algorithm == "kt_bettor":
        if dim != 1:
            raise ValueError("the KT baseline is one-dimensional")
        learner = KTBettor(epsilon=config.protocol.epsilon)
        regret = RegretLedger(comparator=comparator)
    else:
        proto_cfg = replace(
            config.protocol, mode=config.algorithm, T=T, dim=dim
        )
        protocol = RobustProtocol(proto_cfg, comparator=comparator)
        regret = protocol.regret

    columns = trace_columns(dim)
    rows: list[list] = []
    started = time.perf_counter()
    try:
        for t in range(1, T + 1):
            w = learner.predict() if protocol is None else protocol.predict()
            g_true, g_tilde = adversary.round(t, w)
            loss_gap = adversary.loss_gap(w, comparator)
            corrupted = budget.update(g_true, g_tilde)
            if protocol is None:
                regret.update(w, g_true, g_tilde, loss_gap)
                learner.observe(g_tilde, 1.0)
                rec_h, rec_z, rec_alpha, rec_beta = 0.0, 0.0, 0.0, 0.0
                clipped_norm = norm(g_tilde)
            else:
                rec = protocol.round(g_tilde, g_true=g_true, loss_gap=loss_gap)
                rec_h, rec_z = rec.h, rec.z
                rec_alpha, rec_beta = rec.alpha_t, rec.beta_t
                clipped_norm = rec.g_clipped_norm
            point = list(w) if dim <= 3 else [norm(w)]
            rows.append(
                [t] + point + [
                    norm(g_true), norm(g_tilde), clipped_norm,
                    rec_h, rec_z, rec_alpha, rec_beta,
                    int(corrupted),
                    regret.true_regret_linear, regret.observed_regret_linear,
                ]
            )
    except NonFiniteError as exc:
        raise NonFiniteError(f"run aborted at round {len(rows) + 1}: {exc}") from exc
    wall = time.perf_counter() - started

    summary = {
        "algorithm": config.algorithm,
        "adversary": config.adversary.kind,
        "T": T,
        "k": config.adversary.k,
        "dim": dim,
        "seed": seed,
        "final_true_regret": regret.true_regret_linear,
        "final_observed_regret": regret.observed_regret_linear,
        "loss_regret": regret.loss_regret if regret.has_loss_oracle else 0.0,
        "error_term": protocol.decomposition.error_term if protocol else 0.0,
        "correction_term": protocol.decomposition.correction_term if protocol else 0.0,
        "bias_term": protocol.decomposition.bias_term if protocol else 0.0,
        "composite_term": protocol.decomposition.composite_term if protocol else 0.0,
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


@dataclass
class SweepConfig:
    """Corruption-scaling grid: k values with horizon T = k^2 per cell."""

    ks: tuple[int, ...] = (20, 30, 40, 50, 60, 70)
    algorithms: tuple[str, ...] = ("kt_bettor", "known_g")
    seeds: tuple[int, ...] = (0,)
    epsilon: float = 1.0
    G: float = 1.0
    tau_G: float = 1.0
    window_frac: float = 0.75
    output_path: str = "out"
    workers: int = 1


SWEEP_COLUMNS = [
    "algorithm", "k", "T", "seed",
    "regret_corrupted", "regret_uncorrupted", "ratio",
]


def _sweep_cell_config(sweep: SweepConfig, algorithm: str, k: int,
                       corrupted: bool) -> ExperimentConfig:
    from ..adversaries import AdversarySpec  # local to keep pickling light

    T = k * k
    window_start = int(sweep.window_frac * T)
    adversary = AdversarySpec(
        kind="sign_flip_window", T=T, k=k if corrupted else 0,
        window_start=window_start, dim=1,
    )
    protocol = ProtocolConfig(
        mode=algorithm if algorithm != "kt_bettor" else "known_g",
        T=T, epsilon=sweep.epsilon, k=k,
        G=sweep.G if algorithm in ("kt_bettor", "known_g") else None,
        tau_G=sweep.tau_G,
    )
    return ExperimentConfig(
        algorithm=algorithm, adversary=adversary, protocol=protocol,
        comparator=(1.0,), seeds=(0,), output_path=sweep.output_path,
    )


def _run_sweep_cell(args) -> dict:
    sweep, algorithm, k, seed = args
    corrupted = run_experiment(
        _sweep_cell_config(sweep, algorithm, k, corrupted=True), seed=seed
    )
    clean = run_experiment(
        _sweep_cell_config(sweep, algorithm, k, corrupted=False), seed=seed
    )
    r_cor = corrupted.summary["final_true_regret"]
    r_clean = clean.summary["final_true_regret"]
    return {
        "algorithm": algorithm,
        "k": k,
        "T": k * k,
        "seed": seed,
        "regret_corrupted": r_cor,
        "regret_uncorrupted": r_clean,
        "ratio": r_cor / r_clean if r_clean != 0.0 else math.inf,
    }


def run_sweep(sweep: SweepConfig, out_path: str | Path | None = None) -> list[dict]:
    """Run the grid; rows are merged in deterministic grid order regardless of workers."""
    cells = [
        (sweep, algorithm, k, seed)
        for algorithm in sweep.algorithms
        for k in sweep.ks
        for seed in sweep.seeds
    ]
    if sweep.workers > 1:
        with ProcessPoolExecutor(max_workers=sweep.workers) as pool:
            rows = list(pool.map(_run_sweep_cell, cells))
    else:
        rows = [_run_sweep_cell(cell) for cell in cells]
    if out_path is not None:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_COLUMNS)
            for row in rows:
                writer.writerow(
                    [row[c] if isinstance(row[c], str) else _fmt(row[c])
                     for c in SWEEP_COLUMNS]
                )
    return rows
