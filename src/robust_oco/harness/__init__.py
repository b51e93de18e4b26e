"""Experiment harness: configs, the runner, verification checks, and the CLI."""

from .checks import CHECKS, CheckReport, run_check
from .config import ExperimentConfig, SweepConfig, from_ini, to_ini
from .runner import ExperimentTrace, run_experiment, run_sweep

__all__ = [
    "CHECKS",
    "CheckReport",
    "ExperimentConfig",
    "ExperimentTrace",
    "SweepConfig",
    "from_ini",
    "run_check",
    "run_experiment",
    "run_sweep",
    "to_ini",
]
