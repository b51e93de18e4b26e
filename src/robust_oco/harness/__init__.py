"""Experiment harness: configs, the runner, verification checks, and the CLI."""
