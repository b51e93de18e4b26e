"""Command-line entry point: run experiments, sweeps, and verification checks.

Exit codes: 0 on success, 1 when a verification check fails or a run aborts
after it has started ("run failed: ..."), 2 on usage and config errors
(argparse's native convention).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checks import CHECKS, run_check
from .config import from_ini, sweep_from_ini
from .runner import run_experiment, run_sweep


def _cmd_run(args) -> int:
    config = from_ini(Path(args.config).read_text())
    out_dir = args.out if args.out else config.output_path
    seeds = [args.seed] if args.seed is not None else list(config.seeds)
    for seed in seeds:
        trace = run_experiment(config, seed=seed, out_dir=out_dir)
        s = trace.summary
        print(
            f"{s['algorithm']} vs {s['adversary']} (T={s['T']}, k={s['k']}, "
            f"seed={s['seed']}): true regret {s['final_true_regret']:.6g}, "
            f"observed {s['final_observed_regret']:.6g}, "
            f"wall {s['wall_time_s']:.3f}s"
        )
    return 0


def _cmd_sweep(args) -> int:
    sweep = sweep_from_ini(Path(args.config).read_text())
    out = Path(args.out) if args.out else Path(sweep.output_path) / "sweep.csv"
    rows = run_sweep(sweep, out_path=out)
    for row in rows:
        print(
            f"{row['algorithm']} k={row['k']} T={row['T']} seed={row['seed']}: "
            f"corrupted {row['regret_corrupted']:.6g} / clean "
            f"{row['regret_uncorrupted']:.6g} = ratio {row['ratio']:.4g}"
        )
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_verify(args) -> int:
    try:
        report = run_check(args.check)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(f"check {report.name}:")
    for line in report.lines:
        print(f"  {line}")
    print(f"=> {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_list_checks(_args) -> int:
    for name in sorted(CHECKS):
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-oco",
        description="Corruption-robust unconstrained online learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True, help="path to an INI experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seeds")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a corruption-scaling grid")
    p_sweep.add_argument("--config", required=True, help="path to an INI sweep config")
    p_sweep.add_argument("--out", default=None, help="override the sweep CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--check", required=True, help="check name (see list-checks)")
    p_verify.set_defaults(func=_cmd_verify)

    p_list = sub.add_parser("list-checks", help="list verification suite names")
    p_list.set_defaults(func=_cmd_list_checks)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        if not hasattr(exc, "aborted_at_round"):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
