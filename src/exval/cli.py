"""Command-line entry points for running and inspecting experiments.

Subcommands:

* ``run --config FILE [--seeds N] [--workers W] [--out DIR]``
  execute an experiment config across seeds and write CSVs/checkpoints.
* ``aggregate --in DIR``
  recompute aggregate.csv and summary.csv from a results directory.
* ``eval --checkpoint FILE --episodes N [--seed S]``
  score a checkpointed agent at kappa = 0 on the environment saved with
  it (an ``epsilon_greedy`` agent still explores with its epsilon).

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (CheckpointError, ConfigError, aggregate_directory,
                    load_checkpoint, load_config, resolve_out_dir,
                    run_experiment)
from .core import eval_pure_exploit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exval-bench",
        description="Run and aggregate exploration-values experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seeds", type=int, default=None,
                       help="override the config's n_seeds")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--no-checkpoints", action="store_true",
                       help="skip writing per-run agent checkpoints")

    p_agg = sub.add_parser("aggregate",
                           help="recompute summaries from run CSVs")
    p_agg.add_argument("--in", dest="in_dir", required=True)

    p_eval = sub.add_parser("eval", help="score a checkpointed agent")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", type=int, required=True)
    p_eval.add_argument("--seed", type=int, default=0)
    return parser


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seeds is not None and args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    out = resolve_out_dir(config, args.out)
    results = run_experiment(config, out_dir=out, n_seeds=args.seeds,
                             workers=args.workers,
                             save_checkpoints=not args.no_checkpoints)
    n_goal = sum(1 for r in results if r.episodes_to_first_goal is not None)
    resolves = sum(r.agent_stats.get("resolves", 0) for r in results)
    capped = sum(r.agent_stats.get("resolves_capped", 0) for r in results)
    note = (f"; {capped} of {resolves} re-solves hit the iteration cap"
            if resolves else "")
    print(f"{config.experiment}: {len(results)} runs -> {out} "
          f"({n_goal} reached the goal{note})")
    return 0


def cmd_aggregate(args) -> int:
    summary = aggregate_directory(args.in_dir)
    for key, value in summary.items():
        print(f"{key}: {'--' if value is None else value}")
    return 0


def cmd_eval(args) -> int:
    if args.episodes < 1:
        raise ConfigError("--episodes must be >= 1")
    agent, env = load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    returns = eval_pure_exploit(env, agent, args.episodes, rng)
    print(f"episodes: {args.episodes}")
    print(f"mean_return: {float(np.mean(returns))!r}")
    print(f"std_return: {float(np.std(returns))!r}")
    print(f"min_return: {float(np.min(returns))!r}")
    print(f"max_return: {float(np.max(returns))!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "aggregate": cmd_aggregate,
                "eval": cmd_eval}
    try:
        return handlers[args.command](args)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
