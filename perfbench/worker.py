"""Run one workload in this process: a checked round, then timed rounds.

Started by run.py with the BLAS thread count pinned and ``src`` on the
path. Prints one JSON object with the round times, operation counts,
check failures and, when traced, the per-layer figures.

Round 0 is a warm-up that also carries the correctness checks: it
records the feature rows passed to the posterior and every emitted
exploration reward, and keeps the agents for inspection. Timed rounds
carry only the hook on save_checkpoint (one call per seed run) that
reads the re-solve counts, and a SpeedProbe (speed.py) that rescales
them to the reference speed; traced rounds carry spans on every layer
as well. Every round must write the same CSV bytes as round 0.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from speed import REF_SLICE_S, SpeedProbe, rescale
from tracing import Tracer, install, layer_totals, uninstall
from workloads import WORKLOADS, workload_configs

import exval.bench as bench
from exval import bayes, core, emuq, envs, features, tabular

MIN_TIMED_ROUNDS = 3
N_PROBES = 8



def sweep_stats(agent) -> dict:
    """Episode-end re-solve counts of one finished EmuQ run."""
    history = getattr(agent, "sweep_history", [])
    return {
        "resolves": 2 * len(history),
        "unconverged": sum((not h["converged_q"]) + (not h["converged_u"])
                           for h in history),
        "iters": sum(h["iters_q"] + h["iters_u"] for h in history),
        "store_rows": history[-1]["n"] if history else 0,
    }


def run_round(configs, out_root: Path, keep_agents: bool = False,
              probe: SpeedProbe | None = None):
    """Run every config of the workload through run_experiment.

    Returns (wall seconds, per-run records). The agent of each run is
    caught where run_experiment hands it to save_checkpoint. A given
    probe runs its reference slices during the timed part.
    """
    runs = []

    def catch(original):
        def save_checkpoint(agent, path, config):
            original(agent, path, config)
            runs.append({"experiment": config.experiment,
                         "agent": agent if keep_agents else None,
                         **sweep_stats(agent)})
        return save_checkpoint

    undo = [install(bench, "save_checkpoint", catch)]
    try:
        with probe or contextlib.nullcontext():
            t0 = time.perf_counter()
            for config in configs:
                bench.run_experiment(config,
                                     out_dir=out_root / config.experiment)
            wall = time.perf_counter() - t0
    finally:
        uninstall(undo)
    return wall, runs


def csv_bytes(out_root: Path) -> dict:
    return {str(p.relative_to(out_root)): p.read_bytes()
            for p in sorted(out_root.rglob("*.csv"))}


def output_bytes(out_root: Path) -> int:
    """Bytes of what run_rows_to_csv, write_aggregates and
    save_checkpoint produce: run CSVs, aggregates and checkpoints."""
    return sum(p.stat().st_size for p in out_root.rglob("*")
               if p.suffix in (".csv", ".npz"))


def checked_round(configs, out_root: Path, seed: int):
    """Round 0: run with recording hooks, then check every output."""
    rows = defaultdict(list)
    rewards = defaultdict(list)

    def record_rows(original):
        def observe(self, phi, y):
            rows[self].append(np.array(phi, dtype=float))
            return original(self, phi, y)
        return observe

    def record_rewards(original):
        def exploration_reward(self, obs_next, rng):
            r_e = original(self, obs_next, rng)
            rewards[self].append(r_e)
            return r_e
        return exploration_reward

    undo = [install(bayes.BayesianLinearModel, "observe", record_rows),
            install(emuq.EmuQ, "exploration_reward", record_rewards)]
    try:
        _, runs = run_round(configs, out_root, keep_agents=True)
    finally:
        uninstall(undo)

    bad = []
    probe_rng = np.random.default_rng(seed)
    runs_by_kind = {}
    train_steps = 0
    for config in configs:
        out_dir = out_root / config.experiment
        spec = envs.make_env(config.env_name, **config.env_params).spec
        csv_runs = checks.read_runs(out_dir, config.n_seeds)
        runs_by_kind[config.agent_kind] = csv_runs
        bad += checks.check_run_rows(csv_runs, config, spec.max_episode_steps)
        bad += checks.check_aggregate_files(
            out_dir, csv_runs, config.schedule_variant == "target_stop")
        agents = [r["agent"] for r in runs
                  if r["experiment"] == config.experiment]
        if len(agents) != config.n_seeds:
            bad.append(f"{config.experiment}: {len(agents)} checkpoints "
                       f"saved for {config.n_seeds} seeds")
        params = config.agent_params
        for seed_index, agent in enumerate(agents):
            where = f"{config.experiment} seed {seed_index}"
            steps = sum(r[1] for r in csv_runs[seed_index])
            train_steps += steps
            kappa = csv_runs[seed_index][-1][3]
            if config.agent_kind == "emuq":
                alpha, beta = params["alpha"], params["beta"]
                bad += checks.check_posterior(agent.model.S,
                                              rows[agent.model], alpha,
                                              beta, where)
                bad += checks.check_exploration_rewards(rewards[agent], alpha,
                                                        beta, where)
                probes = probe_rng.uniform(0.0, 1.0,
                                           (N_PROBES, spec.state_dim))
                bad += checks.check_emuq_act(agent, probes, kappa, seed,
                                             where)
            else:
                bad += checks.check_tabular(agent, steps, params["gamma"],
                                            where)
                probes = probe_rng.integers(spec.n_states, size=N_PROBES)
                bad += checks.check_tabular_act(agent, probes, kappa, where)
        if config.agent_kind == "emuq":
            bad += checks.check_emuq_guarantees(csv_runs, config)
    if {"explvalues", "additive"} <= set(runs_by_kind):
        bad += checks.check_target_stop_contrast(runs_by_kind["explvalues"],
                                                 runs_by_kind["additive"])
    return runs, train_steps, bad


def is_time(key: str) -> bool:
    return key.endswith(("_s", ".s"))


def count_steps(args, kwargs, log, counts):
    kind = "train" if kwargs.get("learn", True) else "eval"
    counts[f"core.{kind}.env_steps"] += log.steps


def count_rows(args, kwargs, phi, counts):
    counts["features.embed_pairs.rows"] += phi.shape[0]


def count_copied(args, kwargs, result, counts):
    # centered_quadratic copies the M x M covariance once per call
    counts["bayes.centered_quadratic.bytes_copied"] += \
        args[0].n_features ** 2 * 8


def traced_round(configs, out_root: Path, probe: SpeedProbe):
    """One round with spans on every layer.

    Returns (wall, runs, layers, tracer); ``layers`` holds the round's
    per-layer counts and raw times. The probe's ticks land inside
    whichever span is open and add about 1% to its self time.
    """
    tracer = Tracer()
    wrap = tracer.wrap
    wrap(features.JointRffMap, "embed_pairs", "features.embed_pairs",
         count_rows)
    wrap(features.JointRffMap, "state_projection", "features.projection")
    wrap(features.JointRffMap, "action_projection", "features.projection")
    wrap(features, "sample_rff", "features.sample_rff")
    wrap(bayes.BayesianLinearModel, "observe", "bayes.observe")
    wrap(bayes.BayesianLinearModel, "centered_quadratic",
         "bayes.centered_quadratic", count_copied)
    for method in ("act", "exploration_reward", "observe", "end_episode"):
        wrap(emuq.EmuQ, method, f"emuq.{method}")
    wrap(bench, "run_episode", "core.run_episode", count_steps)
    wrap(core, "run_episode", "core.run_episode", count_steps)
    wrap(bench, "eval_pure_exploit", "core.eval_pure_exploit")
    for env_class in (envs.ChainEnv, envs.CliffEnv, envs.TaxiEnv,
                      envs.MountainCarEnv, envs.PendulumEnv):
        wrap(env_class, "step", "envs.step")
    for agent_class in (tabular.EpsilonGreedyAgent,
                        tabular.AdditiveBonusAgent,
                        tabular.ExplorationValuesAgent):
        wrap(agent_class, "act", "tabular.act")
        wrap(agent_class, "observe", "tabular.observe")
    for name in ("run_rows_to_csv", "write_aggregates", "save_checkpoint"):
        wrap(bench, name, "bench.io")
    try:
        wall, runs = run_round(configs, out_root, probe=probe)
    finally:
        tracer.close()

    per_name, covered = layer_totals(tracer.names, *tracer.arrays())
    counts = tracer.counts
    train = counts["core.train.env_steps"]
    layers = {}
    for name in ("features.embed_pairs", "bayes.observe",
                 "bayes.centered_quadratic", "emuq.act", "emuq.end_episode",
                 "core.eval_pure_exploit", "envs.step", "tabular.act"):
        layers[f"{name}.calls"] = per_name[name]["calls"]
    for name in ("features.embed_pairs", "features.projection",
                 "bayes.observe", "bayes.centered_quadratic", "emuq.act",
                 "emuq.exploration_reward", "emuq.observe",
                 "emuq.end_episode", "core.run_episode", "envs.step",
                 "tabular.act", "tabular.observe", "bench.io"):
        layers[f"{name}.self_s"] = per_name[name]["self_s"]
    layers["features.sample_rff.s"] = per_name["features.sample_rff"][
        "total_s"]
    layers["core.eval_pure_exploit.s"] = per_name["core.eval_pure_exploit"][
        "total_s"]
    for name in ("features.embed_pairs.rows",
                 "bayes.centered_quadratic.bytes_copied",
                 "core.train.env_steps", "core.eval.env_steps"):
        layers[name] = int(counts[name])
    layers["emuq.act.per_train_step"] = (
        per_name["emuq.act"]["calls"] / train if train else 0.0)
    for key in ("iters", "unconverged", "store_rows"):
        layers[f"emuq.sweep.{key}"] = sum(r[key] for r in runs)
    layers["bench.io.bytes"] = output_bytes(out_root)
    layers["trace.uncovered_s"] = wall - covered
    return wall, runs, layers, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    configs = workload_configs(workload)
    # --seed orders the configs in each round and draws the act probes;
    # the training seeds themselves are pinned (see workloads.py).
    configs = random.Random(args.seed).sample(configs, len(configs))
    round_dir = args.out / "round"
    shutil.rmtree(round_dir, ignore_errors=True)

    runs, train_steps, problems = checked_round(configs, round_dir, args.seed)
    reference = csv_bytes(round_dir)
    attempted = failed = 0

    def settle(runs):
        nonlocal attempted, failed
        attempted += len(runs) + sum(r["resolves"] for r in runs)
        failed += sum(r["unconverged"] for r in runs)
        if csv_bytes(round_dir) != reference:
            problems.append("a repeat wrote different CSV bytes")
        shutil.rmtree(round_dir)
        gc.collect()

    settle(runs)
    walls, ref_walls, slice_meds = [], [], []
    traced_walls, traced_ref_walls, traced_layers = [], [], []

    def done() -> bool:
        """Enough rounds for a median, and another would overrun --seconds."""
        if args.trace:
            enough = bool(walls and traced_walls)
        else:
            enough = len(walls) >= MIN_TIMED_ROUNDS
        if not enough:
            return False
        next_round = statistics.median(walls + traced_walls)
        return time.perf_counter() - started + next_round > args.seconds

    started = time.perf_counter()
    while not done():
        probe = SpeedProbe()
        if args.trace and len(traced_walls) <= len(walls):
            wall, runs, layers, tracer = traced_round(configs, round_dir,
                                                      probe)
            ref_wall, slice_s = rescale(wall, probe.spent, probe.slices)
            # per-layer times at the reference speed, like wall_ref_s
            for key in layers:
                if is_time(key):
                    layers[key] *= REF_SLICE_S / slice_s
            traced_walls.append(wall)
            traced_ref_walls.append(ref_wall)
            traced_layers.append(layers)
        else:
            wall, runs = run_round(configs, round_dir, probe=probe)
            ref_wall, slice_s = rescale(wall, probe.spent, probe.slices)
            walls.append(wall)
            ref_walls.append(ref_wall)
            slice_meds.append(slice_s)
        settle(runs)

    result = {"walls": walls, "ref_walls": ref_walls, "slice_s": slice_meds,
              "train_steps": train_steps,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        layers = dict(traced_layers[0])
        times = [k for k in layers if is_time(k)]
        for other in traced_layers[1:]:
            if any(other[k] != layers[k] for k in layers if k not in times):
                problems.append("traced rounds counted different work")
        for key in times:
            layers[key] = statistics.median(t[key] for t in traced_layers)
        layers["trace.overhead_s"] = (statistics.median(traced_ref_walls)
                                      - statistics.median(ref_walls))
        result.update(layers=layers, traced_walls=traced_walls,
                      traced_ref_walls=traced_ref_walls)
        tracer.save(args.out / "spans.npz")
    result.update(correct=not problems, problems=problems,
                  attempted=attempted, failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
