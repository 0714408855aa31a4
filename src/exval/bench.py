"""Experiment orchestration: configs, seeded multi-run execution, CSV
emission, aggregation, and agent checkpoints.

An experiment is one JSON config describing environment, agent,
kappa-schedule, and run counts.  Each seed produces one fully
deterministic run (three derived random streams; see core.seed_streams)
and one per-episode CSV; aggregation is a pure function of those CSV
rows, so summaries can always be recomputed from the files alone.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import eval_pure_exploit, run_episode, seed_streams
from .emuq import EmuQ, EmuqConfig
from .envs import env_names, make_env
from .schedules import make_schedule
from .tabular import (AdditiveBonusAgent, EpsilonGreedyAgent,
                      ExplorationValuesAgent)

CHECKPOINT_VERSION = 2
RESULTS_DIR_VAR = "EXVAL_RESULTS_DIR"
CSV_HEADER = ["run_id", "seed", "episode", "steps", "return", "kappa",
              "reached_goal", "first_goal_flag"]

AGENT_KINDS = ("epsilon_greedy", "additive", "explvalues", "emuq")


class ConfigError(Exception):
    """Invalid or unresolvable experiment configuration."""


class CheckpointError(Exception):
    """Unreadable, corrupt, or incompatible checkpoint file."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    env_name: str
    env_params: dict
    agent_kind: str
    agent_params: dict
    schedule_variant: str
    schedule_params: dict
    n_episodes: int
    n_seeds: int
    base_seed: int = 0
    out: str | None = None

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("a config must be a JSON object")
        known = {"experiment", "env", "agent", "schedule", "n_episodes",
                 "n_seeds", "base_seed", "out"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("experiment", "env", "agent", "schedule", "n_episodes",
                    "n_seeds"):
            if key not in raw:
                raise ConfigError(f"missing config key: {key!r}")
        env = raw["env"]
        agent = raw["agent"]
        schedule = raw["schedule"]
        if not isinstance(env, dict) or "name" not in env:
            raise ConfigError("env must be an object with a 'name'")
        if not isinstance(agent, dict) or "kind" not in agent:
            raise ConfigError("agent must be an object with a 'kind'")
        if not isinstance(schedule, dict) or "variant" not in schedule:
            raise ConfigError("schedule must be an object with a 'variant'")
        if env["name"] not in env_names():
            raise ConfigError(f"unknown environment {env['name']!r}")
        if agent["kind"] not in AGENT_KINDS:
            raise ConfigError(f"unknown agent kind {agent['kind']!r}")
        n_episodes = _count(raw, "n_episodes")
        n_seeds = _count(raw, "n_seeds")
        base_seed = _count(raw, "base_seed", 0)
        if n_episodes < 1 or n_seeds < 1:
            raise ConfigError("n_episodes and n_seeds must be >= 1")
        return ExperimentConfig(
            experiment=str(raw["experiment"]),
            env_name=env["name"],
            env_params=_params(env, "env"),
            agent_kind=agent["kind"],
            agent_params=_params(agent, "agent"),
            schedule_variant=schedule["variant"],
            schedule_params=_params(schedule, "schedule"),
            n_episodes=n_episodes,
            n_seeds=n_seeds,
            base_seed=base_seed,
            out=raw.get("out"),
        )

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "env": {"name": self.env_name, "params": self.env_params},
            "agent": {"kind": self.agent_kind, "params": self.agent_params},
            "schedule": {"variant": self.schedule_variant,
                         "params": self.schedule_params},
            "n_episodes": self.n_episodes,
            "n_seeds": self.n_seeds,
            "base_seed": self.base_seed,
            **({"out": self.out} if self.out else {}),
        }


def _count(raw: dict, key: str, default=None) -> int:
    """raw[key] as an int; a bool, a string or a fractional number is a
    ConfigError, never truncated."""
    value = raw.get(key, default)
    whole = (isinstance(value, int) or
             isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"bad run counts: {key} must be a whole number, "
                          f"got {value!r}")
    return int(value)


def _params(section: dict, name: str) -> dict:
    """A copy of section["params"] (empty if absent), which must be a
    JSON object."""
    params = section.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{name} params must be an object, got {params!r}")
    return dict(params)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(raw)


def make_agent(config: ExperimentConfig, env, rng):
    kind = config.agent_kind
    params = dict(config.agent_params)
    vector_obs = getattr(env, "vector_obs", False)
    if kind == "emuq":
        if env.spec.n_states is not None and not vector_obs:
            raise ConfigError("agent 'emuq' needs vector observations; "
                              f"{config.env_name!r} gives state indices")
        try:
            return EmuQ(env.spec, EmuqConfig(**params), rng)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad emuq agent params: {exc}") from None
    if env.spec.n_states is None:
        raise ConfigError(f"agent {kind!r} needs a discrete-state env")
    if vector_obs:
        raise ConfigError(f"agent {kind!r} needs index observations; "
                          "drop vector_obs from the env params")
    classes = {"epsilon_greedy": EpsilonGreedyAgent,
               "additive": AdditiveBonusAgent,
               "explvalues": ExplorationValuesAgent}
    try:
        return classes[kind](env.spec.n_states, env.spec.n_actions, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} agent params: {exc}") from None


@dataclass
class RunResult:
    seed: int
    rows: list = field(default_factory=list)   # CSV rows minus run_id/seed
    episodes_to_first_goal: int | None = None
    latched_at: int | None = None
    wall_time: float = 0.0
    agent_stats: dict = field(default_factory=dict)


def run_single(config: ExperimentConfig, seed: int,
               keep_agent: bool = False):
    """Execute one seeded run; deterministic in (config, seed)."""
    t0 = time.perf_counter()
    env_rng, agent_rng, eval_rng = seed_streams(config.base_seed, seed)
    try:
        env = make_env(config.env_name, **config.env_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad env params: {exc}") from None
    agent = make_agent(config, env, agent_rng)
    try:
        schedule = make_schedule(config.schedule_variant,
                                 **config.schedule_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad schedule spec: {exc}") from None

    result = RunResult(seed=seed)
    for episode in range(config.n_episodes):
        kappa = schedule.kappa_at(episode)
        frozen = schedule.frozen_at(episode)
        log = run_episode(env, agent, env_rng, agent_rng, kappa=kappa,
                          learn=not frozen)
        first = (result.episodes_to_first_goal is None and log.reached_goal)
        if first:
            result.episodes_to_first_goal = episode
        result.rows.append((episode, log.steps, log.return_undiscounted,
                            kappa, int(log.reached_goal), int(first)))
        if schedule.wants_eval and not schedule.latched:
            evals = eval_pure_exploit(env, agent, schedule.n_eval, eval_rng)
            schedule.note_eval(evals, episode)
    result.latched_at = getattr(schedule, "latched_at", None)
    result.wall_time = time.perf_counter() - t0
    result.agent_stats = agent.run_stats()
    return (result, agent) if keep_agent else result


def _run_seed(config: ExperimentConfig, seed: int, out: Path,
              save_checkpoints: bool) -> RunResult:
    """Run one seed and save its checkpoint if asked; both the serial
    loop and the worker pool of run_experiment run seeds through here."""
    result, agent = run_single(config, seed, keep_agent=True)
    if save_checkpoints:
        save_checkpoint(agent, out / f"checkpoint_s{seed:03d}.npz", config)
    return result


def format_float(x) -> str:
    """Shortest exact decimal form; stable across runs and platforms."""
    return repr(float(x))


def run_rows_to_csv(config: ExperimentConfig, result: RunResult) -> str:
    run_id = f"{config.experiment}-s{result.seed}"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for episode, steps, ret, kappa, reached, first in result.rows:
        writer.writerow([run_id, result.seed, episode, steps,
                         format_float(ret), format_float(kappa),
                         reached, first])
    return buf.getvalue()


def resolve_out_dir(config: ExperimentConfig, out_flag=None) -> Path:
    if out_flag:
        return Path(out_flag)
    if config.out:
        return Path(config.out)
    root = os.environ.get(RESULTS_DIR_VAR, "results")
    return Path(root) / config.experiment


def run_experiment(config: ExperimentConfig, out_dir=None, n_seeds=None,
                   workers: int = 1, save_checkpoints: bool = True):
    """Run all seeds, write per-run CSVs plus aggregate and summary files.

    Returns the list of RunResults in seed order.  A failure in any run
    still flushes the completed runs' files before propagating.
    """
    n = config.n_seeds if n_seeds is None else int(n_seeds)
    out = resolve_out_dir(config, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(config.to_dict(), indent=2) + "\n")

    results: dict[int, RunResult] = {}
    failure = None
    if workers <= 1:
        for seed in range(n):
            try:
                results[seed] = _run_seed(config, seed, out, save_checkpoints)
            except Exception as exc:    # flush what we have, then re-raise
                failure = exc
                break
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {seed: pool.submit(_run_seed, config, seed, out,
                                         save_checkpoints)
                       for seed in range(n)}
            for seed in range(n):
                try:
                    results[seed] = futures[seed].result()
                except Exception as exc:
                    failure = exc
                    for other in futures.values():
                        other.cancel()
                    break

    ordered = [results[s] for s in sorted(results)]
    for result in ordered:
        path = out / f"run_s{result.seed:03d}.csv"
        path.write_text(run_rows_to_csv(config, result))
    meta = {
        "experiment": config.experiment,
        "n_seeds_completed": len(ordered),
        "wall_times": {r.seed: r.wall_time for r in ordered},
        "agent_stats": {r.seed: r.agent_stats for r in ordered
                        if r.agent_stats},
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    if ordered:
        write_aggregates(out, config, ordered)
    if failure is not None:
        raise failure
    return ordered


# -- aggregation ---------------------------------------------------------

def read_run_csv(path):
    """Parse one per-run CSV back into (seed, rows).

    A file with a wrong or missing header, without rows, or with a row
    that is short or not numeric raises ConfigError naming the file.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header in {path}")
        rows = []
        for line, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise ConfigError(f"{path} line {line}: {len(row)} columns, "
                                  f"expected {len(CSV_HEADER)}")
            _, s, episode, steps, ret, kappa, reached, first = row
            try:
                seed = int(s)
                rows.append((int(episode), int(steps), float(ret),
                             float(kappa), int(reached), int(first)))
            except ValueError as exc:
                raise ConfigError(f"{path} line {line}: {exc}") from None
    if not rows:
        raise ConfigError(f"{path} has no rows")
    return seed, rows


def aggregate_rows(rows_by_seed: dict, target_stop: bool = False):
    """Per-episode stats across seeds plus a one-line summary.

    episodes-to-first-goal statistics follow the convention of counting
    successful runs only; with no successes the mean reads "--".
    """
    seeds = sorted(rows_by_seed)
    n_episodes = max(len(rows_by_seed[s]) for s in seeds)
    per_episode = []
    for ep in range(n_episodes):
        rets = [rows_by_seed[s][ep][2] for s in seeds
                if ep < len(rows_by_seed[s])]
        steps = [rows_by_seed[s][ep][1] for s in seeds
                 if ep < len(rows_by_seed[s])]
        per_episode.append((ep, float(np.mean(rets)), float(np.std(rets)),
                            float(np.mean(steps)), float(np.std(steps)),
                            len(rets)))

    first_goals = {}
    for s in seeds:
        hits = [row[0] for row in rows_by_seed[s] if row[5] == 1]
        first_goals[s] = hits[0] if hits else None
    successes = [v for v in first_goals.values() if v is not None]
    summary = {
        "n_runs": len(seeds),
        "success_rate": len(successes) / len(seeds),
        "episodes_to_first_goal_mean":
            float(np.mean(successes)) if successes else None,
        "episodes_to_first_goal_std":
            float(np.std(successes)) if successes else None,
    }
    if target_stop:
        latched = {}
        for s in seeds:
            zero = [row[0] for row in rows_by_seed[s] if row[3] == 0.0]
            latched[s] = zero[0] if zero else None
        reached = [s for s in seeds if latched[s] is not None]
        post_means = []
        for s in reached:
            post = [row[2] for row in rows_by_seed[s]
                    if row[0] >= latched[s]]
            if post:
                post_means.append(float(np.mean(post)))
        summary.update({
            "times_target_reached": len(reached),
            "episodes_to_target_mean":
                float(np.mean([latched[s] for s in reached]))
                if reached else None,
            "post_target_return_mean":
                float(np.mean(post_means)) if post_means else None,
            "post_target_return_std":
                float(np.std(post_means)) if post_means else None,
        })
    return per_episode, summary


def write_aggregates(out: Path, config: ExperimentConfig, results) -> dict:
    """Write aggregate.csv and summary.csv; return the summary."""
    rows_by_seed = {r.seed: r.rows for r in results}
    per_episode, summary = aggregate_rows(
        rows_by_seed, target_stop=config.schedule_variant == "target_stop")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["episode", "mean_return", "std_return", "mean_steps",
                     "std_steps", "n_runs"])
    for ep, mr, sr, ms, ss, nr in per_episode:
        writer.writerow([ep, format_float(mr), format_float(sr),
                         format_float(ms), format_float(ss), nr])
    (out / "aggregate.csv").write_text(buf.getvalue())

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    keys = list(summary)
    writer.writerow(keys)
    writer.writerow(["--" if summary[k] is None
                     else (format_float(summary[k])
                           if isinstance(summary[k], float) else summary[k])
                     for k in keys])
    (out / "summary.csv").write_text(buf.getvalue())
    return summary


def aggregate_directory(in_dir) -> dict:
    """Recompute aggregate.csv and summary.csv from the per-run CSVs."""
    in_dir = Path(in_dir)
    config_path = in_dir / "config.json"
    if not config_path.exists():
        raise ConfigError(f"no config.json in {in_dir}")
    try:
        raw = json.loads(config_path.read_text())
    except ValueError as exc:       # bad JSON or bad UTF-8
        raise ConfigError(f"{config_path} is not valid JSON: {exc}") from None
    try:
        config = ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{config_path}: {exc}") from None
    run_files = sorted(in_dir.glob("run_s*.csv"))
    if not run_files:
        raise ConfigError(f"no run CSVs in {in_dir}")
    return write_aggregates(in_dir, config,
                            [RunResult(*read_run_csv(path))
                             for path in run_files])


# -- checkpoints ---------------------------------------------------------

def save_checkpoint(agent, path, config: ExperimentConfig) -> None:
    """Write the agent's state_arrays plus what rebuilds agent and env."""
    arrays = {
        "version": np.asarray(CHECKPOINT_VERSION),
        "kind": np.asarray(config.agent_kind),
        "env_name": np.asarray(config.env_name),
        "env_params": np.asarray(json.dumps(config.env_params)),
        "agent_params": np.asarray(json.dumps(config.agent_params)),
        **agent.state_arrays(),
    }
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Rebuild (agent, env) from a checkpoint file."""
    try:
        data = np.load(path, allow_pickle=False)
    except Exception as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    try:
        version = int(data["version"])
    except KeyError:
        raise CheckpointError(f"{path} has no version field") from None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} unsupported "
            f"(expected {CHECKPOINT_VERSION})")
    missing = [key for key in ("kind", "env_name", "env_params",
                               "agent_params") if key not in data.files]
    if missing:
        raise CheckpointError(f"{path} is missing {', '.join(missing)}")
    kind = str(data["kind"])
    if kind not in AGENT_KINDS:
        raise CheckpointError(f"{path} has unknown agent kind {kind!r}")
    env_name = str(data["env_name"])
    try:
        env_params = json.loads(str(data["env_params"]))
        agent_params = json.loads(str(data["agent_params"]))
        env = make_env(env_name, **env_params)
        emuq_config = EmuqConfig(**agent_params) if kind == "emuq" else None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path} has bad metadata: {exc}") from None
    config = ExperimentConfig(
        experiment="checkpoint", env_name=env_name, env_params=env_params,
        agent_kind=kind, agent_params=agent_params,
        schedule_variant="constant", schedule_params={"kappa0": 0.0},
        n_episodes=1, n_seeds=1)
    try:
        if emuq_config is not None:
            # Built on the saved feature map: a fresh one would be drawn
            # only to be replaced.
            agent = EmuQ.from_state_arrays(env.spec, emuq_config, data)
        else:
            agent = make_agent(config, env, np.random.default_rng(0))
            agent.load_state_arrays(data)
    except KeyError as exc:
        raise CheckpointError(f"{path} is missing array {exc}") from None
    return agent, env
