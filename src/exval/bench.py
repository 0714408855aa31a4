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
import functools
import io
import json
import os
import time
import zipfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .core import (CheckpointError, eval_pure_exploit, run_episode,
                   seed_streams, whole_number)
from .emuq import EmuQ, EmuqConfig
from .envs import env_names, make_env
from .schedules import make_schedule
from .tabular import (AdditiveBonusAgent, EpsilonGreedyAgent,
                      ExplorationValuesAgent)

CHECKPOINT_VERSION = 4
RESULTS_DIR_VAR = "EXVAL_RESULTS_DIR"
CSV_HEADER = ["run_id", "seed", "episode", "steps", "return", "kappa",
              "reached_goal", "first_goal_flag"]

AGENT_CLASSES = {"epsilon_greedy": EpsilonGreedyAgent,
                 "additive": AdditiveBonusAgent,
                 "explvalues": ExplorationValuesAgent,
                 "emuq": EmuQ}


class ConfigError(Exception):
    """Invalid or unresolvable experiment configuration."""


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

    def __post_init__(self):
        # Here, not in from_dict, so dataclasses.replace checks them too.
        experiment = self.experiment
        if (not isinstance(experiment, str) or "/" in experiment
                or "\0" in experiment or experiment in ("", ".", "..")):
            raise ConfigError("experiment must name one results directory "
                              "(no '/', NUL, '.' or '..'), "
                              f"got {experiment!r}")
        for name in ("n_episodes", "n_seeds", "base_seed"):
            try:
                count = whole_number(name, getattr(self, name))
            except ValueError as exc:
                raise ConfigError(f"bad run counts: {exc}") from None
            object.__setattr__(self, name, count)    # 3.0 is read as 3
        if self.n_episodes < 1 or self.n_seeds < 1:
            raise ConfigError("n_episodes and n_seeds must be >= 1")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("a config must be a JSON object")
        known = {"experiment", "env", "agent", "schedule", "n_episodes",
                 "n_seeds", "base_seed"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("experiment", "env", "agent", "schedule", "n_episodes",
                    "n_seeds"):
            if key not in raw:
                raise ConfigError(f"missing config key: {key!r}")
        for section, key in (("env", "name"), ("agent", "kind"),
                             ("schedule", "variant")):
            if not isinstance(raw[section], dict) or key not in raw[section]:
                raise ConfigError(
                    f"{section} must be an object with a {key!r}")
            if not isinstance(raw[section][key], str):
                raise ConfigError(f"{section} {key} must be a string, "
                                  f"got {raw[section][key]!r}")
        env = raw["env"]
        agent = raw["agent"]
        schedule = raw["schedule"]
        if env["name"] not in env_names():
            raise ConfigError(f"unknown environment {env['name']!r}")
        if agent["kind"] not in AGENT_CLASSES:
            raise ConfigError(f"unknown agent kind {agent['kind']!r}")
        return ExperimentConfig(
            experiment=raw["experiment"],
            env_name=env["name"],
            env_params=_params(env, "env"),
            agent_kind=agent["kind"],
            agent_params=_params(agent, "agent"),
            schedule_variant=schedule["variant"],
            schedule_params=_params(schedule, "schedule"),
            n_episodes=raw["n_episodes"],
            n_seeds=raw["n_seeds"],
            base_seed=raw.get("base_seed", 0),
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
        }


def _params(section: dict, name: str) -> dict:
    """A copy of section["params"] (empty if absent), which must be a
    JSON object."""
    params = section.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{name} params must be an object, got {params!r}")
    return dict(params)


def load_config(path) -> ExperimentConfig:
    """The config in the JSON file at ``path``, the one config-file
    reader; ConfigError names ``path`` if the file cannot be opened or
    decoded or does not hold a valid config."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:                  # a directory, say
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:               # bad UTF-8 or bad JSON
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    try:
        return ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def make_agent(config: ExperimentConfig, env, rng):
    """The config's agent for ``env``, the one place any agent is built.

    ``rng`` seeds an EmuQ feature map; with None no map is drawn (see
    build_run and load_checkpoint).  Tabular agents draw nothing here.
    """
    kind = config.agent_kind
    params = dict(config.agent_params)
    vector_obs = getattr(env, "vector_obs", False)
    if kind == "emuq":
        if env.spec.n_states is not None and not vector_obs:
            raise ConfigError("agent 'emuq' needs vector observations; "
                              f"{config.env_name!r} gives state indices")
    elif env.spec.n_states is None:
        raise ConfigError(f"agent {kind!r} needs a discrete-state env")
    elif vector_obs:
        raise ConfigError(f"agent {kind!r} needs index observations; "
                          "drop vector_obs from the env params")
    try:
        if kind == "emuq":
            return EmuQ(env.spec, EmuqConfig(**params), rng)
        return AGENT_CLASSES[kind](env.spec.n_states, env.spec.n_actions,
                                   **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} agent params: {exc}") from None


def build_run(config: ExperimentConfig, agent_rng=None):
    """The config's (env, agent, schedule); bad params of any raise
    ConfigError.  Without ``agent_rng`` no feature map is drawn, so the
    build is cheap enough to check a config before any file is written."""
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
    return env, agent, schedule


@dataclass
class RunResult:
    seed: int
    rows: list = field(default_factory=list)   # CSV rows minus run_id/seed
    episodes_to_first_goal: int | None = None
    latched_at: int | None = None
    wall_time: float = 0.0
    agent_stats: dict = field(default_factory=dict)


def run_single(config: ExperimentConfig, seed: int):
    """Execute one seeded run, deterministic in (config, seed); returns
    (result, trained agent)."""
    t0 = time.perf_counter()
    env_rng, agent_rng, eval_rng = seed_streams(config.base_seed, seed)
    env, agent, schedule = build_run(config, agent_rng)

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
    return result, agent


def _run_seed(config: ExperimentConfig, seed: int, out: Path,
              save_checkpoints: bool) -> RunResult:
    """Run one seed and save its checkpoint if asked."""
    result, agent = run_single(config, seed)
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
    if out_flag is not None:
        if not str(out_flag):
            raise ConfigError("--out must name a directory, got ''")
        return Path(out_flag)
    root = os.environ.get(RESULTS_DIR_VAR, "results")
    return Path(root) / config.experiment


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the platform
    has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def pin_blas_threads():
    """Set numpy's bundled OpenBLAS to one thread, once per process, and
    return the count: 1, or "unpinned: <reason>" when no setter is found.

    EmuQ results depend on the BLAS thread count (a pendulum run's
    matrix products round differently on two threads than on one), so
    runs and evaluations use one thread on every machine.  The setter is
    ``scipy_openblas_set_num_threads64_`` of the OpenBLAS that numpy
    wheels ship under ``numpy.libs``; a numpy built against another BLAS
    has none.  ctypes is imported here, so importing this module or
    building an agent does not pay for it.
    """
    import ctypes

    setter = "scipy_openblas_set_num_threads64_"
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*"))
    if not found:
        return f"unpinned: no libscipy_openblas64_ library under {libs}"
    try:
        set_threads = getattr(ctypes.CDLL(str(found[0])), setter)
    except (OSError, AttributeError) as exc:
        return f"unpinned: {exc}"
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)
    return 1


def run_experiment(config: ExperimentConfig, out_dir=None, workers: int = 1,
                   save_checkpoints: bool = True):
    """Run seeds 0..config.n_seeds-1, write per-run CSVs plus aggregate
    and summary files.

    BLAS runs on one thread (``pin_blas_threads``), and ``meta.json``
    records the count as ``blas_threads``.  Returns the list of
    RunResults in seed order.  Bad params, or an
    output path where no directory can be made, raise ConfigError and
    write no file; a failed run raises after the completed runs' files
    are written.
    """
    build_run(config)
    out = resolve_out_dir(config, out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make results directory {out}: "
                          f"{exc.strerror}") from None
    (out / "config.json").write_text(
        json.dumps(config.to_dict(), indent=2) + "\n")
    blas_threads = pin_blas_threads()

    # Both maps yield in seed order; pool.map cancels the seeds not yet
    # started once one raises.
    run_seed = partial(_run_seed, config, out=out,
                       save_checkpoints=save_checkpoints)
    # A fork pool starts all its workers at once: one per seed and one
    # per usable CPU at most.
    workers = min(workers, config.n_seeds, usable_cpus())
    ordered: list[RunResult] = []
    failure = None
    if workers > 1:
        # imported here: it loads multiprocessing, which serial runs skip
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    else:
        pool = nullcontext()
    with pool as pool:
        runs = (map if pool is None else pool.map)(run_seed,
                                                   range(config.n_seeds))
        try:
            for result in runs:
                ordered.append(result)
        except Exception as exc:
            failure = exc

    for result in ordered:
        path = out / f"run_s{result.seed:03d}.csv"
        path.write_text(run_rows_to_csv(config, result))
    meta = {
        "experiment": config.experiment,
        "blas_threads": blas_threads,
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

    A file that is not UTF-8 text, with a wrong or missing header,
    without rows, with a row that is short or not numeric, with a seed
    that changes between rows or with episodes that are not 0, 1, 2, ...
    in order raises ConfigError naming the file (and the line).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not table or table[0] != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header in {path}")
    rows = []
    for line, row in enumerate(table[1:], start=2):
        if len(row) != len(CSV_HEADER):
            raise ConfigError(f"{path} line {line}: {len(row)} columns, "
                              f"expected {len(CSV_HEADER)}")
        _, s, episode, steps, ret, kappa, reached, first = row
        try:
            row_seed = int(s)
            parsed = (int(episode), int(steps), float(ret), float(kappa),
                      int(reached), int(first))
        except ValueError as exc:
            raise ConfigError(f"{path} line {line}: {exc}") from None
        if not rows:
            seed = row_seed
        elif row_seed != seed:
            raise ConfigError(f"{path} line {line}: seed {row_seed}, "
                              f"but line 2 has seed {seed}")
        if parsed[0] != len(rows):
            raise ConfigError(f"{path} line {line}: episode {parsed[0]}, "
                              f"expected {len(rows)}")
        rows.append(parsed)
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
    """Recompute aggregate.csv and summary.csv from config.json and the
    per-run CSVs; two CSVs of one seed raise ConfigError naming both."""
    in_dir = Path(in_dir)
    config = load_config(in_dir / "config.json")
    run_files = sorted(in_dir.glob("run_s*.csv"))
    if not run_files:
        raise ConfigError(f"no run CSVs in {in_dir}")
    files_by_seed, results = {}, []
    for path in run_files:
        result = RunResult(*read_run_csv(path))
        if result.seed in files_by_seed:
            raise ConfigError(f"{files_by_seed[result.seed]} and {path} "
                              f"both hold seed {result.seed}")
        files_by_seed[result.seed] = path
        results.append(result)
    return write_aggregates(in_dir, config, results)


# -- checkpoints ---------------------------------------------------------

def save_checkpoint(agent, path, config: ExperimentConfig) -> None:
    """Write the agent's state_arrays plus the run's config, which
    rebuilds env, agent and schedule."""
    arrays = {
        "version": np.asarray(CHECKPOINT_VERSION),
        "config": np.asarray(json.dumps(config.to_dict())),
        **agent.state_arrays(),
    }
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Rebuild (agent, env) from a checkpoint file: the saved config
    passes a config file's checks, build_run builds the agent and its
    load_state_arrays checks and installs the saved arrays.  A member
    that cannot be read (a bad CRC, a cut or garbled array) is a
    CheckpointError naming the file, like a file that cannot be opened."""
    try:
        data = np.load(path, allow_pickle=False)
    except Exception as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise CheckpointError(f"{path} is a single array, not a checkpoint")
    with data:
        try:
            return _load_checkpoint_members(path, data)
        except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint {path}: {exc}") from None


def _load_checkpoint_members(path, data):
    """load_checkpoint's checks and build, over the open archive ``data``."""
    if "version" not in data.files:
        raise CheckpointError(f"{path} has no version entry")
    try:
        version = whole_number("version", data["version"].item())
    except ValueError as exc:   # also: not one element, or a pickled array
        raise CheckpointError(
            f"{path} has a bad version entry: {exc}") from None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} unsupported "
            f"(expected {CHECKPOINT_VERSION})")
    if "config" not in data.files:
        raise CheckpointError(f"{path} has no config entry")
    try:
        config = ExperimentConfig.from_dict(json.loads(str(data["config"])))
        env, agent, _ = build_run(config)
    except (ConfigError, ValueError) as exc:    # ValueError: bad JSON
        raise CheckpointError(f"{path} has a bad config: {exc}") from None
    try:
        agent.load_state_arrays(data)
    except KeyError as exc:
        raise CheckpointError(f"{path} is missing array {exc}") from None
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return agent, env
