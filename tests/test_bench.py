"""Experiment orchestration tests: config validation, deterministic runs,
CSV round trips, aggregation arithmetic, checkpoints, and the CLI."""

import concurrent.futures
import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
import zipfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from exval import bench
from exval.bench import (CHECKPOINT_VERSION, CSV_HEADER, CheckpointError,
                         ConfigError,
                         ExperimentConfig, aggregate_directory,
                         aggregate_rows, build_run, format_float,
                         load_checkpoint,
                         load_config, make_agent, read_run_csv,
                         resolve_out_dir, run_experiment, run_rows_to_csv,
                         run_single, save_checkpoint)
from exval.cli import main
from exval.core import run_episode, seed_streams
from exval.emuq import SWEEP_MAX_ITERS, EmuQ
from exval.envs import CliffEnv, MountainCarEnv, TaxiEnv, make_env
from exval.tabular import (AdditiveBonusAgent, EpsilonGreedyAgent,
                           ExplorationValuesAgent)


def tiny_dict(**over):
    d = {
        "experiment": "tiny",
        "env": {"name": "cliff", "params": {"max_episode_steps": 60}},
        "agent": {"kind": "explvalues", "params": {}},
        "schedule": {"variant": "constant", "params": {"kappa0": 1.0}},
        "n_episodes": 4,
        "n_seeds": 2,
    }
    d.update(over)
    return d


def tiny_config(**over):
    return ExperimentConfig.from_dict(tiny_dict(**over))


REPO_DIR = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_DIR / "configs"
SRC_DIR = REPO_DIR / "src"


# -- config parsing ----------------------------------------------------


def test_config_roundtrip():
    config = tiny_config()
    assert config.env_name == "cliff"
    assert config.agent_kind == "explvalues"
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(tiny_dict(extra=1))
    bad = tiny_dict()
    del bad["schedule"]
    with pytest.raises(ConfigError, match="missing config key"):
        ExperimentConfig.from_dict(bad)


def test_config_rejects_bad_names_and_counts():
    with pytest.raises(ConfigError, match="unknown environment"):
        ExperimentConfig.from_dict(tiny_dict(env={"name": "gridworld"}))
    with pytest.raises(ConfigError, match="unknown agent kind"):
        ExperimentConfig.from_dict(tiny_dict(agent={"kind": "dqn"}))
    with pytest.raises(ConfigError, match=">= 1"):
        ExperimentConfig.from_dict(tiny_dict(n_episodes=0))
    with pytest.raises(ConfigError, match="must be an object"):
        ExperimentConfig.from_dict(tiny_dict(env="cliff"))


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(tiny_dict()))
    assert load_config(good) == tiny_config()


# -- agent construction ------------------------------------------------


def test_make_agent_kinds():
    rng = np.random.default_rng(0)
    env = CliffEnv()
    pairs = [("epsilon_greedy", EpsilonGreedyAgent),
             ("additive", AdditiveBonusAgent),
             ("explvalues", ExplorationValuesAgent)]
    for kind, cls in pairs:
        config = tiny_config(agent={"kind": kind, "params": {}})
        assert isinstance(make_agent(config, env, rng), cls)
    config = tiny_config(
        env={"name": "mountaincar"},
        agent={"kind": "emuq", "params": {"n_features": 32}})
    assert isinstance(make_agent(config, MountainCarEnv(), rng), EmuQ)


def test_make_agent_rejects_mismatches():
    rng = np.random.default_rng(0)
    config = tiny_config()
    with pytest.raises(ConfigError, match="discrete-state"):
        make_agent(config, MountainCarEnv(), rng)
    vec_env = make_env("chain", n_states=5, vector_obs=True)
    with pytest.raises(ConfigError, match="vector_obs"):
        make_agent(config, vec_env, rng)
    bad = tiny_config(agent={"kind": "explvalues",
                             "params": {"epsilon": 0.5}})
    with pytest.raises(ConfigError, match="bad explvalues"):
        make_agent(bad, CliffEnv(), rng)
    # kappa comes from the schedule; the scheme, the re-solve's tolerance
    # and cap, and the three sampling sizes are fixed in emuq.py
    for key in ("bogus", "kappa", "scheme", "sweep_tol", "sweep_max_iters",
                "n_action_candidates", "n_expectation_samples",
                "n_sweep_candidates"):
        bad_emuq = tiny_config(agent={"kind": "emuq", "params": {key: 1}})
        with pytest.raises(ConfigError, match=f"bad emuq.*{key}"):
            make_agent(bad_emuq, MountainCarEnv(), rng)
    # emuq needs vector observations, as tabular agents need indices
    emuq = tiny_config(agent={"kind": "emuq", "params": {}})
    for env in (make_env("taxi"), CliffEnv(), make_env("chain", n_states=5)):
        with pytest.raises(ConfigError, match="emuq.*vector observations"):
            make_agent(emuq, env, rng)


def test_every_checked_in_config_builds_env_agent_and_schedule():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) == 27
    for path in paths:
        config = load_config(path)
        build_run(config, np.random.default_rng(0))
        build_run(config)


# -- single runs -------------------------------------------------------


def test_run_single_deterministic_in_config_and_seed():
    config = tiny_config()
    a, _ = run_single(config, 0)
    b, _ = run_single(config, 0)
    assert a.rows == b.rows
    c, _ = run_single(config, 1)
    assert c.rows != a.rows
    assert len(a.rows) == 4
    # row layout: episode, steps, return, kappa, reached, first
    episodes = [row[0] for row in a.rows]
    assert episodes == [0, 1, 2, 3]
    assert all(row[3] == 1.0 for row in a.rows)


def test_run_single_first_goal_flag_once():
    config = tiny_config(n_episodes=8)
    result, _ = run_single(config, 0)
    firsts = [row[5] for row in result.rows]
    assert sum(firsts) <= 1
    if result.episodes_to_first_goal is not None:
        assert firsts[result.episodes_to_first_goal] == 1
        assert result.rows[result.episodes_to_first_goal][4] == 1


def test_run_single_target_stop_latches_and_keeps_learning():
    config = tiny_config(
        n_episodes=3,
        schedule={"variant": "target_stop",
                  "params": {"kappa0": 1.0, "target": -1000.0,
                             "n_eval": 2}})
    result, _ = run_single(config, 0)
    # the absurdly low target latches after the first evaluation round
    assert result.latched_at == 0
    assert [row[3] for row in result.rows] == [1.0, 0.0, 0.0]


def test_run_single_budget_stop_freezes_learning():
    config = tiny_config(
        n_episodes=4,
        schedule={"variant": "budget_stop",
                  "params": {"kappa0": 1.0, "budget": 2}})
    _, agent = run_single(config, 0)
    q_after = agent.q.copy()
    counts_after = agent.counts.copy()
    # replay the frozen tail: tables must be exactly what episode 2 saw
    config_short = tiny_config(
        n_episodes=2,
        schedule={"variant": "budget_stop",
                  "params": {"kappa0": 1.0, "budget": 2}})
    _, agent_short = run_single(config_short, 0)
    npt.assert_array_equal(q_after, agent_short.q)
    npt.assert_array_equal(counts_after, agent_short.counts)


# -- CSV emission ------------------------------------------------------


def test_format_float_is_shortest_exact_repr():
    assert format_float(0.1) == "0.1"
    assert format_float(1) == "1.0"
    assert format_float(1 / 3) == repr(1 / 3)
    assert float(format_float(np.float64(0.30000000000000004))) == \
        0.30000000000000004


def test_csv_roundtrip(tmp_path):
    config = tiny_config()
    result, _ = run_single(config, 1)
    text = run_rows_to_csv(config, result)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].startswith("tiny-s1,1,0,")
    path = tmp_path / "run_s001.csv"
    path.write_text(text)
    seed, rows = read_run_csv(path)
    assert seed == 1
    assert rows == [tuple(row) for row in result.rows]


def test_read_run_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="unexpected CSV header"):
        read_run_csv(path)


# -- output directory resolution ---------------------------------------


def test_resolve_out_dir_precedence(tmp_path, monkeypatch):
    config = tiny_config()
    assert resolve_out_dir(config, "/tmp/somewhere") == \
        __import__("pathlib").Path("/tmp/somewhere")
    with pytest.raises(ConfigError, match="unknown config keys: .'out'"):
        tiny_config(out=str(tmp_path / "cfg"))
    monkeypatch.setenv("EXVAL_RESULTS_DIR", str(tmp_path / "envvar"))
    assert resolve_out_dir(config) == tmp_path / "envvar" / "tiny"
    monkeypatch.delenv("EXVAL_RESULTS_DIR")
    assert str(resolve_out_dir(config)) == "results/tiny"


# -- full experiments --------------------------------------------------


def test_run_experiment_writes_everything(tmp_path):
    config = tiny_config()
    results = run_experiment(config, out_dir=tmp_path / "out")
    out = tmp_path / "out"
    assert [r.seed for r in results] == [0, 1]
    for name in ("config.json", "meta.json", "aggregate.csv",
                 "summary.csv", "run_s000.csv", "run_s001.csv",
                 "checkpoint_s000.npz", "checkpoint_s001.npz"):
        assert (out / name).exists(), name
    saved = ExperimentConfig.from_dict(
        json.loads((out / "config.json").read_text()))
    assert saved == config
    meta = json.loads((out / "meta.json").read_text())
    assert meta["n_seeds_completed"] == 2
    assert meta["blas_threads"] == bench.pin_blas_threads()


def test_emuq_run_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The shortest pendulum trim whose run CSV differed between one and
    # two OpenBLAS threads before runs pinned BLAS to one thread: seed 0,
    # 4 episodes (1 to 3 episodes matched).
    if bench.pin_blas_threads() != 1:
        pytest.skip(f"numpy's BLAS cannot be pinned here: "
                    f"{bench.pin_blas_threads()}")
    config = dict(json.loads((CONFIG_DIR / "pendulum_emuq.json").read_text()),
                  n_episodes=4, n_seeds=1)
    config_path = tmp_path / "pendulum.json"
    config_path.write_text(json.dumps(config))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(SRC_DIR))
        subprocess.run([sys.executable, "-m", "exval", "run", "--config",
                        str(config_path), "--out", str(out),
                        "--no-checkpoints"],
                       env=env, capture_output=True, check=True)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["blas_threads"] == 1
        written.append((out / "run_s000.csv").read_bytes())
    assert written[0] == written[1]


def test_run_experiment_writes_nothing_for_bad_params(tmp_path):
    # programmatic configs skip from_dict; the build still checks them
    config = tiny_config()
    for field, params, message in [
            ("env_params", {"slip_prob": 2.0}, "bad env params"),
            ("agent_params", {"lr": 5}, "bad explvalues agent params"),
            ("schedule_params", {"kappa0": "1"}, "bad schedule spec")]:
        bad = dataclasses.replace(config, **{field: params})
        with pytest.raises(ConfigError, match=message):
            run_experiment(bad, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists(), field


@pytest.mark.parametrize("field, value, message", [
    ("experiment", "../escape", "experiment must"),
    ("n_seeds", 0, "n_seeds must be >= 1"),
    ("n_episodes", -3, "n_seeds must be >= 1"),
    ("n_episodes", 2.5, "bad run counts"),
    ("base_seed", -1, "base_seed must be >= 0")])
def test_replaced_run_fields_are_checked(tmp_path, monkeypatch, field, value,
                                         message):
    # perfbench and tools/result_digests.py make configs this way
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(bench.RESULTS_DIR_VAR, str(tmp_path / "results"))
    with pytest.raises(ConfigError, match=message):
        run_experiment(dataclasses.replace(tiny_config(), **{field: value}))
    assert list(tmp_path.iterdir()) == []


def test_run_experiment_seed_override_and_no_checkpoints(tmp_path):
    config = dataclasses.replace(tiny_config(), n_seeds=1)
    results = run_experiment(config, out_dir=tmp_path / "out",
                             save_checkpoints=False)
    assert len(results) == 1
    out = tmp_path / "out"
    assert (out / "run_s000.csv").exists()
    assert not (out / "run_s001.csv").exists()
    assert not list(out.glob("checkpoint_*.npz"))


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_seed_propagates_after_flushing_completed_runs(tmp_path,
                                                              workers):
    # Seed 1 cannot write its checkpoint; seed 0's files and the summaries
    # over it are still written, and the error reaches the caller.
    config = tiny_config(n_seeds=3)
    out = tmp_path / "out"
    (out / "checkpoint_s001.npz").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        run_experiment(config, out_dir=out, workers=workers)
    one_seed = tmp_path / "one_seed"
    run_experiment(dataclasses.replace(config, n_seeds=1), out_dir=one_seed,
                   save_checkpoints=False)
    for name in ("run_s000.csv", "aggregate.csv", "summary.csv"):
        assert (out / name).read_bytes() == (one_seed / name).read_bytes()
    assert not (out / "run_s001.csv").exists()
    assert not (out / "run_s002.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["n_seeds_completed"] == 1


def test_workers_capped_at_seed_count(tmp_path, monkeypatch):
    # A fork pool starts every worker it is asked for, so the pool gets
    # at most one per seed and one per usable CPU, and one seed or one
    # CPU runs without a pool.
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    if hasattr(os, "sched_getaffinity"):
        assert bench.usable_cpus() == len(os.sched_getaffinity(0))
    # run_experiment imports the pool class only when it uses one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    monkeypatch.setattr(bench, "usable_cpus", lambda: 64)
    config = tiny_config(n_seeds=2)
    results = run_experiment(config, out_dir=tmp_path / "two", workers=16,
                             save_checkpoints=False)
    assert pools == [2]
    assert [r.seed for r in results] == [0, 1]
    results = run_experiment(dataclasses.replace(config, n_seeds=1),
                             out_dir=tmp_path / "one", workers=16,
                             save_checkpoints=False)
    assert pools == [2]
    assert [r.seed for r in results] == [0]

    config = tiny_config(n_seeds=8, n_episodes=1)
    monkeypatch.setattr(bench, "usable_cpus", lambda: 3)
    results = run_experiment(config, out_dir=tmp_path / "many", workers=64,
                             save_checkpoints=False)
    assert pools == [2, 3]
    assert [r.seed for r in results] == list(range(8))
    monkeypatch.setattr(bench, "usable_cpus", lambda: 1)
    run_experiment(config, out_dir=tmp_path / "one_cpu", workers=64,
                   save_checkpoints=False)
    assert pools == [2, 3]


def test_parallel_workers_match_serial_bytes(tmp_path):
    config = tiny_config()
    run_experiment(config, out_dir=tmp_path / "serial",
                   save_checkpoints=False)
    run_experiment(config, out_dir=tmp_path / "par", workers=2,
                   save_checkpoints=False)
    for name in ("run_s000.csv", "run_s001.csv", "aggregate.csv",
                 "summary.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "par" / name).read_bytes(), name


# -- aggregation -------------------------------------------------------


def test_aggregate_rows_hand_oracle():
    rows_by_seed = {
        0: [(0, 10, 1.0, 1.0, 1, 1), (1, 5, 0.5, 1.0, 1, 0)],
        1: [(0, 20, 0.0, 1.0, 0, 0), (1, 8, 1.0, 1.0, 1, 1)],
    }
    per_episode, summary = aggregate_rows(rows_by_seed)
    ep0 = per_episode[0]
    assert ep0 == (0, 0.5, 0.5, 15.0, 5.0, 2)
    ep1 = per_episode[1]
    assert ep1[1] == pytest.approx(0.75)
    assert ep1[3] == pytest.approx(6.5)
    assert summary["n_runs"] == 2
    assert summary["success_rate"] == 1.0
    assert summary["episodes_to_first_goal_mean"] == pytest.approx(0.5)
    assert summary["episodes_to_first_goal_std"] == pytest.approx(0.5)


def test_aggregate_rows_no_successes():
    rows_by_seed = {0: [(0, 5, -1.0, 1.0, 0, 0)],
                    1: [(0, 5, -2.0, 1.0, 0, 0)]}
    _, summary = aggregate_rows(rows_by_seed)
    assert summary["success_rate"] == 0.0
    assert summary["episodes_to_first_goal_mean"] is None


def test_aggregate_rows_target_stop_extras():
    rows_by_seed = {
        0: [(0, 5, -1.0, 1.0, 0, 0), (1, 5, 0.2, 0.0, 1, 1),
            (2, 5, 0.4, 0.0, 1, 0)],
        1: [(0, 5, 0.0, 1.0, 0, 0), (1, 5, 0.1, 1.0, 1, 1),
            (2, 5, 0.3, 1.0, 1, 0)],
    }
    _, summary = aggregate_rows(rows_by_seed, target_stop=True)
    assert summary["times_target_reached"] == 1
    assert summary["episodes_to_target_mean"] == 1.0
    # the latched seed's post-target returns are 0.2 and 0.4
    assert summary["post_target_return_mean"] == pytest.approx(0.3)


def test_aggregate_directory_recomputes(tmp_path):
    config = tiny_config()
    run_experiment(config, out_dir=tmp_path / "out",
                   save_checkpoints=False)
    out = tmp_path / "out"
    original = (out / "summary.csv").read_bytes()
    (out / "summary.csv").unlink()
    (out / "aggregate.csv").unlink()
    summary = aggregate_directory(out)
    assert (out / "summary.csv").read_bytes() == original
    assert (out / "aggregate.csv").exists()
    assert summary["n_runs"] == 2


def test_aggregate_directory_errors(tmp_path):
    with pytest.raises(ConfigError,
                       match="config file not found: .*config.json"):
        aggregate_directory(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(tiny_dict()))
    with pytest.raises(ConfigError, match="no run CSVs"):
        aggregate_directory(tmp_path)


def test_aggregate_bad_run_csv_exits_2_naming_file(tmp_path, capsys):
    config = tiny_config()
    out = tmp_path / "out"
    run_experiment(config, out_dir=out, save_checkpoints=False)
    good = (out / "run_s000.csv").read_text()
    header = good.splitlines()[0] + "\n"
    first_row = good.splitlines()[1]
    broken = {
        "empty file": "",
        "wrong header": "a,b\n" + first_row + "\n",
        "header only beside a good run": header,
        "short row": header + ",".join(first_row.split(",")[:7]) + "\n",
        "non-numeric row": header + first_row.replace(",0,", ",zero,", 1)
        + "\n",
    }
    for case, text in broken.items():
        (out / "run_s001.csv").write_text(text)
        (out / "summary.csv").unlink(missing_ok=True)
        assert main(["aggregate", "--in", str(out)]) == 2, case
        assert "run_s001.csv" in capsys.readouterr().err, case
        assert not (out / "summary.csv").exists(), case

    # rows that do not fit one run (a missing episode, a changed seed)
    # would be averaged with other seeds' episodes of another index
    seed_1 = good.replace("tiny-s0,0,", "tiny-s1,1,").splitlines()
    misfits = {
        "line 3: episode 2, expected 1": [seed_1[0], seed_1[1], *seed_1[3:]],
        "line 2: episode 1, expected 0": [seed_1[0], *seed_1[2:]],
        "line 4: seed 7, but line 2 has seed 1": [
            *seed_1[:3], seed_1[3].replace(",1,", ",7,", 1), *seed_1[4:]],
    }
    for message, lines in misfits.items():
        (out / "run_s001.csv").write_text("\n".join(lines) + "\n")
        assert main(["aggregate", "--in", str(out)]) == 2, message
        err = capsys.readouterr().err
        assert f"run_s001.csv {message}" in err, err
        assert not (out / "summary.csv").exists(), message

    # so is a corrupt config.json, named with the real cause
    bad_params = dict(config.to_dict(), env={"name": "cliff",
                                             "params": ["abc"]})
    for text, cause in (("{bad", "is not valid JSON"),
                        ("[]", "must be a JSON object"),
                        ('{"n_seeds": 2}', "missing config key"),
                        (json.dumps(bad_params), "env params must be")):
        (out / "config.json").write_text(text)
        assert main(["aggregate", "--in", str(out)]) == 2, text
        err = capsys.readouterr().err
        assert "config.json" in err and cause in err, (text, err)
        assert not (out / "summary.csv").exists(), text
    (out / "config.json").write_text(json.dumps(config.to_dict()))

    # a file that is not UTF-8 text names itself too
    (out / "run_s001.csv").write_bytes(b"\xff" + good.encode())
    assert main(["aggregate", "--in", str(out)]) == 2
    assert "run_s001.csv" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()

    # two files of one seed (run_s*.csv matches a copy) must not merge
    # into one run; both are named
    (out / "run_s001.csv").write_text(good)
    (out / "run_s000 (copy).csv").write_text(good)
    assert main(["aggregate", "--in", str(out)]) == 2
    err = capsys.readouterr().err
    assert "run_s000 (copy).csv" in err and "run_s000.csv" in err, err
    assert not (out / "summary.csv").exists()
    (out / "run_s000 (copy).csv").unlink()

    # a lone header-only file must not aggregate to a one-run summary
    (out / "run_s000.csv").unlink()
    (out / "run_s001.csv").write_text(header)
    assert main(["aggregate", "--in", str(out)]) == 2
    assert "run_s001.csv" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


# -- checkpoints -------------------------------------------------------


def test_checkpoint_roundtrip_tabular(tmp_path):
    config = tiny_config(n_episodes=6)
    result, agent = run_single(config, 0)
    path = tmp_path / "ck.npz"
    save_checkpoint(agent, path, config)
    loaded, env = load_checkpoint(path)
    assert isinstance(loaded, ExplorationValuesAgent)
    assert isinstance(env, CliffEnv)
    assert env.spec.max_episode_steps == 60
    npt.assert_array_equal(loaded.q, agent.q)
    npt.assert_array_equal(loaded.u, agent.u)
    npt.assert_array_equal(loaded.counts, agent.counts)


def test_checkpoint_roundtrip_emuq(tmp_path):
    config = tiny_config(
        env={"name": "mountaincar", "params": {"max_episode_steps": 25}},
        agent={"kind": "emuq",
               "params": {"n_features": 32}},
        schedule={"variant": "constant", "params": {"kappa0": 0.1}},
        n_episodes=2)
    result, agent = run_single(config, 0)
    path = tmp_path / "ck.npz"
    save_checkpoint(agent, path, config)
    loaded, env = load_checkpoint(path)
    assert isinstance(loaded, EmuQ)
    npt.assert_array_equal(loaded.model.m, agent.model.m)
    npt.assert_array_equal(loaded.model.t, agent.model.t)
    probe = np.random.default_rng(5)
    states = probe.uniform(0, 1, size=(100, 2))
    actions = probe.uniform(-1, 1, size=(100, 1))
    npt.assert_array_equal(loaded.fmap.embed_pairs(states, actions),
                           agent.fmap.embed_pairs(states, actions))


def test_checkpoint_corrupt_and_incompatible(tmp_path):
    config = tiny_config()
    _, agent = run_single(config, 0)
    good = tmp_path / "good.npz"
    save_checkpoint(agent, good, config)

    clipped = tmp_path / "clipped.npz"
    clipped.write_bytes(good.read_bytes()[:100])
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(clipped)

    wrong_version = tmp_path / "wv.npz"
    np.savez(wrong_version, version=np.asarray(99),
             kind=np.asarray("explvalues"))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(wrong_version)

    missing = tmp_path / "missing.npz"
    np.savez(missing, version=np.asarray(CHECKPOINT_VERSION),
             config=np.asarray(json.dumps(config.to_dict())))
    with pytest.raises(CheckpointError, match="missing array"):
        load_checkpoint(missing)

    version_only = tmp_path / "version_only.npz"
    np.savez(version_only, version=np.asarray(CHECKPOINT_VERSION))
    with pytest.raises(CheckpointError, match="has no config entry"):
        load_checkpoint(version_only)
    assert main(["eval", "--checkpoint", str(version_only),
                 "--episodes", "1"]) == 2

    # a run CSV: np.load would try to unpickle it and advise allow_pickle
    run_csv = tmp_path / "run_s000.csv"
    run_csv.write_text(",".join(CSV_HEADER) + "\n0,0,0,12,-0.5,1,0,0\n")
    message = re.escape(f"{run_csv} is not a checkpoint (.npz) archive")
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(run_csv)
    assert main(["eval", "--checkpoint", str(run_csv),
                 "--episodes", "1"]) == 2

    with np.load(good) as data:
        arrays = dict(data)
    cliff = {"name": "cliff", "params": {"bogus": 1}}
    for name, raw, message in [
            ("env_params", dict(config.to_dict(), env=cliff),
             "bad config: bad env params"),
            ("kind", dict(config.to_dict(), agent={"kind": "dqn"}),
             "bad config: unknown agent kind"),
            ("not_an_object", [], "bad config: a config must be"),
            ("no_schedule", {k: v for k, v in config.to_dict().items()
                             if k != "schedule"},
             "bad config: missing config key: 'schedule'")]:
        bad = tmp_path / f"bad_{name}.npz"
        np.savez(bad, **{**arrays, "config": np.asarray(json.dumps(raw))})
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(bad)
        assert main(["eval", "--checkpoint", str(bad),
                     "--episodes", "1"]) == 2
    bad = tmp_path / "bad_json.npz"
    np.savez(bad, **{**arrays, "config": np.asarray("{not json")})
    with pytest.raises(CheckpointError, match="bad config"):
        load_checkpoint(bad)


def test_cli_eval_corrupt_checkpoint_member_exits_2(tmp_path, capsys):
    # np.load reads members lazily, so a flipped byte inside q.npy only
    # shows as a bad CRC once the agent reads its tables
    config = tiny_config()
    _, agent = run_single(config, 0)
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(agent, path, config)
    with zipfile.ZipFile(path) as archive:
        member = archive.getinfo("q.npy")
    raw = bytearray(path.read_bytes())
    # a local file header is 30 bytes, then the name and the extra field
    name_len, extra_len = np.frombuffer(
        raw, dtype="<u2", count=2, offset=member.header_offset + 26)
    data_start = member.header_offset + 30 + name_len + extra_len
    raw[data_start + member.compress_size - 3] ^= 0xFF     # array data
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="Bad CRC-32"):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "q.npy" in err, err

    single = tmp_path / "single.npy"
    np.save(single, np.zeros(3))
    assert main(["eval", "--checkpoint", str(single), "--episodes", "1"]) == 2
    assert "not a checkpoint" in capsys.readouterr().err


def test_checkpoint_stores_its_runs_config(tmp_path):
    # the config a run was given, replaced fields and all, is what the
    # checkpoint holds; load_checkpoint builds from it
    config = dataclasses.replace(
        tiny_config(env={"name": "taxi", "params": {}},
                    schedule={"variant": "target_stop",
                              "params": {"kappa0": 2.0, "n_eval": 3}}),
        experiment="replaced", n_episodes=3, n_seeds=5, base_seed=7)
    _, agent = run_single(config, 0)
    path = tmp_path / "ck.npz"
    save_checkpoint(agent, path, config)
    with np.load(path) as data:
        assert data["version"].item() == CHECKPOINT_VERSION == 4
        assert json.loads(str(data["config"])) == config.to_dict()
        assert set(data.files) == {"version", "config",
                                   *agent.state_arrays()}
    loaded, env = load_checkpoint(path)
    assert isinstance(env, TaxiEnv)
    npt.assert_array_equal(loaded.q, agent.q)


@pytest.fixture(scope="module")
def emuq_chain_checkpoint(tmp_path_factory):
    """Arrays of a 2-episode chain EmuQ checkpoint with 16 features."""
    config = tiny_config(
        env={"name": "chain", "params": {"n_states": 5, "vector_obs": True}},
        agent={"kind": "emuq", "params": {"n_features": 16}},
        n_episodes=2)
    _, agent = run_single(config, 0)
    path = tmp_path_factory.mktemp("emuq") / "good.npz"
    save_checkpoint(agent, path, config)
    with np.load(path) as data:
        return dict(data)


def with_params(section, params):
    """An edit of a saved config entry that sets ``section``'s params."""
    def edit(saved):
        raw = json.loads(str(saved))
        raw[section] = dict(raw[section], params=params)
        return np.asarray(json.dumps(raw))
    return edit


@pytest.mark.parametrize("key, edit, message", [
    ("config", with_params("env", {"n_states": 5}),
     "needs vector observations"),
    ("config", with_params("agent", {"n_features": 15}),
     "bad emuq agent params: n_features must be even"),
    ("config", with_params("agent", {"n_features": 14}),
     "array 'S' is float64 of shape (16, 16)"),
    ("S", lambda v: v[:8, :8], "array 'S' is float64 of shape (8, 8)"),
    ("m", lambda v: v[:8], "array 'm' is float64 of shape (8, 2)"),
    ("frequencies", lambda v: v[:, :4],
     "array 'frequencies' is float64 of shape (3, 4)"),
    ("config", with_params("agent", {"n_features": 16, "alpha": -1}),
     "bad emuq agent params: alpha"),
    ("newton_a", lambda v: v[:1], "array 'newton_a' is float64 of shape "
     "(1, 16, 16)"),
    ("newton_pattern", lambda v: v.astype(float),
     "array 'newton_pattern' is float64"),
    ("newton_pattern", lambda v: np.where(v == 1, 2, v),
     "array 'newton_pattern' holds -1 to 2; this agent needs -1 to 1"),
], ids=["index_chain", "n_features_15", "n_features_14", "S_8x8", "m_8_rows",
        "frequencies_4_columns", "negative_alpha", "newton_a_one_head",
        "newton_pattern_float", "newton_pattern_past_the_candidates"])
def test_emuq_checkpoint_corrupt_and_incompatible(tmp_path, capsys,
                                                  emuq_chain_checkpoint,
                                                  key, edit, message):
    # Each file was saved from a real run and then had its config or one
    # array changed; none may evaluate, and none may fail as a runtime error.
    arrays = dict(emuq_chain_checkpoint)
    arrays[key] = edit(arrays[key])
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(bad)
    assert main(["eval", "--checkpoint", str(bad), "--episodes", "1"]) == 2
    assert message in capsys.readouterr().err


def eval_lines(capsys, path):
    assert main(["eval", "--checkpoint", str(path), "--episodes", "3"]) == 0
    return capsys.readouterr().out.splitlines()


def older_emuq_arrays(arrays):
    """The five arrays older EmuQ checkpoints held besides today's."""
    rewards = arrays["rewards"]
    return {"n_observed": np.asarray(len(rewards)),
            "r_abs_max": np.asarray(max([1.0] + list(abs(rewards)))),
            "lengthscales": np.asarray([0.3, 1.0, 1.0]),
            "feature_scheme": np.asarray("quasi-random"),
            "feature_seed": np.asarray(12345)}


@pytest.mark.parametrize("extra", [
    older_emuq_arrays,
    lambda arrays: {"n_observed": np.asarray([1, 2])},
    lambda arrays: {"n_observed": np.asarray(-5)},
    lambda arrays: {"r_abs_max": np.asarray("x")},
    lambda arrays: {"feature_seed": np.asarray("x")},
], ids=["older_file", "n_observed_2_elements", "n_observed_negative",
        "r_abs_max_string", "feature_seed_string"])
def test_emuq_checkpoint_ignores_arrays_it_does_not_save(
        tmp_path, capsys, emuq_chain_checkpoint, extra):
    # Older files also held the store length, the largest reward
    # magnitude and the feature map's lengthscales, scheme and seed; all
    # follow from the ten arrays saved now, so none is read, whatever
    # it holds.
    arrays = emuq_chain_checkpoint
    assert set(arrays) == {
        "version", "config", "S", "m", "t", "frequencies", "phi_rows",
        "rewards", "next_obs", "absorbing", "newton_a", "newton_pattern"}
    good = tmp_path / "good.npz"
    np.savez(good, **arrays)
    padded = tmp_path / "padded.npz"
    np.savez(padded, **arrays, **extra(arrays))
    assert eval_lines(capsys, padded) == eval_lines(capsys, good)


def test_checkpoint_version_1_rejected(tmp_path, capsys):
    # version-1 files held no EmuQ transition store, so they cannot resume
    config = tiny_config()
    _, agent = run_single(config, 0)
    good = tmp_path / "good.npz"
    save_checkpoint(agent, good, config)
    with np.load(good) as data:
        arrays = dict(data)
    arrays["version"] = np.asarray(1)
    old = tmp_path / "v1.npz"
    np.savez(old, **arrays)
    with pytest.raises(CheckpointError, match="version 1 unsupported"):
        load_checkpoint(old)
    assert main(["eval", "--checkpoint", str(old),
                 "--episodes", "1"]) == 2
    assert "version 1" in capsys.readouterr().err


def test_checkpoint_version_2_rejected(tmp_path, capsys):
    # version-2 files held the env and agent fields without the schedule
    # or run counts; there is no second reader for them
    config = tiny_config()
    _, agent = run_single(config, 0)
    old = tmp_path / "v2.npz"
    np.savez(old, version=np.asarray(2),
             kind=np.asarray(config.agent_kind),
             env_name=np.asarray(config.env_name),
             env_params=np.asarray(json.dumps(config.env_params)),
             agent_params=np.asarray(json.dumps(config.agent_params)),
             **agent.state_arrays())
    message = "checkpoint version 2 unsupported (expected 4)"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(old)
    assert main(["eval", "--checkpoint", str(old),
                 "--episodes", "1"]) == 2
    assert message in capsys.readouterr().err


def test_checkpoint_version_3_rejected(tmp_path, capsys):
    # version-3 EmuQ files held no re-solve matrices, so a resumed agent
    # would rebuild them and round differently from one never stopped
    config = tiny_config(
        env={"name": "chain", "params": {"n_states": 5, "vector_obs": True}},
        agent={"kind": "emuq", "params": {"n_features": 16}},
        n_episodes=2)
    _, agent = run_single(config, 0)
    arrays = {name: array for name, array in agent.state_arrays().items()
              if not name.startswith("newton_")}
    old = tmp_path / "v3.npz"
    np.savez(old, version=np.asarray(3),
             config=np.asarray(json.dumps(config.to_dict())), **arrays)
    message = "checkpoint version 3 unsupported (expected 4)"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(old)
    assert main(["eval", "--checkpoint", str(old),
                 "--episodes", "1"]) == 2
    assert message in capsys.readouterr().err


def taxi_checkpoint(tmp_path, edit):
    """A taxi explvalues checkpoint whose tables went through ``edit``."""
    config = tiny_config(env={"name": "taxi", "params": {}}, n_episodes=2)
    _, agent = run_single(config, 0)
    path = tmp_path / "ck.npz"
    save_checkpoint(agent, path, config)
    with np.load(path) as data:
        arrays = dict(data)
    for name in ExplorationValuesAgent.TABLES:
        arrays[name] = edit(name, arrays[name])
    np.savez(path, **arrays)
    return path


@pytest.mark.parametrize("cut, shape", [
    (lambda table: table[:, :5], "(500, 5)"),
    (lambda table: table[:400], "(400, 6)"),
], ids=["5_columns", "400_rows"])
def test_checkpoint_tables_of_the_wrong_shape_rejected(tmp_path, capsys,
                                                       cut, shape):
    # Read through flat views, a cut table would be scored at the wrong
    # cells; eval must refuse it instead.
    path = taxi_checkpoint(tmp_path, lambda name, table: cut(table))
    with pytest.raises(CheckpointError,
                       match=re.escape(f"table 'q' is float64 of shape "
                                       f"{shape}")):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--episodes", "5"]) == 2
    assert "table 'q'" in capsys.readouterr().err


@pytest.mark.parametrize("bad, dtype", [("q", np.int64), ("u", np.int64),
                                        ("counts", np.float64)])
def test_checkpoint_tables_of_the_wrong_dtype_kind_rejected(tmp_path, bad,
                                                            dtype):
    path = taxi_checkpoint(tmp_path, lambda name, table:
                           table.astype(dtype) if name == bad else table)
    with pytest.raises(CheckpointError,
                       match=f"table '{bad}' is {np.dtype(dtype)} "):
        load_checkpoint(path)


def assert_checkpoint_resumes_emuq_training(tmp_path, config_name,
                                            n_episodes):
    """N episodes, save, load, one more episode must equal N + 1 episodes
    without the interruption: the re-solve needs the whole store and
    each head's carried matrix."""
    config = dataclasses.replace(
        load_config(CONFIG_DIR / f"{config_name}.json"),
        n_episodes=n_episodes)
    env_rng, agent_rng, _ = seed_streams(config.base_seed, 0)
    env = make_env(config.env_name, **config.env_params)
    agent = make_agent(config, env, agent_rng)
    kappa = config.schedule_params["kappa0"]
    for _ in range(config.n_episodes):
        run_episode(env, agent, env_rng, agent_rng, kappa=kappa)
    path = tmp_path / "ck.npz"
    save_checkpoint(agent, path, config)
    loaded, loaded_env = load_checkpoint(path)
    n_saved = len(agent.state_arrays()["phi_rows"])
    assert len(loaded.state_arrays()["phi_rows"]) == n_saved > 0
    assert loaded._r_abs_max == agent._r_abs_max

    run_episode(loaded_env, loaded, copy.deepcopy(env_rng),
                copy.deepcopy(agent_rng), kappa=kappa)
    run_episode(env, agent, env_rng, agent_rng, kappa=kappa)
    npt.assert_array_equal(loaded.model.m, agent.model.m)
    npt.assert_array_equal(loaded.model.t, agent.model.t)
    # the loaded store was full at n_saved rows, so this episode grew it
    resumed, straight = loaded.state_arrays(), agent.state_arrays()
    assert len(straight["rewards"]) > n_saved
    for name in ("phi_rows", "rewards", "next_obs", "absorbing"):
        assert resumed[name].dtype == straight[name].dtype, name
        npt.assert_array_equal(resumed[name], straight[name])
    for name in ("newton_a", "newton_pattern"):
        npt.assert_array_equal(resumed[name], straight[name], err_msg=name)


def test_checkpoint_resumes_emuq_training(tmp_path):
    assert_checkpoint_resumes_emuq_training(tmp_path,
                                            "chain_emuq_scaling_n10", 10)


def test_checkpoint_resumes_continuous_emuq_training(tmp_path):
    assert_checkpoint_resumes_emuq_training(tmp_path, "mountaincar_emuq", 3)


def test_checkpoint_empty_emuq_store_roundtrip(tmp_path):
    config = tiny_config(
        env={"name": "chain", "params": {"n_states": 5, "vector_obs": True}},
        agent={"kind": "emuq", "params": {"n_features": 16}})
    agent = make_agent(config, make_env("chain", n_states=5, vector_obs=True),
                       np.random.default_rng(0))
    path = tmp_path / "ck.npz"
    save_checkpoint(agent, path, config)
    with np.load(path) as data:
        assert data["phi_rows"].shape == (0, 16)
        assert data["next_obs"].shape == (0, 1)
    loaded, _ = load_checkpoint(path)
    store = loaded.state_arrays()
    assert store["phi_rows"].shape == (0, 16)
    assert store["next_obs"].shape == (0, 1)
    assert store["rewards"].shape == store["absorbing"].shape == (0,)
    assert loaded._r_abs_max == 1.0


def python_in_src(code, *args):
    """stdout words of ``code`` run in a fresh interpreter on src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
        env=env, capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_package_root_imports_no_submodule():
    # exval's API is its submodules: the package root only names itself.
    code = """
        import sys
        import exval
        print([name for name in sys.modules if name.startswith("exval.")])
        print([name for name in vars(exval) if not name.startswith("__")])
        print(exval.__version__)
    """
    assert python_in_src(code) == ["[]", "[]", "0.1.0"]


def test_bench_import_loads_no_process_pool():
    # the process pool, and the multiprocessing it loads, are imported
    # only by runs with more than one worker
    code = """
        import sys
        import exval.bench
        print(sorted(name for name in sys.modules
                     if name.split(".")[0] in ("concurrent",
                                               "multiprocessing")))
    """
    assert python_in_src(code) == ["[]"]


@pytest.mark.parametrize("case", ["emuq_build", "mountaincar_run",
                                  "emuq_checkpoint_load", "tabular_run"])
def test_runs_load_no_scipy(case, tmp_path):
    # Feature maps, the Bayesian model and the tabular agents are numpy
    # only: building an agent as perfbench's set-up probe does, a run, and
    # loading and evaluating a checkpoint load no scipy module.
    config_path = CONFIG_DIR / ("taxi_explvalues_target_stop.json"
                                if case == "tabular_run"
                                else "mountaincar_emuq.json")
    if case == "emuq_checkpoint_load":
        config = tiny_config(
            env={"name": "mountaincar", "params": {"max_episode_steps": 25}},
            agent={"kind": "emuq", "params": {"n_features": 32}},
            schedule={"variant": "constant", "params": {"kappa0": 0.1}},
            n_episodes=1)
        _, agent = run_single(config, 0)
        config_path = tmp_path / "ck.npz"
        save_checkpoint(agent, config_path, config)
    code = """
        import dataclasses
        import sys
        from exval.bench import load_config, make_agent, run_single
        from exval.cli import main
        from exval.core import seed_streams
        from exval.envs import make_env
        case, path = sys.argv[1:]
        if case == "emuq_checkpoint_load":
            main(["eval", "--checkpoint", path, "--episodes", "1"])
        else:
            config = load_config(path)
            if case == "emuq_build":
                _, agent_rng, _ = seed_streams(config.base_seed, 0)
                env = make_env(config.env_name, **config.env_params)
                agent = make_agent(config, env, agent_rng)
            else:
                _, agent = run_single(
                    dataclasses.replace(config, n_episodes=2), 0)
            print(type(agent).__name__)
        print(sorted(name for name in sys.modules
                     if name.split(".")[0] == "scipy"))
    """
    words = python_in_src(code, case, config_path)
    assert words[-1] == "[]", words
    assert words[0] == {"emuq_checkpoint_load": "episodes:",
                        "tabular_run": "ExplorationValuesAgent"}.get(
                            case, "EmuQ")


# -- CLI ---------------------------------------------------------------


def test_cli_run_and_aggregate(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny_dict()))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--no-checkpoints"])
    assert code == 0
    assert "tiny: 2 runs" in capsys.readouterr().out
    assert (out / "summary.csv").exists()

    code = main(["aggregate", "--in", str(out)])
    assert code == 0
    assert "success_rate" in capsys.readouterr().out

    # EmuQ runs also report how many re-solves stopped at the cap
    emuq = tiny_dict(
        experiment="tiny_emuq",
        env={"name": "mountaincar", "params": {"max_episode_steps": 25}},
        agent={"kind": "emuq",
               "params": {"n_features": 16}},
        schedule={"variant": "constant", "params": {"kappa0": 0.1}},
        n_episodes=3)
    cfg_path.write_text(json.dumps(emuq))
    assert main(["run", "--config", str(cfg_path), "--out",
                 str(tmp_path / "emuq"), "--no-checkpoints"]) == 0
    printed = capsys.readouterr().out
    config = ExperimentConfig.from_dict(emuq)
    capped = 0
    for seed in range(config.n_seeds):
        _, agent = run_single(config, seed)
        capped += sum(not h[f"converged_{k}"]
                      and h[f"iters_{k}"] == SWEEP_MAX_ITERS
                      for h in agent.sweep_history for k in "qu")
    found = re.search(r"(\d+) of (\d+) re-solves hit the iteration cap",
                      printed)
    assert found, printed
    assert (int(found[1]), int(found[2])) == (capped, 2 * 2 * 3)
    assert "violations" not in printed
    meta = json.loads((tmp_path / "emuq" / "meta.json").read_text())
    assert meta["agent_stats"]["0"]["resolves"] == 6
    assert meta["agent_stats"]["0"]["posterior_violations"] == 0
    assert "sweeps_converged" not in meta["agent_stats"]["0"]


def test_cli_run_line_counts_invariant_violations(tmp_path, capsys,
                                                  monkeypatch):
    run_stats = EmuQ.run_stats

    def violating_stats(agent):
        return {**run_stats(agent), "re_range_violations": 2,
                "var_violations": 3, "posterior_violations": 1}

    monkeypatch.setattr(EmuQ, "run_stats", violating_stats)
    cfg_path = tmp_path / "emuq.json"
    cfg_path.write_text(json.dumps(tiny_dict(
        env={"name": "mountaincar", "params": {"max_episode_steps": 5}},
        agent={"kind": "emuq", "params": {"n_features": 16}},
        n_episodes=1)))
    assert main(["run", "--config", str(cfg_path), "--out",
                 str(tmp_path / "out"), "--no-checkpoints"]) == 0
    printed = capsys.readouterr().out
    assert printed.rstrip().endswith(
        "re-solves hit the iteration cap; 4 re_range_violations; "
        "6 var_violations; 2 posterior_violations)"), printed


def test_cli_seed_override(tmp_path, capsys):
    # config.json records the seed count that ran, so aggregating the
    # directory again rewrites the same summaries
    config_path = CONFIG_DIR / "cliff_explvalues_budget30.json"
    assert load_config(config_path).n_seeds == 20
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out),
                 "--seeds", "1", "--no-checkpoints"])
    assert code == 0
    capsys.readouterr()
    assert json.loads((out / "config.json").read_text())["n_seeds"] == 1
    assert sorted(p.name for p in out.glob("run_s*.csv")) == ["run_s000.csv"]
    written = {name: (out / name).read_bytes()
               for name in ("aggregate.csv", "summary.csv")}
    assert main(["aggregate", "--in", str(out)]) == 0
    capsys.readouterr()
    for name, data in written.items():
        assert (out / name).read_bytes() == data, name


def test_emuq_meta_without_exploration_rewards_is_valid_json(tmp_path):
    # every episode frozen: no r_e is emitted, so its range is null
    config = tiny_config(
        env={"name": "mountaincar", "params": {"max_episode_steps": 5}},
        agent={"kind": "emuq", "params": {"n_features": 16}},
        schedule={"variant": "budget_stop",
                  "params": {"kappa0": 1.0, "budget": 0}},
        n_episodes=2, n_seeds=1)
    run_experiment(config, out_dir=tmp_path, save_checkpoints=False)

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    meta = json.loads((tmp_path / "meta.json").read_text(),
                      parse_constant=reject)
    stats = meta["agent_stats"]["0"]
    assert stats["re_count"] == 0
    assert stats["re_min"] is None and stats["re_max"] is None


def test_cli_eval_checkpoint(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny_dict()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out",
                 str(out)]) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out / "checkpoint_s000.npz"),
                 "--episodes", "3"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "mean_return:" in printed
    assert "episodes: 3" in printed


def test_cli_bad_values_exit_2(tmp_path, capsys):
    emuq_car = {"name": "mountaincar", "params": {"max_episode_steps": 5}}
    cases = {
        "empty experiment": ({"experiment": ""}, "experiment must"),
        "null experiment": ({"experiment": None}, "experiment must"),
        "number experiment": ({"experiment": 5}, "experiment must"),
        "experiment outside the results root": (
            {"experiment": "../escape"}, "experiment must"),
        "experiment .": ({"experiment": "."}, "experiment must"),
        "experiment holding NUL": ({"experiment": "a\0b"}, "experiment must"),
        "n_episodes": ({"n_episodes": "ten"}, "bad run counts"),
        "fractional n_episodes": ({"n_episodes": 2.7}, "bad run counts"),
        "bool n_seeds": ({"n_seeds": True}, "bad run counts"),
        "fractional base_seed": ({"base_seed": 0.5}, "bad run counts"),
        "string base_seed": ({"base_seed": "0"}, "bad run counts"),
        "negative base_seed": ({"base_seed": -1}, "base_seed must be >= 0"),
        "list agent kind": (
            {"agent": {"kind": ["emuq"], "params": {}}},
            "agent kind must be a string, got ['emuq']"),
        "number env name": (
            {"env": {"name": 5, "params": {}}},
            "env name must be a string, got 5"),
        "list schedule variant": (
            {"schedule": {"variant": ["constant"],
                          "params": {"kappa0": 1.0}}},
            "schedule variant must be a string, got ['constant']"),
        "list env params": (
            {"env": {"name": "chain", "params": ["abc"]}},
            "env params must be an object"),
        "number schedule params": (
            {"schedule": {"variant": "constant", "params": 5}},
            "schedule params must be an object"),
        "chain n_states": (
            {"env": {"name": "chain", "params": {"n_states": 1}}},
            "bad env params: chain needs at least 2 states"),
        "chain fractional n_states": (
            {"env": {"name": "chain", "params": {"n_states": 5.5}}},
            "bad env params: n_states must be a whole number"),
        "chain bool semi_sparse_p": (
            {"env": {"name": "chain",
                     "params": {"n_states": 5, "semi_sparse_p": True}}},
            "bad env params: semi_sparse_p must be a finite number"),
        "chain string vector_obs": (
            {"env": {"name": "chain",
                     "params": {"n_states": 5, "vector_obs": "false"}}},
            "bad env params: vector_obs must be true or false"),
        "cliff height is not a param": (
            {"env": {"name": "cliff", "params": {"height": 4}}},
            "unexpected keyword argument 'height'"),
        "bool max_episode_steps": (
            {"env": {"name": "cliff", "params": {"max_episode_steps": True}}},
            "bad env params: max_episode_steps must be a whole number"),
        "fractional max_episode_steps": (
            {"env": {"name": "cliff", "params": {"max_episode_steps": 2.5}}},
            "bad env params: max_episode_steps must be a whole number"),
        "string max_episode_steps": (
            {"env": {"name": "taxi", "params": {"max_episode_steps": "20"}}},
            "bad env params: max_episode_steps must be a whole number"),
        "mountaincar max_episode_steps 0": (
            {"env": {"name": "mountaincar",
                     "params": {"max_episode_steps": 0}},
             "agent": {"kind": "emuq", "params": {}}},
            "bad env params: max_episode_steps must be >= 1"),
        "cliff slip_prob": (
            {"env": {"name": "cliff", "params": {"slip_prob": 2.0}}},
            "bad env params: slip_prob"),
        "emuq alpha": (
            {"env": emuq_car,
             "agent": {"kind": "emuq", "params": {"alpha": 0}}},
            "bad emuq agent params: alpha"),
        "emuq bool gamma": (
            {"env": emuq_car,
             "agent": {"kind": "emuq", "params": {"gamma": True}}},
            "bad emuq agent params: gamma must be a finite number"),
        "explvalues bool lr": (
            {"agent": {"kind": "explvalues", "params": {"lr": True}}},
            "bad explvalues agent params: lr must be a finite number"),
        "explvalues string gamma": (
            {"agent": {"kind": "explvalues", "params": {"gamma": "0.99"}}},
            "bad explvalues agent params: gamma must be a finite number"),
        "explvalues gamma 1.5": (
            {"agent": {"kind": "explvalues", "params": {"gamma": 1.5}}},
            "bad explvalues agent params: gamma must lie in [0, 1]"),
        "explvalues lr 5": (
            {"agent": {"kind": "explvalues", "params": {"lr": 5}}},
            "bad explvalues agent params: lr must lie in (0, 1]"),
        "explvalues lr 0": (
            {"agent": {"kind": "explvalues", "params": {"lr": 0}}},
            "bad explvalues agent params: lr must lie in (0, 1]"),
        "epsilon_greedy epsilon 2": (
            {"agent": {"kind": "epsilon_greedy", "params": {"epsilon": 2}}},
            "bad epsilon_greedy agent params: epsilon must lie in [0, 1]"),
        "emuq gamma 1.5": (
            {"env": emuq_car,
             "agent": {"kind": "emuq", "params": {"gamma": 1.5}}},
            "bad emuq agent params: gamma must lie in [0, 1]"),
        "bool kappa0": (
            {"schedule": {"variant": "constant", "params": {"kappa0": True}}},
            "bad schedule spec: kappa0 must be a finite number"),
        "cliff NaN reward_scale": (
            {"env": {"name": "cliff", "params": {"reward_scale": np.nan}}},
            "bad env params: reward_scale must be a finite number"),
        "emuq odd n_features": (
            {"env": emuq_car,
             "agent": {"kind": "emuq", "params": {"n_features": 33}}},
            "bad emuq agent params: n_features must be even"),
        "emuq n_features 0": (
            {"env": emuq_car,
             "agent": {"kind": "emuq", "params": {"n_features": 0}}},
            "bad emuq agent params: n_features must be even"),
        "emuq lengthscale_state -0.3": (
            {"env": emuq_car,
             "agent": {"kind": "emuq",
                       "params": {"lengthscale_state": -0.3}}},
            "bad emuq agent params: lengthscale_state must be > 0"),
        "emuq lengthscale_action 0": (
            {"env": emuq_car,
             "agent": {"kind": "emuq",
                       "params": {"lengthscale_action": 0}}},
            "bad emuq agent params: lengthscale_action must be > 0"),
        "taxi max_episode_steps 0": (
            {"env": {"name": "taxi", "params": {"max_episode_steps": 0}}},
            "bad env params: max_episode_steps must be >= 1"),
        "emuq on taxi": (
            {"env": {"name": "taxi", "params": {}},
             "agent": {"kind": "emuq", "params": {}}},
            "needs vector observations"),
        "emuq on an index chain": (
            {"env": {"name": "chain", "params": {"n_states": 5}},
             "agent": {"kind": "emuq", "params": {}}},
            "needs vector observations"),
        "target_stop kappa0 0": (
            {"schedule": {"variant": "target_stop",
                          "params": {"kappa0": 0.0}}},
            "bad schedule spec: kappa0 must not be 0 with target_stop"),
        "target_stop n_eval 0": (
            {"schedule": {"variant": "target_stop",
                          "params": {"kappa0": 1.0, "n_eval": 0}}},
            "bad schedule spec: n_eval must be >= 1"),
        "target_stop n_eval -2": (
            {"schedule": {"variant": "target_stop",
                          "params": {"kappa0": 1.0, "n_eval": -2}}},
            "bad schedule spec: n_eval must be >= 1"),
        "target_stop n_eval 2.5": (
            {"schedule": {"variant": "target_stop",
                          "params": {"kappa0": 1.0, "n_eval": 2.5}}},
            "bad schedule spec: n_eval must be a whole number"),
        "decay c -1": (
            {"schedule": {"variant": "decay", "params": {"c": -1}}},
            "bad schedule spec: c must be >= 0"),
        "budget 2.7": (
            {"schedule": {"variant": "budget_stop",
                          "params": {"kappa0": 1.0, "budget": 2.7}}},
            "bad schedule spec: budget must be a whole number"),
        "budget true": (
            {"schedule": {"variant": "budget_stop",
                          "params": {"kappa0": 1.0, "budget": True}}},
            "bad schedule spec: budget must be a whole number"),
        "stop_at 1.5": (
            {"schedule": {"variant": "stop_resume",
                          "params": {"kappa0": 1.0, "stop_at": 1.5,
                                     "resume_at": 3}}},
            "bad schedule spec: stop_at must be a whole number"),
        "resume_at 3.5": (
            {"schedule": {"variant": "stop_resume",
                          "params": {"kappa0": 1.0, "stop_at": 1,
                                     "resume_at": 3.5}}},
            "bad schedule spec: resume_at must be a whole number"),
    }
    for case, (over, message) in cases.items():
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(tiny_dict(**over)))
        code = main(["run", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out"), "--no-checkpoints"])
        err = capsys.readouterr().err
        assert code == 2, (case, err)
        assert err.startswith("error: ") and message in err, (case, err)
        assert not (tmp_path / "out").exists(), case


def test_cli_run_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys,
                                                        monkeypatch):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny_dict()))
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    # an empty --out is not read as no --out, which would write results/
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EXVAL_RESULTS_DIR", raising=False)
    for out, message in ((afile, f"cannot make results directory {afile}: "),
                         (afile / "sub", "cannot make results directory "
                                         f"{afile / 'sub'}: "),
                         ("", "--out must name a directory, got ''")):
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: {message}"), err
        assert afile.read_text() == "keep\n"
        assert sorted(tmp_path.iterdir()) == [afile, cfg_path]


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(tiny_dict(agent={"kind": "dqn"})))
    assert main(["run", "--config", str(cfg_path)]) == 2
    capsys.readouterr()
    assert main(["aggregate", "--in", str(tmp_path)]) == 2
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "none.npz"),
                 "--episodes", "1"]) == 2
    capsys.readouterr()
    config = tiny_config()
    _, agent = run_single(config, 0)
    good = tmp_path / "good.npz"
    save_checkpoint(agent, good, config)
    assert main(["eval", "--checkpoint", str(good), "--episodes", "1",
                 "--seed", "-1"]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err

    # a config path that cannot be read or decoded is named
    bad_utf8 = tmp_path / "bad_utf8.json"
    bad_utf8.write_bytes(json.dumps(tiny_dict()).encode()[:-1] + b"\xff}")
    for path in (tmp_path, bad_utf8):
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2, path
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err, err
        assert not (tmp_path / "out").exists()

    # a version that is not a whole number is bad input, never cut
    with np.load(good) as data:
        arrays = dict(data)
    for version in ("x", [2, 2], 2.5, True, 3.5):
        bad = tmp_path / "bad.npz"
        np.savez(bad, **{**arrays, "version": np.asarray(version)})
        with pytest.raises(CheckpointError, match="bad version entry"):
            load_checkpoint(bad)
        assert main(["eval", "--checkpoint", str(bad),
                     "--episodes", "1"]) == 2, version
        assert "bad version entry" in capsys.readouterr().err, version
