"""Experiment orchestration tests: config validation, deterministic runs,
CSV round trips, aggregation arithmetic, checkpoints, and the CLI."""

import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from exval.bench import (CHECKPOINT_VERSION, CSV_HEADER, CheckpointError,
                         ConfigError,
                         ExperimentConfig, aggregate_directory,
                         aggregate_rows, format_float, load_checkpoint,
                         load_config, make_agent, read_run_csv,
                         resolve_out_dir, run_experiment, run_rows_to_csv,
                         run_single, save_checkpoint)
from exval.cli import main
from exval.core import run_episode, seed_streams
from exval.emuq import SWEEP_MAX_ITERS, EmuQ
from exval.envs import CliffEnv, MountainCarEnv, make_env
from exval.schedules import make_schedule
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
    # kappa comes from the schedule; scheme, sweep_tol and sweep_max_iters
    # are fixed in emuq.py
    for key in ("bogus", "kappa", "scheme", "sweep_tol", "sweep_max_iters"):
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
        env = make_env(config.env_name, **config.env_params)
        make_agent(config, env, np.random.default_rng(0))
        make_schedule(config.schedule_variant, **config.schedule_params)


# -- single runs -------------------------------------------------------


def test_run_single_deterministic_in_config_and_seed():
    config = tiny_config()
    a = run_single(config, 0)
    b = run_single(config, 0)
    assert a.rows == b.rows
    c = run_single(config, 1)
    assert c.rows != a.rows
    assert len(a.rows) == 4
    # row layout: episode, steps, return, kappa, reached, first
    episodes = [row[0] for row in a.rows]
    assert episodes == [0, 1, 2, 3]
    assert all(row[3] == 1.0 for row in a.rows)


def test_run_single_first_goal_flag_once():
    config = tiny_config(n_episodes=8)
    result = run_single(config, 0)
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
    result = run_single(config, 0)
    # the absurdly low target latches after the first evaluation round
    assert result.latched_at == 0
    assert [row[3] for row in result.rows] == [1.0, 0.0, 0.0]


def test_run_single_budget_stop_freezes_learning():
    config = tiny_config(
        n_episodes=4,
        schedule={"variant": "budget_stop",
                  "params": {"kappa0": 1.0, "budget": 2}})
    _, agent = run_single(config, 0, keep_agent=True)
    q_after = agent.q.copy()
    counts_after = agent.counts.copy()
    # replay the frozen tail: tables must be exactly what episode 2 saw
    config_short = tiny_config(
        n_episodes=2,
        schedule={"variant": "budget_stop",
                  "params": {"kappa0": 1.0, "budget": 2}})
    _, agent_short = run_single(config_short, 0, keep_agent=True)
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
    result = run_single(config, 1)
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
    with_out = tiny_config(out=str(tmp_path / "cfg"))
    assert resolve_out_dir(with_out) == tmp_path / "cfg"
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


def test_run_experiment_seed_override_and_no_checkpoints(tmp_path):
    config = tiny_config()
    results = run_experiment(config, out_dir=tmp_path / "out", n_seeds=1,
                             save_checkpoints=False)
    assert len(results) == 1
    out = tmp_path / "out"
    assert (out / "run_s000.csv").exists()
    assert not (out / "run_s001.csv").exists()
    assert not list(out.glob("checkpoint_*.npz"))


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
    with pytest.raises(ConfigError, match="no config.json"):
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

    # a lone header-only file must not aggregate to a one-run summary
    (out / "run_s000.csv").unlink()
    (out / "run_s001.csv").write_text(header)
    assert main(["aggregate", "--in", str(out)]) == 2
    assert "run_s001.csv" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


# -- checkpoints -------------------------------------------------------


def test_checkpoint_roundtrip_tabular(tmp_path):
    config = tiny_config(n_episodes=6)
    result, agent = run_single(config, 0, keep_agent=True)
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
               "params": {"n_features": 32, "n_action_candidates": 8,
                          "n_expectation_samples": 4,
                          "n_sweep_candidates": 4}},
        schedule={"variant": "constant", "params": {"kappa0": 0.1}},
        n_episodes=2)
    result, agent = run_single(config, 0, keep_agent=True)
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
    _, agent = run_single(config, 0, keep_agent=True)
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
             kind=np.asarray("epsilon_greedy"),
             env_name=np.asarray("cliff"),
             env_params=np.asarray("{}"),
             agent_params=np.asarray("{}"))
    with pytest.raises(CheckpointError, match="missing array"):
        load_checkpoint(missing)

    version_only = tmp_path / "version_only.npz"
    np.savez(version_only, version=np.asarray(CHECKPOINT_VERSION))
    with pytest.raises(CheckpointError,
                       match="missing kind, env_name, env_params, "
                             "agent_params"):
        load_checkpoint(version_only)
    assert main(["eval", "--checkpoint", str(version_only),
                 "--episodes", "1"]) == 2

    with np.load(good) as data:
        arrays = dict(data)
    for key, value, message in [("env_params", json.dumps({"bogus": 1}),
                                 "bad metadata"),
                                ("kind", "dqn", "unknown agent kind")]:
        bad = tmp_path / f"bad_{key}.npz"
        np.savez(bad, **{**arrays, key: np.asarray(value)})
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(bad)
        assert main(["eval", "--checkpoint", str(bad),
                     "--episodes", "1"]) == 2


def test_checkpoint_version_1_rejected(tmp_path, capsys):
    # version-1 files held no EmuQ transition store, so they cannot resume
    config = tiny_config()
    _, agent = run_single(config, 0, keep_agent=True)
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


def test_checkpoint_resumes_emuq_training(tmp_path):
    # N episodes, save, load, one more episode must equal N + 1 episodes
    # without the interruption: the re-solve needs the whole store.
    config = dataclasses.replace(
        load_config(CONFIG_DIR / "chain_emuq_scaling_n10.json"),
        n_episodes=10)
    env_rng, agent_rng, _ = seed_streams(config.base_seed, 0)
    env = make_env(config.env_name, **config.env_params)
    agent = make_agent(config, env, agent_rng)
    kappa = config.schedule_params["kappa0"]
    for _ in range(config.n_episodes):
        run_episode(env, agent, env_rng, agent_rng, kappa=kappa)
    path = tmp_path / "ck.npz"
    save_checkpoint(agent, path, config)
    loaded, loaded_env = load_checkpoint(path)
    assert len(loaded._phi_rows) == len(agent._phi_rows) > 0
    assert loaded._r_abs_max == agent._r_abs_max

    run_episode(loaded_env, loaded, copy.deepcopy(env_rng),
                copy.deepcopy(agent_rng), kappa=kappa)
    run_episode(env, agent, env_rng, agent_rng, kappa=kappa)
    npt.assert_array_equal(loaded.model.m, agent.model.m)
    npt.assert_array_equal(loaded.model.t, agent.model.t)


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
    assert loaded._phi_rows == [] and loaded._next_obs == []
    assert loaded._rewards == [] and loaded._absorbing == []
    assert loaded._r_abs_max == 1.0


def test_tabular_agents_do_not_import_scipy_stats():
    # scipy.stats costs most of a second to import; only quasi-random
    # feature maps need it.
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import exval
        from exval.bench import load_config, make_agent
        from exval.envs import make_env
        config = load_config(sys.argv[1])
        env = make_env(config.env_name, **config.env_params)
        agent = make_agent(config, env, np.random.default_rng(0))
        print(type(agent).__name__, "scipy.stats" in sys.modules)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
    done = subprocess.run(
        [sys.executable, "-c", code,
         str(CONFIG_DIR / "taxi_explvalues_target_stop.json")],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["ExplorationValuesAgent", "False"]


def test_emuq_checkpoint_load_does_not_import_scipy_stats(tmp_path):
    # Loading restores the saved feature map; drawing a fresh quasi-random
    # one first would import scipy.stats for a map that is thrown away.
    config = tiny_config(
        env={"name": "mountaincar", "params": {"max_episode_steps": 25}},
        agent={"kind": "emuq",
               "params": {"n_features": 32, "n_action_candidates": 8,
                          "n_expectation_samples": 4,
                          "n_sweep_candidates": 4}},
        schedule={"variant": "constant", "params": {"kappa0": 0.1}},
        n_episodes=1)
    _, agent = run_single(config, 0, keep_agent=True)
    path = tmp_path / "ck.npz"
    save_checkpoint(agent, path, config)
    code = textwrap.dedent("""
        import sys
        from exval.bench import load_checkpoint
        agent, env = load_checkpoint(sys.argv[1])
        print(type(agent).__name__, agent.fmap.n_features,
              "scipy.stats" in sys.modules)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
    done = subprocess.run([sys.executable, "-c", code, str(path)],
                          env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.split() == ["EmuQ", "32", "False"]


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
               "params": {"n_features": 16, "n_action_candidates": 4,
                          "n_expectation_samples": 4,
                          "n_sweep_candidates": 4}},
        schedule={"variant": "constant", "params": {"kappa0": 0.1}},
        n_episodes=3)
    cfg_path.write_text(json.dumps(emuq))
    assert main(["run", "--config", str(cfg_path), "--out",
                 str(tmp_path / "emuq"), "--no-checkpoints"]) == 0
    printed = capsys.readouterr().out
    config = ExperimentConfig.from_dict(emuq)
    capped = 0
    for seed in range(config.n_seeds):
        _, agent = run_single(config, seed, keep_agent=True)
        capped += sum(not h[f"converged_{k}"]
                      and h[f"iters_{k}"] == SWEEP_MAX_ITERS
                      for h in agent.sweep_history for k in "qu")
    found = re.search(r"(\d+) of (\d+) re-solves hit the iteration cap",
                      printed)
    assert found, printed
    assert (int(found[1]), int(found[2])) == (capped, 2 * 2 * 3)
    meta = json.loads((tmp_path / "emuq" / "meta.json").read_text())
    assert meta["agent_stats"]["0"]["resolves"] == 6
    assert "sweeps_converged" not in meta["agent_stats"]["0"]


def test_cli_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny_dict()))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--seeds", "1", "--no-checkpoints"])
    assert code == 0
    capsys.readouterr()
    assert (out / "run_s000.csv").exists()
    assert not (out / "run_s001.csv").exists()


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
        "n_episodes": ({"n_episodes": "ten"}, "bad run counts"),
        "fractional n_episodes": ({"n_episodes": 2.7}, "bad run counts"),
        "bool n_seeds": ({"n_seeds": True}, "bad run counts"),
        "fractional base_seed": ({"base_seed": 0.5}, "bad run counts"),
        "string base_seed": ({"base_seed": "0"}, "bad run counts"),
        "list env params": (
            {"env": {"name": "chain", "params": ["abc"]}},
            "env params must be an object"),
        "number schedule params": (
            {"schedule": {"variant": "constant", "params": 5}},
            "schedule params must be an object"),
        "chain n_states": (
            {"env": {"name": "chain", "params": {"n_states": 1}}},
            "bad env params: chain needs at least 2 states"),
        "cliff slip_prob": (
            {"env": {"name": "cliff", "params": {"slip_prob": 2.0}}},
            "bad env params: slip_prob"),
        "emuq alpha": (
            {"env": emuq_car,
             "agent": {"kind": "emuq", "params": {"alpha": 0}}},
            "bad emuq agent params: alpha"),
        "emuq odd n_features": (
            {"env": emuq_car,
             "agent": {"kind": "emuq", "params": {"n_features": 33}}},
            "bad emuq agent params: n_features must be even"),
        "emuq on taxi": (
            {"env": {"name": "taxi", "params": {}},
             "agent": {"kind": "emuq", "params": {}}},
            "needs vector observations"),
        "emuq on an index chain": (
            {"env": {"name": "chain", "params": {"n_states": 5}},
             "agent": {"kind": "emuq", "params": {}}},
            "needs vector observations"),
    }
    for case, (over, message) in cases.items():
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(tiny_dict(**over)))
        code = main(["run", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out"), "--no-checkpoints"])
        err = capsys.readouterr().err
        assert code == 2, (case, err)
        assert err.startswith("error: ") and message in err, (case, err)


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
