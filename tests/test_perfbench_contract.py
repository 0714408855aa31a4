"""The benchmark harness under perfbench/ still runs against the package.

perfbench installs wrappers on named functions and methods of exval and
reads attributes of its agents and feature maps.  A rename or removal
that breaks those hooks should fail here, not only when the benchmark
runs.  Both of its round kinds run on trimmed copies of its configs.
"""

import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("worker")


def trimmed_configs():
    from exval.bench import load_config

    configs = []
    for stem in ("mountaincar_emuq", "taxi_explvalues_target_stop"):
        config = load_config(PERFBENCH.parent / "configs" / f"{stem}.json")
        configs.append(dataclasses.replace(
            config, n_seeds=1, n_episodes=2,
            env_params={**config.env_params, "max_episode_steps": 20}))
    return configs


def test_checked_and_traced_rounds_run(worker, tmp_path):
    configs = trimmed_configs()
    runs, train_steps, problems = worker.checked_round(
        configs, tmp_path / "checked", seed=0)
    assert len(runs) == 2 and train_steps > 0
    # The a07 guarantee (goal within 6 episodes) cannot be met in 2
    # episodes of 20 steps; every other check must pass.
    assert problems == ["mountaincar_emuq: 0 of 1 seeds reach the goal "
                        "with kappa > 0, need 1"]
    # perfbench reads sweep_history by name and counts a missing one as no
    # re-solve, so the EmuQ record must show both episodes' re-solves.
    (emuq_run,) = [run for run in runs
                   if run["experiment"] == "mountaincar_emuq"]
    episodes = worker.checks.read_runs(tmp_path / "checked"
                                       / "mountaincar_emuq", 1)[0]
    assert emuq_run["resolves"] == 4 and emuq_run["iters"] >= 4
    assert emuq_run["store_rows"] == sum(ep[1] for ep in episodes) > 0

    _, runs, layers, _ = worker.traced_round(configs, tmp_path / "traced",
                                             probe=None)
    assert len(runs) == 2
    assert layers["core.train.env_steps"] == train_steps
    assert layers["emuq.end_episode.calls"] == 2


def test_hooked_signatures_are_unchanged():
    # perfbench's recording wrappers call these with the arguments named
    # here, and its tracer wraps features.sample_rff by module attribute.
    from exval import bayes, emuq, features

    def params(func):
        return list(inspect.signature(func).parameters)

    assert params(bayes.BayesianLinearModel.observe) == ["self", "phi", "y"]
    assert params(bayes.BayesianLinearModel.centered_quadratic) == [
        "self", "phi"]
    assert params(emuq.EmuQ.exploration_reward) == [
        "self", "obs_next", "rng"]
    assert params(features.sample_rff) == [
        "lengthscales", "n_spectral", "scheme", "seed"]
    assert bayes.BayesianLinearModel(4).n_features == 4
