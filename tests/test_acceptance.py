"""Acceptance suite: one test per shipped guarantee.

Run with -v to get one pass/fail line per guarantee.  The expensive
artifacts (chain scaling runs, semi-sparse sweeps, mountain-car
discovery runs) are computed once in module fixtures; the invariant
audit reuses the exact runs the behavioral guarantees were scored on.
"""

import dataclasses
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from exval.bayes import BayesianLinearModel
from exval.bench import (load_config, make_agent, run_experiment,
                         run_single)
from exval.core import run_episode, seed_streams
from exval.emuq import EmuQ, EmuqConfig
from exval.envs import make_env
from exval.features import (MONTE_CARLO, QUASI_RANDOM, kernel_exact,
                            rff_embed, sample_rff)
from exval.schedules import (BudgetStop, DecayKappa, TargetStop,
                             make_schedule)
from exval.tabular import EpsilonGreedyAgent, greedy_action

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

EMUQ_CHAIN = dict(gamma=0.99, alpha=0.1, beta=1.0, n_features=128,
                  lengthscale_state=0.05, lengthscale_action=0.6)
EMUQ_MC = dict(gamma=0.99, alpha=0.1, beta=1.0, n_features=300,
               lengthscale_state=0.3, lengthscale_action=10.0)


def emuq_stats(agent):
    """Invariant counters of one run, kept for the audit in a08."""
    return {"re_min": agent.re_min, "re_max": agent.re_max,
            "re_count": agent.re_count,
            "re_violations": agent.re_range_violations,
            "var_max": agent.var_max_seen,
            "var_violations": agent.var_violations,
            "v_max": agent.v_max}


def run_chain_emuq(n_states, seed, semi_sparse_p=None, n_episodes=40):
    env = make_env("chain", n_states=n_states, vector_obs=True,
                   max_episode_steps=250, semi_sparse_p=semi_sparse_p)
    env_rng, agent_rng, _ = seed_streams(0, seed)
    agent = EmuQ(env.spec, EmuqConfig(**EMUQ_CHAIN), agent_rng)
    steps = 0
    for _ in range(n_episodes):
        log = run_episode(env, agent, env_rng, agent_rng, kappa=0.1)
        steps += log.steps
        if log.reached_goal:
            return steps, agent
    return None, agent


def run_chain_eps_greedy(n_states, seed, budget=30000):
    env = make_env("chain", n_states=n_states, max_episode_steps=250)
    env_rng, agent_rng, _ = seed_streams(0, seed)
    agent = EpsilonGreedyAgent(n_states, 2, epsilon=0.1, lr=0.1,
                               gamma=0.99)
    steps = 0
    while steps < budget:
        log = run_episode(env, agent, env_rng, agent_rng, kappa=0.0)
        steps += log.steps
        if log.reached_goal:
            return steps
    return budget


@pytest.fixture(scope="module")
def chain_scaling():
    t0 = perf_counter()
    steps, stats = {}, []
    for n in (10, 20, 40):
        per_seed = []
        for seed in range(10):
            s, agent = run_chain_emuq(n, seed)
            per_seed.append(s)
            stats.append(emuq_stats(agent))
        steps[n] = per_seed
    eps_steps = [run_chain_eps_greedy(40, seed) for seed in range(10)]
    return {"steps": steps, "eps_steps": eps_steps, "stats": stats,
            "elapsed": perf_counter() - t0}


@pytest.fixture(scope="module")
def semi_sparse():
    t0 = perf_counter()
    steps, stats = {}, []
    for p in (0.0, 0.5, 1.0):
        per_seed = []
        for seed in range(100):
            s, agent = run_chain_emuq(10, seed, semi_sparse_p=p)
            per_seed.append(s)
            stats.append(emuq_stats(agent))
        steps[p] = per_seed
    return {"steps": steps, "stats": stats,
            "elapsed": perf_counter() - t0}


@pytest.fixture(scope="module")
def mountaincar_discovery():
    t0 = perf_counter()

    def first_goal_episode(seed, kappa):
        env = make_env("mountaincar")
        env_rng, agent_rng, _ = seed_streams(0, seed)
        agent = EmuQ(env.spec, EmuqConfig(**EMUQ_MC), agent_rng)
        for ep in range(10):
            log = run_episode(env, agent, env_rng, agent_rng, kappa=kappa)
            if log.reached_goal:
                return ep + 1, agent
        return None, agent

    hits, ablation_hits, stats = [], [], []
    for seed in range(10):
        ep, agent = first_goal_episode(seed, kappa=0.1)
        hits.append(ep)
        stats.append(emuq_stats(agent))
    for seed in range(10):
        ep, agent = first_goal_episode(seed, kappa=0.0)
        ablation_hits.append(ep)
        stats.append(emuq_stats(agent))
    return {"hits": hits, "ablation_hits": ablation_hits, "stats": stats,
            "elapsed": perf_counter() - t0}


@pytest.fixture(scope="module")
def taxi_target_stop():
    t0 = perf_counter()

    def run_variant(config_name):
        config = load_config(CONFIG_DIR / config_name)
        latched, post_means = [], []
        for seed in range(20):
            result, _ = run_single(config, seed)
            latched.append(result.latched_at is not None)
            post = [row[2] for row in result.rows if row[3] == 0.0]
            post_means.append(float(np.mean(post)) if post else None)
        return {"latched": latched, "post": post_means}

    return {
        "explvalues": run_variant("taxi_explvalues_target_stop.json"),
        "additive": run_variant("taxi_additive_target_stop.json"),
        "elapsed": perf_counter() - t0,
    }


def test_a01_incremental_posterior_matches_direct_solution():
    t0 = perf_counter()
    rng = np.random.default_rng(0)
    M, alpha, beta = 50, 0.1, 1.0
    Phi = rng.standard_normal((500, M))
    Phi /= np.linalg.norm(Phi, axis=1, keepdims=True)   # embedding-norm rows
    r = rng.standard_normal(500)
    model = BayesianLinearModel(M, alpha=alpha, beta=beta)
    # every transition absorbs and gamma = 0, so targets are raw rewards
    for phi, reward in zip(Phi, r):
        model.observe(phi, reward)
    S_direct = np.linalg.inv(alpha * np.eye(M) + beta * Phi.T @ Phi)
    assert np.max(np.abs(model.S - S_direct)) <= 1e-8
    m_ridge = np.linalg.solve(alpha * np.eye(M) + beta * Phi.T @ Phi,
                              beta * Phi.T @ r)
    assert np.max(np.abs(model.m[:, 0] - m_ridge)) <= 1e-6
    assert perf_counter() - t0 < 5.0


def test_a02_fourier_feature_kernel_error():
    t0 = perf_counter()
    d, ls = 3, 0.3
    pair_rng = np.random.default_rng(7)
    X = pair_rng.uniform(-1, 1, size=(200, d))
    Y = pair_rng.uniform(-1, 1, size=(200, d))
    k_true = np.array([kernel_exact(x, y, ls) for x, y in zip(X, Y)])

    def mean_error(n_feat, scheme, seed):
        fmap = sample_rff(np.full(d, ls), n_feat // 2, scheme, seed)
        k_hat = np.einsum("ij,ij->i", rff_embed(X, fmap),
                          rff_embed(Y, fmap))
        return float(np.mean(np.abs(k_hat - k_true)))

    errors = {scheme: {n_feat: np.mean([mean_error(n_feat, scheme, s)
                                        for s in range(10)])
                       for n_feat in (100, 400, 2000)}
              for scheme in (MONTE_CARLO, QUASI_RANDOM)}
    for scheme, errs in errors.items():
        assert errs[2000] <= 0.05, (scheme, errs)
        assert errs[100] > errs[400] > errs[2000], (scheme, errs)
    assert errors[QUASI_RANDOM][400] <= errors[MONTE_CARLO][400]
    assert perf_counter() - t0 < 30.0


def test_a03_chain_scaling_and_random_walk_gap(chain_scaling):
    for n, per_seed in chain_scaling["steps"].items():
        assert all(s is not None for s in per_seed), (n, per_seed)
        assert np.mean(per_seed) <= 60 * n, (n, per_seed)
    emuq_40 = np.mean(chain_scaling["steps"][40])
    eps_40 = np.mean(chain_scaling["eps_steps"])
    assert eps_40 >= 5 * emuq_40, (eps_40, emuq_40)
    assert chain_scaling["elapsed"] < 300.0


def test_a04_semi_sparse_insensitivity(semi_sparse):
    means = {}
    for p, per_seed in semi_sparse["steps"].items():
        assert all(s is not None for s in per_seed), p
        means[p] = np.mean(per_seed)
    assert max(means.values()) / min(means.values()) <= 3.0, means
    assert semi_sparse["elapsed"] < 300.0


def test_a05_taxi_target_stop_contrast(taxi_target_stop):
    expl = taxi_target_stop["explvalues"]
    add = taxi_target_stop["additive"]
    assert sum(expl["latched"]) >= 16, expl          # >= 80% of 20 runs
    reached = [m for m in expl["post"] if m is not None]
    assert np.mean(reached) >= 0.0, reached
    # paired per seed; a run that never stops exploring scores -inf
    lower = sum((b if b is not None else -np.inf)
                < (a if a is not None else -np.inf)
                for a, b in zip(expl["post"], add["post"]))
    assert lower >= 16, (expl, add)
    assert taxi_target_stop["elapsed"] < 600.0


def test_a06_cliff_budget_stop_purity():
    t0 = perf_counter()
    config = load_config(CONFIG_DIR / "cliff_explvalues_budget30.json")
    env = make_env(config.env_name, **config.env_params)
    env_rng, agent_rng, _ = seed_streams(config.base_seed, 0)
    agent = make_agent(config, env, agent_rng)
    schedule = make_schedule(config.schedule_variant,
                             **config.schedule_params)
    taken = []
    act = agent.act

    def recording_act(obs, kappa, rng):
        action = act(obs, kappa, rng)
        taken.append((obs, action))
        return action

    agent.act = recording_act
    returns = []
    post_actions = 0
    mismatches = 0
    for ep in range(config.n_episodes):
        kappa = schedule.kappa_at(ep)
        frozen = schedule.frozen_at(ep)
        taken.clear()
        log = run_episode(env, agent, env_rng, agent_rng, kappa=kappa,
                          learn=not frozen)
        returns.append(log.return_undiscounted)
        if frozen:       # tables are static now, so compare against them
            for state, action in taken:
                post_actions += 1
                if action != greedy_action(agent.q[state]):
                    mismatches += 1
    budget = config.schedule_params["budget"]
    pre_best = max(np.mean(returns[i:i + 5])
                   for i in range(budget - 4))
    post_mean = np.mean(returns[budget:budget + 20])
    assert post_mean >= pre_best - 0.1, (post_mean, pre_best)
    assert post_actions > 0 and mismatches == 0, (post_actions, mismatches)
    assert perf_counter() - t0 < 120.0


def test_a07_mountaincar_goal_discovery(mountaincar_discovery):
    hits = mountaincar_discovery["hits"]
    successes = [h for h in hits if h is not None]
    assert len(successes) >= 8, hits
    assert statistics.median(successes) <= 6, hits
    ablation = mountaincar_discovery["ablation_hits"]
    assert sum(h is not None for h in ablation) <= 2, ablation
    assert mountaincar_discovery["elapsed"] < 600.0


def test_a08_variance_reward_invariants(chain_scaling, semi_sparse,
                                        mountaincar_discovery):
    all_stats = (chain_scaling["stats"] + semi_sparse["stats"]
                 + mountaincar_discovery["stats"])
    assert len(all_stats) == 30 + 300 + 20
    for st in all_stats:
        assert st["re_violations"] == 0, st
        assert st["var_violations"] == 0, st
        assert st["re_count"] > 0
        assert -st["v_max"] <= st["re_min"] <= st["re_max"] <= 0.0, st
        assert st["var_max"] <= st["v_max"] + 1e-9, st
    # a model that has seen nothing reports exactly zero reward-to-learn
    env = make_env("mountaincar")
    fresh = EmuQ(env.spec, EmuqConfig(**EMUQ_MC), np.random.default_rng(0))
    r_e = fresh.exploration_reward(np.array([0.5, 0.5]),
                                   np.random.default_rng(1))
    assert r_e == 0.0


def test_a09_kappa_schedule_formulas():
    t0 = perf_counter()
    for c in (1e-5, 1e-3, 0.1, 1.0, 1e5):
        assert DecayKappa(c).kappa_at(0) == 1.0
    assert DecayKappa(0.1).kappa_at(10) == pytest.approx(0.5)
    for budget in (1, 30, 100):
        sched = BudgetStop(1.0, budget)
        assert all(sched.kappa_at(ep) == 1.0 for ep in range(budget))
        assert all(sched.kappa_at(ep) == 0.0
                   for ep in range(budget, budget + 200))
    latch = TargetStop(1.0, target=0.1, n_eval=5)
    latch.note_eval([0.2] * 5, episode=3)
    assert latch.latched and latch.latched_at == 3
    latch.note_eval([-5.0] * 50, episode=4)
    assert latch.latched
    assert latch.kappa_at(10 ** 6) == 0.0
    assert perf_counter() - t0 < 1.0


def test_a10_config_rerun_bit_identical(tmp_path):
    cases = [("cliff_explvalues_budget30.json", 3),
             ("chain_emuq_scaling_n10.json", 2)]
    for name, n_seeds in cases:
        config = dataclasses.replace(load_config(CONFIG_DIR / name),
                                     n_seeds=n_seeds)
        out_a = tmp_path / (config.experiment + "_first")
        out_b = tmp_path / (config.experiment + "_again")
        run_experiment(config, out_dir=out_a, save_checkpoints=False)
        run_experiment(config, out_dir=out_b, workers=2,
                       save_checkpoints=False)
        names_a = sorted(p.name for p in out_a.glob("*.csv"))
        assert names_a == sorted(p.name for p in out_b.glob("*.csv"))
        assert len(names_a) == n_seeds + 2    # runs + aggregate + summary
        for f in names_a:
            assert (out_a / f).read_bytes() == (out_b / f).read_bytes(), \
                (name, f)
