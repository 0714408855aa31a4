"""Tests for the two-head value agent with variance-driven exploration.

Vectorized fast paths (pair value matrices, moment-matrix exploration
rewards) are checked against brute-force loops over explicit embeddings;
exploration-reward values against hand-computed posteriors on stub
feature maps.
"""

from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from exval.bayes import BayesianLinearModel, exact_posterior
from exval.bench import load_config, make_agent
from exval.core import EnvSpec, Transition, run_episode, seed_streams
from exval.emuq import (NEWTON_STEPS, SWEEP_TOL, EmuQ, EmuqConfig,
                        pair_value_matrix, v_max)
from exval.envs import ChainEnv, MountainCarEnv, make_env
from exval.features import make_joint_map


def test_v_max_forms():
    assert v_max(0.1, 1.0) == 10.0
    assert v_max(0.5, 4.0) == 0.5
    with pytest.raises(ValueError):
        v_max(0.0, 1.0)
    with pytest.raises(ValueError):
        v_max(1.0, -1.0)


@pytest.mark.parametrize("discrete", [True, False])
def test_pair_value_matrix_matches_explicit_embeddings(discrete):
    rng = np.random.default_rng(0)
    if discrete:
        fmap = make_joint_map(2, 0.4, n_features=32, seed=3, n_actions=3,
                              lengthscale_action=0.7)
        actions = np.arange(3)
    else:
        fmap = make_joint_map(2, 0.4, n_features=32, seed=3,
                              action_low=[-1.0], action_high=[1.0],
                              lengthscale_action=0.7)
        actions = rng.uniform(-1, 1, size=(5, 1))
    states = rng.uniform(0, 1, size=(7, 2))
    m = rng.standard_normal(32)

    proj_s = fmap.state_projection(states)
    proj_a = fmap.action_projection(actions)
    got = pair_value_matrix(np.cos(proj_s), np.sin(proj_s),
                            np.cos(proj_a), np.sin(proj_a), m,
                            1.0 / np.sqrt(fmap.n_spectral))

    want = np.array([[fmap.embed(s, a) @ m for a in actions]
                     for s in states])
    npt.assert_allclose(got, want, atol=1e-12)


# -- stub feature maps for exact-value tests ---------------------------


class IdentityPairMap:
    """phi(s, a) = e_a regardless of state; n_features unit vectors."""

    def __init__(self, n):
        self._eye = np.eye(n)

    def embed_pairs(self, states, actions):
        idx = np.asarray(actions, dtype=int).reshape(-1)
        return self._eye[idx]


class LinearActionMap:
    """phi(s, a) = [a, 1] for a scalar action."""

    def embed_pairs(self, states, actions):
        a = np.asarray(actions, dtype=float).reshape(-1)
        return np.column_stack([a, np.ones_like(a)])


def discrete_spec(n_actions=2):
    return EnvSpec(state_dim=1, max_episode_steps=100, n_actions=n_actions)


def test_fresh_agent_exploration_reward_is_exact_zero():
    cfg = EmuqConfig(alpha=0.001, beta=1.0, n_features=64,
                     n_expectation_samples=8)
    agent = EmuQ(discrete_spec(), cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    assert agent.exploration_reward(np.array([0.3]), rng) == 0.0
    assert not agent.model.m.any()    # every (Q, U) mean is exactly 0
    assert agent.re_count == 1 and agent.re_min == 0.0


def test_exploration_reward_hand_posterior():
    # Two actions on identity features, alpha = beta = 1 (V_max = 1).
    # After observing e_0 once, S_00 = 1/2 and S_11 = 1, so the variance
    # averaged over both actions is 3/4 and r_e = 3/4 - 1 = -1/4 exactly.
    cfg = EmuqConfig(alpha=1.0, beta=1.0, n_features=4)
    agent = EmuQ(discrete_spec(), cfg, np.random.default_rng(0))
    agent.fmap = IdentityPairMap(4)
    agent.model = BayesianLinearModel(4, 1.0, 1.0, n_heads=2)
    agent.model.observe(np.eye(4)[0], [0.0, 0.0])
    rng = np.random.default_rng(2)
    assert agent.exploration_reward(np.array([0.0]), rng) == -0.25
    assert agent.re_min == -0.25 and agent.re_max == -0.25
    assert agent.re_range_violations == 0


def box_spec(low=-2.0, high=2.0):
    return EnvSpec(state_dim=1, max_episode_steps=100,
                   action_low=np.array([low]), action_high=np.array([high]))


def test_act_balances_heads_and_reaches_endpoints():
    # Q(a) = a and U(a) = -a on stub features: exploitation drives to the
    # upper action bound, enough exploration weight flips to the lower.
    cfg = EmuqConfig(n_features=2, n_action_candidates=20)
    agent = EmuQ(box_spec(), cfg, np.random.default_rng(0))
    agent.fmap = LinearActionMap()
    agent.model = BayesianLinearModel(2, 1.0, 1.0, n_heads=2)
    agent.model.m = np.array([[1.0, -1.0], [0.0, 0.0]])
    rng = np.random.default_rng(3)
    npt.assert_array_equal(agent.act(np.array([0.0]), 0.0, rng), [2.0])
    npt.assert_array_equal(agent.act(np.array([0.0]), 2.0, rng), [-2.0])


def test_act_discrete_first_index_on_ties():
    cfg = EmuqConfig(n_features=16)
    agent = EmuQ(discrete_spec(4), cfg, np.random.default_rng(0))
    rng = np.random.default_rng(4)
    # fresh model scores every action 0, so the tie goes to action 0
    assert agent.act(np.array([0.5]), 1.0, rng) == 0


def test_boot_bounds_arithmetic():
    cfg = EmuqConfig(gamma=0.5, alpha=1.0, beta=1.0, n_features=4)
    agent = EmuQ(discrete_spec(), cfg, np.random.default_rng(0))
    (q_lo, q_hi), (u_lo, u_hi) = agent._boot_bounds()
    assert (q_lo, q_hi) == (-2.0, 2.0)       # |r| floor 1, 1/(1-gamma) = 2
    assert (u_lo, u_hi) == (-2.0, 0.0)       # V_max = 1
    agent._r_abs_max = 3.0
    assert agent._boot_bounds()[0] == (-6.0, 6.0)
    cfg_undiscounted = EmuqConfig(gamma=1.0, n_features=4)
    agent2 = EmuQ(discrete_spec(), cfg_undiscounted,
                  np.random.default_rng(0))
    assert agent2._boot_bounds() == ((-np.inf, np.inf), (-np.inf, 0.0))


def make_clip_agent(gamma):
    cfg = EmuqConfig(gamma=gamma, alpha=1.0, beta=1.0, n_features=4)
    agent = EmuQ(discrete_spec(), cfg, np.random.default_rng(0))
    agent.fmap = IdentityPairMap(4)
    agent.model = BayesianLinearModel(4, 1.0, 1.0, n_heads=2)
    # absurd weights so the raw bootstrap sits far outside the
    # attainable range
    agent.model.m = np.full((4, 2), 50.0)
    return agent


def test_observe_projects_bootstrap_to_attainable_range():
    agent = make_clip_agent(gamma=0.5)
    tr = Transition(state=np.array([0.0]), action=0, reward=0.0,
                    next_state=np.array([0.0]), absorbing=False)
    agent.observe(tr, 1.0, np.random.default_rng(5))
    # Q bootstrap 50 clipped to q_hi = 2, U bootstrap 50 clipped to 0:
    # targets become [0 + 0.5 * 2, 0 + 0.5 * 0]
    assert agent.model.t[0, 0] == 1.0
    assert agent.model.t[0, 1] == 0.0


def test_observe_no_projection_without_discounting():
    agent = make_clip_agent(gamma=1.0)
    tr = Transition(state=np.array([0.0]), action=0, reward=0.0,
                    next_state=np.array([0.0]), absorbing=False)
    agent.observe(tr, 1.0, np.random.default_rng(5))
    # no finite attainable range at gamma = 1, so the raw value stands
    assert agent.model.t[0, 0] == 50.0


def test_observe_absorbing_zeroes_bootstrap_and_tracks_reward_scale():
    agent = make_clip_agent(gamma=0.5)
    tr = Transition(state=np.array([0.0]), action=1, reward=-3.0,
                    next_state=np.array([0.0]), absorbing=True)
    agent.observe(tr, 1.0, np.random.default_rng(6))
    assert agent._r_abs_max == 3.0
    # absorbing: target is the raw reward, no bootstrap at all
    assert agent.model.t[1, 0] == -3.0


def mc_setup(run_seed=7, episodes=1, cap=40):
    env = MountainCarEnv(max_episode_steps=cap)
    cfg = EmuqConfig(gamma=0.99, alpha=0.1, beta=1.0, n_features=64,
                     lengthscale_state=0.3, lengthscale_action=10.0,
                     n_action_candidates=16, n_expectation_samples=8,
                     n_sweep_candidates=8)
    env_rng, agent_rng, _ = seed_streams(0, run_seed)
    agent = EmuQ(env.spec, cfg, agent_rng)
    logs = [run_episode(env, agent, env_rng, agent_rng, kappa=0.1)
            for _ in range(episodes)]
    return env, agent, agent_rng, logs


def test_observe_stores_transition_rows():
    env, agent, rng, logs = mc_setup()
    n = logs[0].steps
    assert len(agent._phi_rows) == n
    assert len(agent._rewards) == len(agent._next_obs) == n
    assert len(agent._absorbing) == n
    assert agent.model.n_observed == n
    assert agent.re_count >= n


def test_invariant_monitors_stay_clean():
    env, agent, rng, logs = mc_setup(episodes=3)
    assert agent.re_range_violations == 0
    assert agent.var_violations == 0
    assert -agent.v_max <= agent.re_min <= agent.re_max <= 0.0
    assert agent.var_max_seen <= agent.v_max + 1e-9


def test_visited_region_has_lower_exploration_reward():
    env, agent, rng, logs = mc_setup(episodes=2)
    near = agent.exploration_reward(agent._next_obs[0], rng)
    far = agent.exploration_reward(np.array([1.0, 1.0]), rng)
    assert near < far <= 0.0


def test_recompute_exploration_rewards_matches_brute_force():
    env, agent, rng, logs = mc_setup()
    next_states = np.vstack(agent._next_obs)
    proj = agent.fmap.state_projection(next_states)

    got = agent._recompute_exploration_rewards(
        np.cos(proj), np.sin(proj), np.random.default_rng(11))

    # same candidate draw, then one plain loop per state
    actions = agent._candidates(np.random.default_rng(11),
                                agent.config.n_expectation_samples,
                                endpoints=False)
    want = []
    for ns in agent._next_obs:
        phi = agent._pair_features(ns, actions)
        centered = agent.model.centered_quadratic(phi)
        want.append(np.clip(np.mean(centered) / agent.config.beta,
                            -agent.v_max, 0.0))
    npt.assert_allclose(got, want, atol=1e-9)


def test_sweep_bookkeeping_and_consistency():
    env, agent, rng, logs = mc_setup(episodes=2)
    assert len(agent.sweep_history) == 2
    assert agent.sweep_history[0]["n"] == logs[0].steps
    assert agent.sweep_history[1]["n"] == logs[0].steps + logs[1].steps
    # set_targets ties the mean to the covariance and running targets
    npt.assert_array_equal(agent.model.m, agent.model.S @ agent.model.t)


def test_learning_stays_finite_under_weak_prior():
    # A nearly flat prior amplifies bootstrapped targets; the value-range
    # projection must keep everything finite anyway.
    env = MountainCarEnv(max_episode_steps=60)
    cfg = EmuqConfig(gamma=0.99, alpha=1e-3, beta=1.0, n_features=64,
                     lengthscale_state=0.3, lengthscale_action=0.3,
                     n_action_candidates=16, n_expectation_samples=8,
                     n_sweep_candidates=8)
    env_rng, agent_rng, _ = seed_streams(0, 1)
    agent = EmuQ(env.spec, cfg, agent_rng)
    for _ in range(3):
        run_episode(env, agent, env_rng, agent_rng, kappa=cfg.v_max)
    assert np.isfinite(agent.model.m).all()
    assert np.isfinite(agent.model.t).all()
    assert np.isfinite(agent.model.S).all()
    for entry in agent.sweep_history:
        assert isinstance(entry["converged_q"], bool)
        assert isinstance(entry["converged_u"], bool)


def test_identical_seeds_learn_identically():
    m1 = mc_setup(run_seed=9, episodes=2)[1].model.m
    m2 = mc_setup(run_seed=9, episodes=2)[1].model.m
    npt.assert_array_equal(m1, m2)
    m3 = mc_setup(run_seed=10, episodes=2)[1].model.m
    assert np.any(m3 != m1)


def test_discrete_agent_on_chain():
    env = ChainEnv(8, vector_obs=True, max_episode_steps=50)
    cfg = EmuqConfig(gamma=0.99, alpha=0.1, beta=1.0, n_features=64,
                     lengthscale_state=0.1, lengthscale_action=0.6,
                     n_expectation_samples=8, n_sweep_candidates=8)
    env_rng, agent_rng, _ = seed_streams(0, 0)
    agent = EmuQ(env.spec, cfg, agent_rng)
    actions = []
    act = agent.act

    def recording_act(obs, kappa, rng):
        action = act(obs, kappa, rng)
        actions.append(action)
        return action

    agent.act = recording_act
    log = run_episode(env, agent, env_rng, agent_rng, kappa=0.1)
    assert len(actions) >= log.steps > 0
    assert all(a in (0, 1) for a in actions)
    assert agent.model.m.shape == (64, 2)
    assert np.isfinite(agent.model.m).all()


def test_state_arrays_roundtrip_bitwise():
    env, agent, rng, logs = mc_setup(episodes=2)
    arrays = {k: np.array(v) for k, v in agent.state_arrays().items()}

    cfg = agent.config
    fresh = EmuQ(env.spec, cfg, np.random.default_rng(999))
    assert np.any(fresh.fmap.rff.frequencies != agent.fmap.rff.frequencies)
    fresh.load_state_arrays(arrays)

    npt.assert_array_equal(fresh.fmap.rff.frequencies,
                           agent.fmap.rff.frequencies)
    npt.assert_array_equal(fresh.model.S, agent.model.S)
    npt.assert_array_equal(fresh.model.m, agent.model.m)
    npt.assert_array_equal(fresh.model.t, agent.model.t)
    probe = np.random.default_rng(12)
    states = probe.uniform(0, 1, size=(50, 2))
    actions = probe.uniform(-1, 1, size=(50, 1))
    npt.assert_array_equal(fresh.fmap.embed_pairs(states, actions),
                           agent.fmap.embed_pairs(states, actions))


# -- episode-end re-solve ----------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def record_resolves(agent):
    """Keep, for every episode-end re-solve, what its fixed-point map
    depends on: both candidate draws, the covariance, the weight means
    before and after, and the bootstrap bounds."""
    records, draws = [], []
    candidates, sweep = agent._candidates, agent._sweep

    def recording_candidates(rng, n, endpoints):
        draws.append(candidates(rng, n, endpoints))
        return draws[-1]

    def recording_sweep(kappa, rng):
        draws.clear()
        m_before = agent.model.m.copy()
        sweep(kappa, rng)
        sweep_actions, expectation_actions = draws
        records.append({
            "kappa": kappa, "n": len(agent._rewards),
            "actions": sweep_actions,
            "expectation_actions": expectation_actions,
            "S": agent.model.S.copy(), "m_before": m_before,
            "m": agent.model.m.copy(), "bounds": agent._boot_bounds(),
            "history": agent.sweep_history[-1]})

    agent._candidates = recording_candidates
    agent._sweep = recording_sweep
    return records


def resolve_residuals(agent, rec):
    """max |T(m) - m| for the Q and U heads at a re-solve's result, with
    the map T rebuilt by brute force from the stored transitions."""
    c, n = agent.config, rec["n"]
    Phi = np.vstack(agent._phi_rows[:n])
    rewards = np.asarray(agent._rewards[:n])
    absorbing = np.asarray(agent._absorbing[:n])
    next_obs = np.vstack(agent._next_obs[:n])

    def embed_all(actions):
        for k in range(len(actions)):
            yield agent.fmap.embed_pairs(
                next_obs, np.repeat(actions[k:k + 1], n, axis=0))

    def values(m):
        return np.column_stack([phi @ m
                                for phi in embed_all(rec["actions"])])

    C = rec["S"] - np.eye(len(rec["S"])) / c.alpha
    quad = [np.einsum("ij,ij->i", phi @ C, phi)
            for phi in embed_all(rec["expectation_actions"])]
    r_e = np.clip(np.mean(quad, axis=0) / c.beta, -agent.v_max, 0.0)

    def T(targets, m, values_other, weight_self, weight_other, bounds):
        v = values(m)
        k = np.argmax(weight_self * v + weight_other * values_other, axis=1)
        boot = np.clip(v[np.arange(n), k], *bounds)
        boot[absorbing] = 0.0
        return rec["S"] @ (c.beta * (Phi.T @ (targets + c.gamma * boot)))

    kappa = rec["kappa"]
    m_q, m_u = rec["m"].T
    q_bounds, u_bounds = rec["bounds"]
    t_q = T(rewards, m_q, values(rec["m_before"][:, 1]), 1.0, kappa,
            q_bounds)
    t_u = T(r_e, m_u, values(m_q), kappa, 1.0, u_bounds)
    return np.max(np.abs(t_q - m_q)), np.max(np.abs(t_u - m_u))


@pytest.fixture(scope="module")
def mountaincar_resolves():
    """The shipped mountain-car agent on seed 0: two episodes at
    kappa 0.1, then one at kappa 0, with every re-solve recorded."""
    config = load_config(CONFIG_DIR / "mountaincar_emuq.json")
    env = make_env(config.env_name, **config.env_params)
    env_rng, agent_rng, _ = seed_streams(config.base_seed, 0)
    agent = make_agent(config, env, agent_rng)
    records = record_resolves(agent)
    for kappa in (0.1, 0.1, 0.0):
        run_episode(env, agent, env_rng, agent_rng, kappa=kappa)
    return agent, records


def test_resolve_reaches_its_fixed_point(mountaincar_resolves):
    agent, records = mountaincar_resolves
    assert [rec["kappa"] for rec in records] == [0.1, 0.1, 0.0]
    for rec in records:
        assert rec["history"]["converged_q"], rec["history"]
        assert rec["history"]["converged_u"], rec["history"]
        res_q, res_u = resolve_residuals(agent, rec)
        assert res_q <= 1e-6 and res_u <= 1e-6, (rec["history"], res_q,
                                                  res_u)


def test_posterior_stays_spd_and_matches_direct_solve(mountaincar_resolves):
    agent, records = mountaincar_resolves
    rec = records[1]                     # after two episodes
    S = rec["S"]
    npt.assert_array_equal(S, S.T)
    assert np.linalg.eigvalsh(S).min() > 0.0
    Phi = np.vstack(agent._phi_rows[:rec["n"]])
    S_exact, _ = exact_posterior(Phi, np.zeros(rec["n"]), agent.config.alpha,
                                 agent.config.beta)
    assert np.max(np.abs(S - S_exact)) <= 1e-9


def test_resolve_past_its_newton_steps_stays_finite_and_honest():
    # On the 40-state chain the greedy pattern keeps flipping between
    # Newton steps, so the re-solve goes on with plain steps and may stop
    # at the cap; it must still install finite weights and flag
    # convergence only where the map's residual says so.
    config = load_config(CONFIG_DIR / "chain_emuq_scaling_n40.json")
    env = make_env(config.env_name, **config.env_params)
    env_rng, agent_rng, _ = seed_streams(config.base_seed, 0)
    agent = make_agent(config, env, agent_rng)
    records = record_resolves(agent)
    run_episode(env, agent, env_rng, agent_rng, kappa=0.1)
    (rec,) = records
    history = rec["history"]
    assert max(history["iters_q"], history["iters_u"]) > NEWTON_STEPS + 1
    assert np.isfinite(agent.model.m).all()
    assert np.isfinite(agent.model.t).all()
    for head, residual in zip("qu", resolve_residuals(agent, rec)):
        if history[f"converged_{head}"]:
            assert residual <= 1e-6, (history, residual)
        else:
            assert residual > SWEEP_TOL, (history, residual)
