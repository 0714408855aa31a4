"""Tests for the two-head value agent with variance-driven exploration.

Vectorized fast paths (pair value matrices, angle-sum and moment-matrix
exploration rewards) are checked against brute-force loops over explicit
embeddings; exploration-reward values against closed forms of
hand-built posteriors.
"""

import dataclasses
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from exval import emuq
from exval.bayes import BayesianLinearModel
from exval.bench import load_config, make_agent, run_single
from exval.core import EnvSpec, Transition, run_episode, seed_streams
from exval.emuq import (NEWTON_STEPS, SWEEP_TOL, EmuQ, EmuqConfig,
                        pair_value_matrix)
from exval.envs import ChainEnv, MountainCarEnv, make_env
from exval.features import JointRffMap, make_joint_map, rff_embed
from oracles import exact_posterior


def test_v_max_forms():
    spec = EnvSpec(state_dim=1, max_episode_steps=10, n_actions=2)
    assert EmuQ(spec, EmuqConfig(alpha=0.1, beta=1.0), None).v_max == 10.0
    assert EmuQ(spec, EmuqConfig(alpha=0.5, beta=4.0), None).v_max == 0.5


@pytest.mark.parametrize("discrete", [True, False])
def test_pair_value_matrix_matches_explicit_embeddings(discrete):
    rng = np.random.default_rng(0)
    if discrete:
        spec = EnvSpec(state_dim=2, max_episode_steps=1, n_actions=3)
        fmap = make_joint_map(spec, 0.4, 0.7, n_features=32, seed=3)
        actions = np.arange(3)
    else:
        spec = EnvSpec(state_dim=2, max_episode_steps=1,
                       action_low=np.array([-1.0]),
                       action_high=np.array([1.0]))
        fmap = make_joint_map(spec, 0.4, 0.7, n_features=32, seed=3)
        actions = rng.uniform(-1, 1, size=(5, 1))
    states = rng.uniform(0, 1, size=(7, 2))
    m = rng.standard_normal(32)

    proj_s = fmap.state_projection(states)
    proj_a = fmap.action_projection(actions)
    got = pair_value_matrix(np.cos(proj_s), np.sin(proj_s),
                            np.cos(proj_a), np.sin(proj_a), m,
                            1.0 / np.sqrt(fmap.n_spectral))

    want = np.array([[rff_embed(np.concatenate(
        [s, fmap.encode_actions(a)[0]]), fmap.rff) @ m for a in actions]
        for s in states])
    npt.assert_allclose(got, want, atol=1e-12)


# -- stub feature map for exact-value tests ----------------------------


class AngleActionMap:
    """phi(s, a) = [cos t, sin t] with t = pi (a + 2) / 8, which runs over
    [0, pi/2] as a scalar action runs over [-2, 2]; every state projects
    to angle 0."""

    n_spectral = 1

    def state_projection(self, states):
        return np.zeros((len(np.atleast_2d(states)), 1))

    def action_projection(self, actions):
        a = np.asarray(actions, dtype=float).reshape(-1, 1)
        return np.pi * (a + 2.0) / 8.0


def discrete_spec(n_actions=2):
    return EnvSpec(state_dim=1, max_episode_steps=100, n_actions=n_actions)


def test_fresh_agent_exploration_reward_is_exact_zero():
    cfg = EmuqConfig(alpha=0.001, beta=1.0, n_features=64)
    agent = EmuQ(discrete_spec(), cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    assert agent.exploration_reward(np.array([0.3]), rng) == 0.0
    assert not agent.model.m.any()    # every (Q, U) mean is exactly 0
    assert agent.re_count == 1 and agent.re_min == 0.0


def test_exploration_reward_hand_posterior():
    # Two actions, alpha = beta = 1 (V_max = 1), one observed row
    # phi0 = phi(s, 0).  Sherman-Morrison gives S = I - phi0 phi0^T / (1 +
    # |phi0|^2), so phi_a^T (S - I) phi_a = -(phi_a . phi0)^2 / (1 +
    # |phi0|^2) and r_e is its mean over both actions.  With unit-norm
    # rows and s' = s that is -(1 + k^2) / 4, k = phi(s, 1) . phi0.
    cfg = EmuqConfig(alpha=1.0, beta=1.0, n_features=16)
    agent = EmuQ(discrete_spec(), cfg, np.random.default_rng(0))
    s = np.array([0.3])
    rows = agent.fmap.embed_pairs(np.array([s, s]), [0, 1])
    phi0 = rows[0]
    agent.model.observe(phi0, [0.0, 0.0])
    want = -np.mean((rows @ phi0) ** 2) / (1.0 + phi0 @ phi0)
    k = rows[1] @ phi0
    assert abs(want + (1.0 + k ** 2) / 4.0) <= 1e-15
    got = agent.exploration_reward(s, np.random.default_rng(2))
    assert abs(got - want) <= 1e-15
    assert agent.re_min == agent.re_max == got
    assert agent.re_range_violations == 0


def box_spec(low=-2.0, high=2.0):
    return EnvSpec(state_dim=1, max_episode_steps=100,
                   action_low=np.array([low]), action_high=np.array([high]))


def test_expectation_set_needs_a_1d_box_and_samples():
    plane = EnvSpec(state_dim=1, max_episode_steps=100,
                    action_low=np.array([-1.0, -1.0]),
                    action_high=np.array([1.0, 1.0]))
    for rng in (np.random.default_rng(0), None):    # None: a checkpoint load
        with pytest.raises(ValueError, match="1-D action box"):
            EmuQ(plane, EmuqConfig(n_features=8), rng)


def test_act_balances_heads_and_reaches_endpoints():
    # Q(a) = -cos t and U(a) = cos t on stub features, increasing and
    # decreasing in a: exploitation drives to the upper action bound,
    # enough exploration weight flips to the lower.
    cfg = EmuqConfig(n_features=2)
    agent = EmuQ(box_spec(), cfg, np.random.default_rng(0))
    agent.fmap = AngleActionMap()
    agent.model = BayesianLinearModel(2, 1.0, 1.0, n_heads=2)
    agent.model.m = np.array([[-1.0, 1.0], [0.0, 0.0]])
    rng = np.random.default_rng(3)
    npt.assert_array_equal(agent.act(np.array([0.0]), 0.0, rng), [2.0])
    npt.assert_array_equal(agent.act(np.array([0.0]), 2.0, rng), [-2.0])


def test_act_discrete_first_index_on_ties():
    cfg = EmuqConfig(n_features=16)
    agent = EmuQ(discrete_spec(4), cfg, np.random.default_rng(0))
    rng = np.random.default_rng(4)
    # fresh model scores every action 0, so the tie goes to action 0
    assert agent.act(np.array([0.5]), 1.0, rng) == 0


def grid_actions(spec, k):
    """The learning steps' candidate grid, rebuilt from its definition:
    every discrete action, or k stratified midpoints of the 1-D box and
    then both endpoints."""
    if spec.discrete_actions:
        return np.arange(spec.n_actions)
    low, high = spec.action_low[0], spec.action_high[0]
    mid = low + (high - low) * ((np.arange(k) + 0.5) / k)
    return np.concatenate([mid, [low, high]])[:, None]


def brute_force_choice(agent, state, kappa, actions):
    """(first argmax of Q + kappa U over ``actions``, every (Q, U) value),
    from explicit embeddings."""
    phi = agent.fmap.embed_pairs(np.tile(state, (len(actions), 1)), actions)
    values = phi @ agent.model.m
    return int(np.argmax(values[:, 0] + kappa * values[:, 1])), values


def index_in(actions, action):
    (idx,) = [k for k in range(len(actions))
              if np.array_equal(np.atleast_1d(actions[k]),
                                np.atleast_1d(action))][:1]
    return idx


@pytest.mark.parametrize("spec", [discrete_spec(5), box_spec()],
                         ids=["discrete", "box"])
def test_learning_steps_choose_over_the_fixed_grid(spec):
    cfg = EmuqConfig(n_features=64)
    agent = EmuQ(spec, cfg, np.random.default_rng(0))
    grid = grid_actions(spec, cfg.n_action_candidates)
    npt.assert_array_equal(agent._grid[0], grid)
    # the re-solve's candidates are grid rows, the n_sweep_candidates
    # stratified midpoints bit for bit, plus both endpoints
    sweep = grid_actions(spec, cfg.n_sweep_candidates)
    assert np.array_equal(agent._sweep_grid[0], sweep)
    for half, sweep_half in zip(agent._grid[1:], agent._sweep_grid[1:]):
        assert all(any(np.array_equal(row, grid_row) for grid_row in half)
                   for row in sweep_half)
    rng = np.random.default_rng(1)

    def step_to(state_next):
        tr = Transition(state=np.array([0.2]), action=grid[1], reward=0.0,
                        next_state=state_next, absorbing=False)
        return agent.observe(tr, kappa, rng)

    # a fresh model scores every candidate 0: the tie goes to the first
    kappa = 0.7
    npt.assert_array_equal(step_to(np.array([0.4])), grid[0])
    draw = np.random.default_rng(2)
    chosen = set()
    for state_next in draw.uniform(0.0, 1.0, size=(30, 1)):
        agent.model.m = draw.standard_normal((cfg.n_features, 2))
        want, values = brute_force_choice(agent, state_next, kappa, grid)
        _, means = agent._choose(state_next, kappa, *agent._grid[1:])
        npt.assert_allclose(means, values[want], rtol=0.0, atol=1e-12)
        got = index_in(grid, step_to(state_next))     # then learns
        assert got == want
        chosen.add(got)
    assert len(chosen) > 1

    # act keeps drawing its candidates from its rng
    for seed in range(5):
        state = draw.uniform(0.0, 1.0, size=1)
        got = agent.act(state, kappa, np.random.default_rng(seed))
        if spec.discrete_actions:
            cands = grid
        else:
            low, high = spec.action_low, spec.action_high
            cands = np.vstack([np.random.default_rng(seed).uniform(
                low, high, size=(cfg.n_action_candidates, 1)), [low, high]])
        want, _ = brute_force_choice(agent, state, kappa, cands)
        assert index_in(cands, got) == want


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
    cfg = EmuqConfig(gamma=gamma, alpha=1.0, beta=1.0, n_features=16)
    agent = EmuQ(discrete_spec(), cfg, np.random.default_rng(0))
    # absurd weights: Q = U = 50 for both actions at state 0, so the raw
    # bootstrap sits far outside the attainable range
    rows = agent.fmap.embed_pairs(np.zeros((2, 1)), [0, 1])
    w = np.linalg.lstsq(rows, [50.0, 50.0], rcond=None)[0]
    agent.model.m = np.column_stack([w, w])
    return agent


def test_observe_projects_bootstrap_to_attainable_range():
    agent = make_clip_agent(gamma=0.5)
    tr = Transition(state=np.array([0.0]), action=0, reward=0.0,
                    next_state=np.array([0.0]), absorbing=False)
    assert agent.observe(tr, 1.0, np.random.default_rng(5)) in (0, 1)
    # Q bootstrap 50 clipped to q_hi = 2, U bootstrap 50 clipped to 0, and
    # r_e is 0 on the fresh covariance: targets [0 + 0.5 * 2, 0 + 0.5 * 0]
    (phi,) = agent.state_arrays()["phi_rows"]
    npt.assert_array_equal(agent.model.t[:, 0], phi)
    assert not agent.model.t[:, 1].any()


def test_observe_no_projection_without_discounting():
    agent = make_clip_agent(gamma=1.0)
    tr = Transition(state=np.array([0.0]), action=0, reward=0.0,
                    next_state=np.array([0.0]), absorbing=False)
    assert agent.observe(tr, 1.0, np.random.default_rng(5)) in (0, 1)
    # no finite attainable range at gamma = 1, so the raw value stands
    (phi,) = agent.state_arrays()["phi_rows"]
    npt.assert_allclose(agent.model.t[:, 0], 50.0 * phi, rtol=1e-12)


def test_observe_absorbing_zeroes_bootstrap_and_tracks_reward_scale():
    agent = make_clip_agent(gamma=0.5)
    tr = Transition(state=np.array([0.0]), action=1, reward=-3.0,
                    next_state=np.array([0.0]), absorbing=True)
    # absorbing: no next action is chosen
    assert agent.observe(tr, 1.0, np.random.default_rng(6)) is None
    assert agent._r_abs_max == 3.0
    # absorbing: target is the raw reward, no bootstrap at all
    (phi,) = agent.state_arrays()["phi_rows"]
    npt.assert_array_equal(agent.model.t[:, 0], -3.0 * phi)


def test_reward_scale_survives_save_and_load(tmp_path):
    # The largest reward magnitude is not saved; loading recomputes it
    # from the stored rewards.
    agent = make_clip_agent(gamma=0.5)
    for reward, absorbing in [(0.5, False), (-3.0, True), (2.0, True)]:
        agent.observe(Transition(state=np.array([0.0]), action=1,
                                 reward=reward, next_state=np.array([0.0]),
                                 absorbing=absorbing),
                      1.0, np.random.default_rng(6))
    path = tmp_path / "arrays.npz"
    np.savez(path, **agent.state_arrays())
    loaded = EmuQ(discrete_spec(), agent.config, None)
    with np.load(path) as data:
        loaded.load_state_arrays(data)
    assert agent._r_abs_max == loaded._r_abs_max == 3.0
    assert loaded._boot_bounds() == agent._boot_bounds()


def test_covariance_symmetrized_at_store_length_multiples(monkeypatch):
    # The count of rank-1 updates is the store length, which a checkpoint
    # carries, so a loaded agent keeps the same re-symmetrization steps.
    monkeypatch.setattr(emuq, "SYMMETRIZE_EVERY", 3)
    calls = []
    agent = make_clip_agent(gamma=0.5)
    tr = Transition(state=np.array([0.0]), action=0, reward=0.0,
                    next_state=np.array([0.0]), absorbing=True)
    for _ in range(4):
        agent.observe(tr, 1.0, np.random.default_rng(0))
    loaded = EmuQ(discrete_spec(), agent.config, None)
    loaded.load_state_arrays(agent.state_arrays())
    monkeypatch.setattr(
        loaded.model, "symmetrize",
        lambda: calls.append(len(loaded.state_arrays()["rewards"])))
    for _ in range(5):
        loaded.observe(tr, 1.0, np.random.default_rng(0))
    assert calls == [6, 9]


def mc_setup(run_seed=7, episodes=1, cap=40):
    env = MountainCarEnv(max_episode_steps=cap)
    cfg = EmuqConfig(gamma=0.99, alpha=0.1, beta=1.0, n_features=64,
                     lengthscale_state=0.3, lengthscale_action=10.0)
    env_rng, agent_rng, _ = seed_streams(0, run_seed)
    agent = EmuQ(env.spec, cfg, agent_rng)
    logs = [run_episode(env, agent, env_rng, agent_rng, kappa=0.1)
            for _ in range(episodes)]
    return env, agent, agent_rng, logs


def test_observe_stores_transition_rows():
    env, agent, rng, logs = mc_setup()
    n = logs[0].steps
    store = agent.state_arrays()
    assert len(store["phi_rows"]) == n
    assert len(store["rewards"]) == len(store["next_obs"]) == n
    assert len(store["absorbing"]) == n
    assert agent.re_count >= n


def test_invariant_monitors_stay_clean():
    env, agent, rng, logs = mc_setup(episodes=3)
    assert agent.re_range_violations == 0
    assert agent.var_violations == agent.posterior_violations == 0
    assert -agent.v_max <= agent.re_min <= agent.re_max <= 0.0
    assert agent.var_max_seen <= agent.v_max + 1e-9


def test_corrupted_covariance_trips_monitors_at_episode_end():
    # S doubled (its largest eigenvalue past 1/alpha) and given a negative
    # eigenvalue: the next episode end counts one violation of each kind.
    env, agent, rng, logs = mc_setup()
    assert agent.var_violations == agent.posterior_violations == 0
    eig, vec = np.linalg.eigh(2.0 * agent.model.S)
    eig[0] = -1.0
    agent.model.S = (vec * eig) @ vec.T
    agent.end_episode(0.1, rng)
    stats = agent.run_stats()
    assert stats["var_violations"] == stats["posterior_violations"] == 1
    assert stats["var_max_seen"] > 1.9 * agent.v_max


def test_visited_region_has_lower_exploration_reward():
    env, agent, rng, logs = mc_setup(episodes=2)
    near = agent.exploration_reward(agent.state_arrays()["next_obs"][0], rng)
    far = agent.exploration_reward(np.array([1.0, 1.0]), rng)
    assert near < far <= 0.0


def expectation_actions(agent):
    """The fixed set r_e averages over, rebuilt here from its definition:
    every discrete action, or stratified midpoints of the 1-D box."""
    spec = agent.spec
    if spec.discrete_actions:
        return np.arange(spec.n_actions)
    k = agent.config.n_expectation_samples
    low, high = spec.action_low[0], spec.action_high[0]
    return (low + (high - low) * (np.arange(k) + 0.5) / k)[:, None]


# env name, env params, agent params and the r_e tolerance: 1e-12
# absolute where V_max = 10, 1e-12 * V_max on pendulum (V_max = 1000)
RECOMPUTE_CASES = {
    "mountaincar": ("mountaincar", {},
                    dict(alpha=0.1, n_features=64, lengthscale_state=0.3,
                         lengthscale_action=10.0), 1e-12),
    "pendulum": ("pendulum", {},
                 dict(alpha=0.001, n_features=300, lengthscale_state=0.3,
                      lengthscale_action=0.3), 1e-9),
    "chain": ("chain", dict(n_states=8, vector_obs=True),
              dict(alpha=0.1, n_features=64, lengthscale_state=0.1,
                   lengthscale_action=0.6), 1e-12),
}


@pytest.mark.parametrize("case", sorted(RECOMPUTE_CASES))
def test_recompute_exploration_rewards_matches_brute_force(case):
    env_name, env_params, agent_params, atol = RECOMPUTE_CASES[case]
    env = make_env(env_name, max_episode_steps=40, **env_params)
    env_rng, rng, _ = seed_streams(0, 7)
    agent = EmuQ(env.spec, EmuqConfig(gamma=0.99, beta=1.0, **agent_params),
                 rng)
    run_episode(env, agent, env_rng, rng, kappa=0.1)
    next_states = agent.state_arrays()["next_obs"]
    proj = agent.fmap.state_projection(next_states)
    recomputed = agent._recompute_exploration_rewards(np.cos(proj),
                                                      np.sin(proj))
    per_step = [agent.exploration_reward(ns, rng) for ns in next_states]
    # the covariance has learned something
    assert min(per_step) < -0.1 * agent.v_max
    npt.assert_allclose(per_step, recomputed, rtol=0.0, atol=atol)

    # one plain loop per state over explicit embeddings of the fixed set
    c = agent.config
    actions = expectation_actions(agent)
    C = agent.model.S - np.eye(c.n_features) / c.alpha
    want = []
    for ns in next_states:
        phi = agent.fmap.embed_pairs(np.tile(ns, (len(actions), 1)), actions)
        quad = np.einsum("ij,ij->i", phi @ C, phi)
        want.append(np.clip(np.mean(quad) / c.beta, -agent.v_max, 0.0))
    npt.assert_allclose(per_step, want, rtol=0.0, atol=atol)


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
                     lengthscale_state=0.3, lengthscale_action=0.3)
    env_rng, agent_rng, _ = seed_streams(0, 1)
    agent = EmuQ(env.spec, cfg, agent_rng)
    for _ in range(3):
        run_episode(env, agent, env_rng, agent_rng, kappa=agent.v_max)
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
                     lengthscale_state=0.1, lengthscale_action=0.6)
    env_rng, agent_rng, _ = seed_streams(0, 0)
    agent = EmuQ(env.spec, cfg, agent_rng)
    actions = []
    step = env.step

    def recording_step(raw, action, rng):
        actions.append(action)
        return step(raw, action, rng)

    env.step = recording_step
    log = run_episode(env, agent, env_rng, agent_rng, kappa=0.1)
    assert len(actions) == log.steps > 0
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


# -- state projection cache ----------------------------------------------


def test_learning_step_projects_only_the_next_state(monkeypatch):
    env, agent, rng, _ = mc_setup(episodes=1)
    calls = []
    project = JointRffMap.state_projection

    def counting(fmap, states):
        calls.append(np.array(states))
        return project(fmap, states)

    monkeypatch.setattr(JointRffMap, "state_projection", counting)
    raw = env.reset(np.random.default_rng(3))
    obs = env.observe(raw)
    action = agent.act(obs, 0.1, rng)
    assert len(calls) == 1
    for _ in range(10):
        outcome = env.step(raw, action, rng)
        raw = outcome.next_state
        obs_next = env.observe(raw)
        calls.clear()
        action = agent.observe(Transition(obs, action, outcome.reward,
                                          obs_next, outcome.goal), 0.1, rng)
        # the stored row reuses s, the step before's s'
        assert len(calls) == 1
        npt.assert_array_equal(calls[0], obs_next)
        obs = obs_next


def test_cached_projections_give_the_uncached_bits():
    # Twin agents on one trajectory: the twin empties its cache before
    # every call, so it projects every state afresh.
    env = MountainCarEnv(max_episode_steps=30)
    cfg = EmuqConfig(n_features=64, lengthscale_action=10.0)
    agent = EmuQ(env.spec, cfg, np.random.default_rng(5))
    twin = EmuQ(env.spec, cfg, np.random.default_rng(5))

    def uncached(method, *args):
        twin._cos_sin.clear()
        return getattr(twin, method)(*args)

    rng = np.random.default_rng(6)
    raw = env.reset(rng)
    obs = env.observe(raw)
    action = agent.act(obs, 0.1, np.random.default_rng(7))
    npt.assert_array_equal(action,
                           uncached("act", obs, 0.1, np.random.default_rng(7)))
    for _ in range(25):
        outcome = env.step(raw, action, rng)
        raw = outcome.next_state
        obs_next = env.observe(raw)
        tr = Transition(obs, action, outcome.reward, obs_next, outcome.goal)
        r_e = agent.exploration_reward(obs_next, rng)
        assert r_e == uncached("exploration_reward", obs_next, rng)
        action = agent.observe(tr, 0.1, rng)
        npt.assert_array_equal(action, uncached("observe", tr, 0.1, rng))
        npt.assert_array_equal(
            agent.act(obs_next, 0.3, np.random.default_rng(8)),
            uncached("act", obs_next, 0.3, np.random.default_rng(8)))
        obs = obs_next
    assert agent.re_count == twin.re_count > 0
    for name, array in agent.state_arrays().items():
        npt.assert_array_equal(array, twin.state_arrays()[name], err_msg=name)


def test_loaded_map_uses_no_stale_projection():
    env, agent, rng, _ = mc_setup(episodes=1)
    other = mc_setup(run_seed=8, episodes=1)[1]
    assert np.any(other.fmap.rff.frequencies != agent.fmap.rff.frequencies)
    state = agent.state_arrays()["next_obs"][-1]
    agent.act(state, 0.1, np.random.default_rng(0))    # cached, old map
    agent.load_state_arrays({k: np.array(v)
                             for k, v in other.state_arrays().items()})
    other._cos_sin.clear()
    assert (agent.exploration_reward(state, rng)
            == other.exploration_reward(state, rng))
    for kappa in (0.0, 0.1, 5.0):
        npt.assert_array_equal(
            agent._choose(state, kappa, *agent._grid[1:])[1],
            other._choose(state, kappa, *other._grid[1:])[1])


def test_evaluation_episode_leaves_state_arrays_untouched():
    env, agent, rng, _ = mc_setup(episodes=1)
    before = {k: np.array(v) for k, v in agent.state_arrays().items()}
    log = run_episode(env, agent, np.random.default_rng(1), rng, kappa=0.0,
                      learn=False)
    assert log.steps > 1
    after = agent.state_arrays()
    assert after.keys() == before.keys()
    for name, array in before.items():
        npt.assert_array_equal(after[name], array, err_msg=name)
        assert after[name].dtype == array.dtype


def test_fortran_ordered_covariance_keeps_updating_after_load(tmp_path):
    # A checkpoint may hold S in Fortran order, which loading keeps; the
    # rank-1 updates must still reach the installed covariance.
    env, agent, rng, logs = mc_setup(episodes=2)
    arrays = dict(agent.state_arrays())
    arrays["S"] = np.asfortranarray(arrays["S"])
    path = tmp_path / "arrays.npz"
    np.savez(path, **arrays)
    loaded = EmuQ(env.spec, agent.config, None)
    with np.load(path) as data:
        loaded.load_state_arrays(data)
    assert not loaded.model.S.flags.c_contiguous
    state = arrays["next_obs"][-1]
    loaded.observe(Transition(state=state, action=np.array([0.5]),
                              reward=-1.0, next_state=state,
                              absorbing=False), 0.1, rng)
    Phi = loaded.state_arrays()["phi_rows"]
    assert len(Phi) == logs[0].steps + logs[1].steps + 1
    S_exact, _ = exact_posterior(Phi, np.zeros(len(Phi)), agent.config.alpha,
                                 agent.config.beta)
    assert np.max(np.abs(loaded.model.S - S_exact)) <= 1e-9


def test_state_arrays_fold_pending_covariance_updates():
    env, agent, rng, logs = mc_setup(episodes=1)
    assert agent.model._pending == 0        # the re-solve symmetrized S
    state = agent.state_arrays()["next_obs"][-1]
    for _ in range(3):
        agent.observe(Transition(state=state, action=np.array([0.5]),
                                 reward=-1.0, next_state=state,
                                 absorbing=False), 0.1, rng)
    assert agent.model._pending == 3
    arrays = agent.state_arrays()
    assert agent.model._pending == 0
    S_exact, _ = exact_posterior(arrays["phi_rows"],
                                 np.zeros(logs[0].steps + 3),
                                 agent.config.alpha, agent.config.beta)
    assert np.max(np.abs(arrays["S"] - S_exact)) <= 1e-9


# -- episode-end re-solve ----------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def record_resolves(agent):
    """Keep, for every episode-end re-solve, what its fixed-point map
    depends on: its candidate actions, the covariance, the weight means
    before and after, and the bootstrap bounds.  A re-solve's record
    holds its actions while it runs."""
    records = []
    sweep = agent._sweep

    def recording_sweep(kappa):
        records.append({"kappa": kappa, "actions": agent._sweep_grid[0],
                        "m_before": agent.model.m.copy()})
        sweep(kappa)
        records[-1].update(
            n=len(agent.state_arrays()["rewards"]), S=agent.model.S.copy(),
            m=agent.model.m.copy(), bounds=agent._boot_bounds(),
            history=agent.sweep_history[-1])

    agent._sweep = recording_sweep
    return records


def shipped_agent(config_name, seed=0):
    """A shipped config's env, streams and agent for ``seed``, with every
    re-solve recorded: (config, env, env_rng, agent_rng, agent,
    records)."""
    config = load_config(CONFIG_DIR / f"{config_name}.json")
    env = make_env(config.env_name, **config.env_params)
    env_rng, agent_rng, _ = seed_streams(config.base_seed, seed)
    agent = make_agent(config, env, agent_rng)
    return config, env, env_rng, agent_rng, agent, record_resolves(agent)


def resolve_residuals(agent, rec):
    """max |T(m) - m| for the Q and U heads at a re-solve's result, with
    the map T rebuilt by brute force from the stored transitions."""
    c, n = agent.config, rec["n"]
    store = agent.state_arrays()
    Phi = store["phi_rows"][:n]
    rewards = store["rewards"][:n]
    absorbing = store["absorbing"][:n]
    next_obs = store["next_obs"][:n]

    def embed_all(actions):
        for k in range(len(actions)):
            yield agent.fmap.embed_pairs(
                next_obs, np.repeat(actions[k:k + 1], n, axis=0))

    def values(m):
        return np.column_stack([phi @ m
                                for phi in embed_all(rec["actions"])])

    C = rec["S"] - np.eye(len(rec["S"])) / c.alpha
    quad = [np.einsum("ij,ij->i", phi @ C, phi)
            for phi in embed_all(expectation_actions(agent))]
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


def assert_at_fixed_points(agent, records):
    """Both heads of every recorded re-solve converged, and the map
    rebuilt by brute force moves neither by more than 1e-6."""
    for rec in records:
        history = rec["history"]
        assert history["converged_q"] and history["converged_u"], history
        res_q, res_u = resolve_residuals(agent, rec)
        assert res_q <= 1e-6 and res_u <= 1e-6, (history, res_q, res_u)


def record_choices(env, agent):
    """Per episode, count the agent's ``act`` calls and keep each step's
    action as passed to ``env.step`` next to what ``observe`` returned
    for that step's transition."""
    episodes = []
    act, observe, step = agent.act, agent.observe, env.step

    def counting_act(obs, kappa, rng):
        episodes[-1]["acts"] += 1
        return act(obs, kappa, rng)

    def recording_step(raw, action, rng):
        episodes[-1]["stepped"].append(action)
        return step(raw, action, rng)

    def recording_observe(tr, kappa, rng):
        episodes[-1]["absorbing"].append(tr.absorbing)
        episodes[-1]["returned"].append(observe(tr, kappa, rng))
        return episodes[-1]["returned"][-1]

    agent.act, agent.observe = counting_act, recording_observe
    env.step = recording_step
    return episodes


@pytest.fixture(scope="module")
def mountaincar_resolves():
    """The shipped mountain-car agent on seed 0: two episodes at
    kappa 0.1, then one at kappa 0, with every re-solve and every
    action choice recorded."""
    _, env, env_rng, agent_rng, agent, records = shipped_agent(
        "mountaincar_emuq")
    episodes = record_choices(env, agent)
    for kappa in (0.1, 0.1, 0.0):
        episodes.append({"acts": 0, "stepped": [], "absorbing": [],
                         "returned": []})
        run_episode(env, agent, env_rng, agent_rng, kappa=kappa)
    return agent, records, episodes


def test_one_action_choice_per_state_while_learning(mountaincar_resolves):
    _, _, episodes = mountaincar_resolves
    for ep in episodes:
        # act picks the first action only; every later one is the
        # bootstrap action observe chose for that state
        assert ep["acts"] == 1
        assert len(ep["stepped"]) == len(ep["returned"]) > 1
        for i, returned in enumerate(ep["returned"]):
            assert (returned is None) == ep["absorbing"][i]
            if i + 1 < len(ep["stepped"]):
                npt.assert_array_equal(returned, ep["stepped"][i + 1])


def test_resolve_reaches_its_fixed_point(mountaincar_resolves):
    agent, records, _ = mountaincar_resolves
    assert [rec["kappa"] for rec in records] == [0.1, 0.1, 0.0]
    assert_at_fixed_points(agent, records)


@pytest.mark.parametrize("seed", [0, 1])
def test_resolve_converges_once_plain_steps_take_newton_steps(seed):
    # Plain steps that settle on one argmax and clip pattern take a
    # Newton step for it, so no head of the shipped mountain-car config
    # is left at the iteration cap over its first episodes.
    config, env, env_rng, agent_rng, agent, records = shipped_agent(
        "mountaincar_emuq", seed)
    for _ in range(4):
        run_episode(env, agent, env_rng, agent_rng,
                    kappa=config.schedule_params["kappa0"])
    assert len(records) == 4
    assert_at_fixed_points(agent, records)


def test_posterior_stays_spd_and_matches_direct_solve(mountaincar_resolves):
    agent, records, _ = mountaincar_resolves
    rec = records[1]                     # after two episodes
    S = rec["S"]
    npt.assert_array_equal(S, S.T)
    assert np.linalg.eigvalsh(S).min() > 0.0
    Phi = agent.state_arrays()["phi_rows"][:rec["n"]]
    S_exact, _ = exact_posterior(Phi, np.zeros(rec["n"]), agent.config.alpha,
                                 agent.config.beta)
    assert np.max(np.abs(S - S_exact)) <= 1e-9


def assert_first_resolve_finite_and_honest(config_name):
    """Run seed 0's first episode of a shipped config at its kappa0; its
    re-solve must go past the Newton steps, install finite weights and
    flag convergence only where the map's residual says so."""
    config, env, env_rng, agent_rng, agent, records = shipped_agent(
        config_name)
    run_episode(env, agent, env_rng, agent_rng,
                kappa=config.schedule_params["kappa0"])
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


def test_resolve_past_its_newton_steps_stays_finite_and_honest():
    # On the 40-state chain the greedy pattern keeps flipping between
    # Newton steps, so the re-solve goes on with plain steps and may stop
    # at the cap.
    assert_first_resolve_finite_and_honest("chain_emuq_scaling_n40")


def test_pendulum_resolve_stays_finite_and_honest():
    # Pendulum's U head wanders to the iteration cap (residual about 3e4)
    # while its Q head converges.
    assert_first_resolve_finite_and_honest("pendulum_emuq")


def fresh_phi_psi(agent, pattern):
    """Phi^T Psi over the first len(pattern) stored rows, each Psi row the
    unscaled next-state row at sweep candidate ``pattern[i]`` from an
    explicit embedding, or zero where ``pattern[i]`` is -1."""
    store = agent.state_arrays()
    n = len(pattern)
    psi = agent.fmap.embed_pairs(
        store["next_obs"][:n], agent._sweep_grid[0][np.maximum(pattern, 0)])
    psi *= np.sqrt(agent.fmap.n_spectral)
    psi[pattern < 0] = 0.0
    return store["phi_rows"][:n].T @ psi


def test_newton_matrix_matches_a_fresh_build_at_every_newton_step(
        monkeypatch):
    # The shipped mountain-car agent's first three re-solves (seed 0):
    # each head's first Newton step updates the A carried from the
    # re-solve before by the new and flipped rows, later steps update
    # S A by the flipped rows, and rebuilds come once enough rows flip.
    # Each step's S Phi^T Psi must match one built from scratch out of
    # explicit embeddings.
    config, env, env_rng, agent_rng, agent, records = shipped_agent(
        "mountaincar_emuq")
    steps, flips, zero_flips = [], [], []
    update = emuq.NewtonMatrix.update

    def checked_update(newton, k_star, free):
        first = newton._pattern is None
        old = newton.pattern if first else newton._pattern
        carried = first and len(old) > 0
        full = newton.traffic["newton_full"]
        got = update(newton, k_star, free)
        rebuilt = newton.traffic["newton_full"] > full
        if not rebuilt:
            k_old = np.full(len(free), -1)
            k_old[:len(old)] = old
            free_old = k_old >= 0
            changed = (k_star != k_old) | (free != free_old)
            # rows clipped or absorbing under both patterns keep a zero
            # psi row, so they are not applied
            flips.append(np.sum(changed & (free | free_old)))
            zero_flips.append(np.sum(changed & ~free & ~free_old))
        pattern = np.where(free, k_star, -1)
        want = newton.S @ fresh_phi_psi(agent, pattern)
        # max-abs error relative to the matrix's scale; an all-clipped
        # pattern gives an exact zero matrix
        err, size = np.max(np.abs(got - want)), np.max(np.abs(want))
        branch = ("carried " if carried else "first " if first else "") + (
            "rebuild" if rebuilt else "rows")
        steps.append((branch, err <= 1e-9 * size, err, size))
        return got

    monkeypatch.setattr(emuq.NewtonMatrix, "update", checked_update)
    for _ in range(3):
        run_episode(env, agent, env_rng, agent_rng,
                    kappa=config.schedule_params["kappa0"])
    branches = [branch for branch, *_ in steps]
    assert {"carried rows", "rows", "rebuild"} <= set(branches), branches
    assert all(close for _, close, *_ in steps), steps
    # the history counts each head's builds, row updates and rows applied
    history = agent.sweep_history
    assert sum(h[f"newton_full_{head}"] for h in history
               for head in "qu") == sum("rebuild" in b for b in branches)
    assert sum(h[f"newton_by_rows_{head}"] for h in history
               for head in "qu") == sum("rows" in b for b in branches)
    assert sum(h[f"flipped_rows_{head}"] for h in history
               for head in "qu") == sum(flips) > 0
    assert sum(zero_flips) > 0


@pytest.mark.parametrize("config_name, episodes", [
    ("chain_emuq_scaling_n40", 40), ("pendulum_emuq", 8)],
    ids=["chain40", "pendulum"])
def test_carried_newton_matrix_matches_a_fresh_build_after_every_resolve(
        monkeypatch, config_name, episodes):
    # Each head carries A = Phi^T Psi from one re-solve to the next by
    # row updates.  After every re-solve of the runs the result digests
    # trim these configs to (seeds 0 and 1), A must be within 1e-12 of a
    # fresh build's largest entry (the drift measured about 5e-15).
    checked = []
    sweep = emuq.EmuQ._sweep

    def checked_sweep(agent, kappa):
        sweep(agent, kappa)
        for newton in agent._newton:
            want = fresh_phi_psi(agent, newton.pattern)
            err = np.max(np.abs(newton.a - want), initial=0.0)
            size = np.max(np.abs(want), initial=0.0)
            checked.append(err <= 1e-12 * max(size, 1.0))

    monkeypatch.setattr(emuq.EmuQ, "_sweep", checked_sweep)
    config = dataclasses.replace(load_config(CONFIG_DIR /
                                             f"{config_name}.json"),
                                 n_episodes=episodes)
    for seed in (0, 1):
        run_single(config, seed)
    assert len(checked) == 2 * 2 * episodes
    assert all(checked)


@pytest.mark.parametrize("config_name", [
    "chain_emuq_scaling_n40", "pendulum_emuq", "mountaincar_emuq"])
def test_stored_rows_are_their_own_projections_bit_for_bit(monkeypatch,
                                                           config_name):
    # A learning step's stored row takes its action's cos/sin from the
    # grid row chosen one step earlier, projecting only an episode's
    # first action; every row must hold the bits of a fresh projection.
    config, env, env_rng, agent_rng, agent, _ = shipped_agent(config_name)
    transitions, single_projections = [], []
    observe = agent.observe
    project = JointRffMap.action_projection

    def recording_observe(tr, kappa, rng):
        transitions.append(tr)
        return observe(tr, kappa, rng)

    def counting(fmap, actions):
        single_projections.append(len(actions) == 1)
        return project(fmap, actions)

    agent.observe = recording_observe
    monkeypatch.setattr(JointRffMap, "action_projection", counting)
    for _ in range(2):
        run_episode(env, agent, env_rng, agent_rng,
                    kappa=config.schedule_params["kappa0"])
    monkeypatch.undo()
    assert sum(single_projections) == 2        # one per episode
    rows = agent.state_arrays()["phi_rows"]
    assert len(rows) == len(transitions) > 2
    fmap = agent.fmap
    for tr, row in zip(transitions, rows):
        proj_s = fmap.state_projection(tr.state)
        proj_a = fmap.action_projection([tr.action])
        want = emuq.angle_sum_rows(np.cos(proj_s), np.sin(proj_s),
                                   np.cos(proj_a), np.sin(proj_a))[0]
        want *= 1.0 / np.sqrt(fmap.n_spectral)
        assert np.array_equal(row, want)


def small_newton_matrix(seed=5, n=6, h=4):
    """A NewtonMatrix (gamma 0.9, beta 2) over 3 candidates and M = 2h
    features, started on n hand-built stored rows, and the angles behind
    its cos/sin."""
    rng = np.random.default_rng(seed)
    Phi = rng.standard_normal((n, 2 * h))
    S = np.eye(2 * h) + 0.1 * np.ones((2 * h, 2 * h))
    angles_s, angles_a = rng.uniform(0, 6, (n, h)), rng.uniform(0, 6, (3, h))
    newton = emuq.NewtonMatrix(np.cos(angles_a), np.sin(angles_a), 0.9, 2.0)
    newton.start(S, Phi, np.cos(angles_s), np.sin(angles_s))
    return newton, angles_s, angles_a


def explicit_phi_psi(Phi, angles_s, angles_a, k_star, free):
    """Phi^T Psi over the first len(k_star) rows, from the angles."""
    n = len(k_star)
    angles = angles_s[:n] + angles_a[k_star]
    psi = np.hstack([np.cos(angles), np.sin(angles)])
    psi[~free] = 0.0
    return Phi[:n].T @ psi


def test_newton_matrix_skips_rows_whose_psi_stays_zero():
    # A row whose argmax moves while it stays clipped applies nothing: the
    # update counts no row and leaves the matrix as a fresh build has it.
    newton, *_ = small_newton_matrix()
    k_star = np.zeros(6, dtype=int)
    free = np.array([True, False, True, True, False, True])
    newton.update(k_star, free)             # the 4 free rows enter A
    assert newton.traffic == {"newton_full": 0, "newton_by_rows": 1,
                              "flipped_rows": 4}
    moved = k_star.copy()
    moved[[1, 4]] = 2                       # both rows stay clipped
    got = newton.update(moved, free).copy()
    assert newton.traffic == {"newton_full": 0, "newton_by_rows": 2,
                              "flipped_rows": 4}
    fresh = small_newton_matrix()[0].update(moved, free)
    npt.assert_array_equal(got, fresh)
    moved = moved.copy()
    moved[[2, 4]] = 1                       # the free row counts
    newton.update(moved, free)
    assert newton.traffic["flipped_rows"] == 5


def test_newton_matrix_carries_a_across_resolves():
    # A re-solve ends with A at its last Newton step's pattern and keeps
    # nothing else; the next one, over a grown store, updates that A by
    # the new free rows and the flipped old ones.
    newton, angles_s, angles_a = small_newton_matrix(seed=7, n=9)
    S, Phi = newton.S, newton.Phi
    cs, ss = np.cos(angles_s), np.sin(angles_s)
    newton.start(S, Phi[:6], cs[:6], ss[:6])
    k_a = np.array([0, 1, 2, 0, 1, 2])
    free_a = np.array([True, True, False, True, True, True])
    newton.update(k_a, free_a)
    k_b = np.array([0, 2, 2, 1, 1, 2])      # rows 1 and 3 flip
    newton.update(k_b, free_a)
    assert newton.traffic["flipped_rows"] == 5 + 2
    newton.finish()
    assert newton.S is newton.Phi is newton.matrix is None
    npt.assert_array_equal(newton.pattern, np.where(free_a, k_b, -1))
    npt.assert_allclose(newton.a, explicit_phi_psi(
        Phi, angles_s, angles_a, k_b, free_a), rtol=0, atol=1e-12)
    carried = newton.a.copy()
    newton.start(S, Phi[:6], cs[:6], ss[:6])    # no Newton step: A stays
    newton.finish()
    npt.assert_array_equal(newton.a, carried)

    newton.start(S, Phi, cs, ss)
    k_c = np.append(k_b, [1, 0, 2])
    k_c[4] = 0                               # row 4 flips
    free_c = np.append(free_a, [True, False, True])
    got = newton.update(k_c, free_c)
    # one old row and the two new free rows
    assert newton.traffic == {"newton_full": 0, "newton_by_rows": 1,
                              "flipped_rows": 3}
    want = explicit_phi_psi(Phi, angles_s, angles_a, k_c, free_c)
    npt.assert_allclose(got, S @ want, rtol=0, atol=1e-12)
    npt.assert_allclose(newton.a, want, rtol=0, atol=1e-12)


def test_newton_solve_gives_the_held_pattern_fixed_point_or_none():
    # With the pattern held, free rows bootstrap through their chosen
    # candidate's next-state row and the others keep their bootstrap, so
    # the map T is affine and solve returns its fixed point.
    newton, angles_s, angles_a = small_newton_matrix(seed=11)
    n, h = angles_s.shape
    targets, boot = np.random.default_rng(12).standard_normal((2, n))
    k_star = np.array([0, 2, 1, 1, 0, 2])
    free = np.array([True, False, True, True, False, True])
    m = newton.solve(targets, k_star, boot, free)
    angles = angles_s + angles_a[k_star]
    psi = np.hstack([np.cos(angles), np.sin(angles)]) / np.sqrt(h)
    held = targets + 0.9 * np.where(free, psi @ m, boot)
    T_m = 2.0 * newton.S @ (newton.Phi.T @ held)
    assert np.max(np.abs(T_m - m)) <= 1e-12 * np.max(np.abs(m))
    # One free row whose next-state row is its feature row, with S = I and
    # gamma beta = 1: I - S Phi^T Psi = diag(0, 1) is exactly singular.
    zero, one = np.zeros((1, 1)), np.ones((1, 1))
    singular = emuq.NewtonMatrix(one, zero, 1.0, 1.0)
    singular.start(np.eye(2), np.array([[1.0, 0.0]]), one, zero)
    assert singular.solve(np.ones(1), np.zeros(1, dtype=int), np.zeros(1),
                          np.ones(1, dtype=bool)) is None
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.eye(2) - singular.matrix, np.ones(2))
