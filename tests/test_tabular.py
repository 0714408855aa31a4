"""Tabular agent tests: TD backup arithmetic, bonus bookkeeping, and the
decision-time combination of value and exploration tables."""

import numpy as np
import numpy.testing as npt
import pytest

from exval.core import Transition, run_episode, seed_streams
from exval.envs import ChainEnv
from exval.tabular import (AdditiveBonusAgent, EpsilonGreedyAgent,
                           ExplorationValuesAgent, count_bonus,
                           greedy_action, q_update)


def make_tr(s, a, r, s_next, absorbing=False):
    return Transition(state=s, action=a, reward=r, next_state=s_next,
                      absorbing=absorbing)


def test_count_bonus_first_visit_free():
    counts = np.zeros((3, 2), dtype=np.int64)
    assert count_bonus(counts, 1, 0) == 0.0
    counts[1, 0] += 1
    assert count_bonus(counts, 1, 0) == -1.0
    counts[1, 0] += 5
    assert count_bonus(counts, 1, 0) == -1.0
    assert count_bonus(counts, 1, 1) == 0.0


def test_q_update_hand_values():
    table = np.zeros((3, 2))
    table[2] = [0.5, 2.0]
    q_update(table, 0, 1, -1.0, 2, False, lr=0.5, gamma=0.9)
    # target = -1 + 0.9 * max(0.5, 2.0) = 0.8; q moves halfway there
    assert table[0, 1] == pytest.approx(0.4)
    q_update(table, 0, 1, -1.0, 2, False, lr=0.5, gamma=0.9)
    assert table[0, 1] == pytest.approx(0.4 + 0.5 * (0.8 - 0.4))


def test_q_update_absorbing_zeroes_bootstrap():
    table = np.zeros((2, 2))
    table[1] = [100.0, 100.0]    # must be ignored on absorption
    q_update(table, 0, 0, 1.0, 1, True, lr=0.1, gamma=0.99)
    assert table[0, 0] == pytest.approx(0.1)


def test_greedy_action_lowest_index_tie_break():
    assert greedy_action(np.array([0.0, 0.0, 0.0])) == 0
    assert greedy_action(np.array([1.0, 3.0, 3.0])) == 1
    assert greedy_action(np.array([-2.0, -1.0])) == 1


def test_epsilon_greedy_epsilon_one_is_uniform():
    agent = EpsilonGreedyAgent(2, 4, epsilon=1.0)
    agent.q[0] = [0.0, 0.0, 0.0, 10.0]
    rng = np.random.default_rng(0)
    picks = np.bincount([agent.act(0, 0.0, rng) for _ in range(8000)],
                        minlength=4)
    npt.assert_allclose(picks / 8000, 0.25, atol=0.02)


def test_epsilon_greedy_zero_follows_table():
    agent = EpsilonGreedyAgent(2, 3, epsilon=0.0)
    agent.q[0] = [0.0, 2.0, 1.0]
    rng = np.random.default_rng(1)
    assert all(agent.act(0, 0.0, rng) == 1 for _ in range(20))


def test_epsilon_greedy_random_tie_break_on_fresh_table():
    agent = EpsilonGreedyAgent(1, 3, epsilon=0.0)
    rng = np.random.default_rng(2)
    picks = np.bincount([agent.act(0, 0.0, rng) for _ in range(6000)],
                        minlength=3)
    npt.assert_allclose(picks / 6000, 1 / 3, atol=0.03)


def test_epsilon_greedy_learns_env_reward_only():
    agent = EpsilonGreedyAgent(3, 2, epsilon=0.1, lr=0.5, gamma=0.9)
    rng = np.random.default_rng(3)
    agent.observe(make_tr(0, 1, 2.0, 1), 0.0, rng)
    assert agent.q[0, 1] == pytest.approx(1.0)
    agent.observe(make_tr(1, 0, 0.0, 2, absorbing=True), 0.0, rng)
    assert agent.q[1, 0] == 0.0


def test_additive_agent_bakes_bonus_into_q():
    agent = AdditiveBonusAgent(3, 2, xi=2.0, lr=0.5, gamma=0.0)
    rng = np.random.default_rng(4)
    agent.observe(make_tr(0, 0, 1.0, 1), 0.0, rng)
    # first visit: no bonus yet, counts increment afterwards
    assert agent.q[0, 0] == pytest.approx(0.5)
    assert agent.counts[0, 0] == 1
    agent.observe(make_tr(0, 0, 1.0, 1), 0.0, rng)
    # revisit: trained on r + xi * (-1) = -1
    assert agent.q[0, 0] == pytest.approx(0.5 + 0.5 * (-1.0 - 0.5))


def test_additive_agent_ignores_kappa():
    agent = AdditiveBonusAgent(1, 2)
    agent.q[0] = [0.0, 1.0]
    rng = np.random.default_rng(5)
    assert agent.act(0, 0.0, rng) == 1
    assert agent.act(0, 5.0, rng) == 1


def test_explvalues_trains_separate_tables():
    agent = ExplorationValuesAgent(3, 2, lr=0.5, gamma=0.0)
    rng = np.random.default_rng(6)
    agent.observe(make_tr(0, 0, 1.0, 1), 1.0, rng)
    # reward goes to q; first-visit bonus of 0 leaves u untouched
    assert agent.q[0, 0] == pytest.approx(0.5)
    assert agent.u[0, 0] == 0.0
    agent.observe(make_tr(0, 0, 1.0, 1), 1.0, rng)
    # revisit: q keeps training on reward, u on the -1 bonus alone
    assert agent.q[0, 0] == pytest.approx(0.75)
    assert agent.u[0, 0] == pytest.approx(-0.5)


def test_explvalues_policy_combination():
    agent = ExplorationValuesAgent(1, 2)
    agent.q[0] = [0.5, 0.0]
    agent.u[0] = [-1.0, 0.0]
    rng = np.random.default_rng(7)
    # exploitation says 0; with enough exploration weight the revisit
    # penalty on action 0 flips the choice
    assert agent.act(0, 0.0, rng) == 0
    assert agent.act(0, 0.4, rng) == 0
    assert agent.act(0, 1.0, rng) == 1


def test_explvalues_kappa_zero_is_instant_exploitation():
    # Unlike the additive scheme, zeroing kappa removes every trace of
    # the exploration signal without touching learned values.
    agent = ExplorationValuesAgent(2, 2)
    agent.q[0] = [1.0, 0.0]
    agent.u[0] = [-50.0, 0.0]
    rng = np.random.default_rng(8)
    assert agent.act(0, 0.0, rng) == 0
    npt.assert_array_equal(agent.q[0], [1.0, 0.0])


def run_until_goal(env, agent, kappa, n_episodes, seed):
    env_rng, agent_rng, _ = seed_streams(0, seed)
    total = 0
    for _ in range(n_episodes):
        log = run_episode(env, agent, env_rng, agent_rng, kappa=kappa)
        total += log.steps
        if log.reached_goal:
            return total
    return None


def test_exploration_values_beat_random_walk_on_chain():
    # Leftward-drifting chain: the count-driven agent sweeps outward and
    # finds the goal; dithering does not get there on the same budget.
    expl_steps = []
    eps_steps = []
    for seed in range(5):
        env = ChainEnv(20, max_episode_steps=100)
        expl = run_until_goal(env, ExplorationValuesAgent(20, 2),
                              kappa=1.0, n_episodes=20, seed=seed)
        eps = run_until_goal(env, EpsilonGreedyAgent(20, 2, epsilon=0.1),
                             kappa=0.0, n_episodes=20, seed=seed)
        expl_steps.append(expl)
        eps_steps.append(eps)
    assert all(s is not None for s in expl_steps)
    reached_expl = np.mean([s for s in expl_steps])
    not_reached = sum(s is None for s in eps_steps)
    reached_eps = [s for s in eps_steps if s is not None]
    assert not_reached >= 3 or np.mean(reached_eps) > 3 * reached_expl
