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


def flat(table):
    """The flat memoryview the step path reads a table through."""
    return memoryview(table.reshape(-1))


def test_count_bonus_first_visit_free():
    counts = np.zeros((3, 2), dtype=np.int64)
    # cell (1, 0) is flat index 2, cell (1, 1) flat index 3
    assert count_bonus(flat(counts), 2) == 0.0
    counts[1, 0] += 1
    assert count_bonus(flat(counts), 2) == -1.0
    counts[1, 0] += 5
    assert count_bonus(flat(counts), 2) == -1.0
    assert count_bonus(flat(counts), 3) == 0.0


def test_q_update_hand_values():
    table = np.zeros((3, 2))
    table[2] = [0.5, 2.0]
    q_update(flat(table), 2, 0, 1, -1.0, 2, False, lr=0.5, gamma=0.9)
    # target = -1 + 0.9 * max(0.5, 2.0) = 0.8; q moves halfway there
    assert table[0, 1] == pytest.approx(0.4)
    q_update(flat(table), 2, 0, 1, -1.0, 2, False, lr=0.5, gamma=0.9)
    assert table[0, 1] == pytest.approx(0.4 + 0.5 * (0.8 - 0.4))


def test_q_update_absorbing_zeroes_bootstrap():
    table = np.zeros((2, 2))
    table[1] = [100.0, 100.0]    # must be ignored on absorption
    q_update(flat(table), 2, 0, 0, 1.0, 1, True, lr=0.1, gamma=0.99)
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


# -- the tables' flat views ----------------------------------------------


def test_table_attributes_exist_only_where_the_agent_keeps_them():
    eps = EpsilonGreedyAgent(3, 2)
    additive = AdditiveBonusAgent(3, 2)
    assert not hasattr(eps, "u") and not hasattr(eps, "counts")
    assert not hasattr(additive, "u")
    assert hasattr(additive, "counts")
    assert all(hasattr(ExplorationValuesAgent(3, 2), name)
               for name in ("q", "u", "counts"))


@pytest.mark.parametrize("agent_class", [EpsilonGreedyAgent,
                                         AdditiveBonusAgent,
                                         ExplorationValuesAgent])
def test_in_place_table_writes_reach_act_and_observe(agent_class):
    agent = agent_class(2, 3, lr=1.0, gamma=1.0)
    if agent_class is EpsilonGreedyAgent:
        agent.epsilon = 0.0
    rng = np.random.default_rng(9)
    agent.q[0] = [0.0, 2.0, 1.0]
    assert agent.act(0, 0.0, rng) == 1
    agent.q[1, 2] = 5.0
    agent.observe(make_tr(0, 0, 0.0, 1), 0.0, rng)
    # lr = gamma = 1: q(0, 0) becomes the bootstrap max of row 1
    assert agent.q[0, 0] == 5.0
    assert agent.act(0, 0.0, rng) == 0


@pytest.mark.parametrize("agent_class", [EpsilonGreedyAgent,
                                         AdditiveBonusAgent,
                                         ExplorationValuesAgent])
def test_assigned_tables_reach_act_and_observe(agent_class):
    agent = agent_class(2, 3, lr=1.0, gamma=1.0)
    if agent_class is EpsilonGreedyAgent:
        agent.epsilon = 0.0
    rng = np.random.default_rng(10)
    table = np.array([[0.0, 0.0, 3.0], [7.0, 0.0, 0.0]])
    agent.q = table
    assert agent.act(0, 0.0, rng) == 2
    agent.observe(make_tr(0, 1, 0.0, 1), 0.0, rng)
    assert table[0, 1] == 7.0          # written through to the array
    assert agent.act(0, 0.0, rng) == 1
    # a Fortran-ordered table is stored C-ordered, so flat cells still
    # line up with (state, action)
    agent.q = np.asfortranarray([[0.0, 4.0, 0.0], [0.0, 0.0, 9.0]])
    assert agent.act(0, 0.0, rng) == 1
    agent.observe(make_tr(0, 0, 0.0, 1), 0.0, rng)
    npt.assert_array_equal(agent.q, [[9.0, 4.0, 0.0], [0.0, 0.0, 9.0]])


def test_loaded_tables_reach_act_and_observe():
    agent = ExplorationValuesAgent(2, 3, lr=1.0, gamma=1.0)
    saved = {"q": np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 6.0]]),
             "u": np.array([[0.0, 0.0, 0.0], [-2.0, -1.0, 0.0]]),
             "counts": np.array([[0, 3, 0], [1, 1, 1]])}
    agent.load_state_arrays(saved)
    saved["q"][0, 1] = -99.0           # loading copied the tables
    rng = np.random.default_rng(11)
    assert agent.act(0, 0.0, rng) == 1
    agent.observe(make_tr(0, 1, 0.0, 1), 0.0, rng)
    assert agent.q[0, 1] == 6.0
    assert agent.u[0, 1] == -1.0       # a revisit: bonus -1, U max 0
    assert agent.counts[0, 1] == 4


# A numpy reference of the table agents' step path: act and observe as
# they were written on whole numpy rows and cells.

def reference_q_update(table, s, a, reward, s_next, absorbing, lr, gamma):
    bootstrap = 0.0 if absorbing else float(table[s_next].max())
    table[s, a] += lr * (reward + gamma * bootstrap - table[s, a])


def reference_act(agent, tables, obs, kappa, rng):
    q = tables["q"]
    if isinstance(agent, EpsilonGreedyAgent):
        if rng.random() < agent.epsilon:
            return int(rng.integers(agent.n_actions))
        row = q[obs]
        best = np.flatnonzero(row == row.max())
        if best.size == 1:
            return int(best[0])
        return int(best[rng.integers(best.size)])
    if isinstance(agent, AdditiveBonusAgent):
        return int(q[obs].argmax())
    return int((q[obs] + kappa * tables["u"][obs]).argmax())


def reference_observe(agent, tables, tr):
    s, a = tr.state, tr.action
    args = (tr.next_state, tr.absorbing, agent.lr, agent.gamma)
    if isinstance(agent, EpsilonGreedyAgent):
        reference_q_update(tables["q"], s, a, tr.reward, *args)
        return
    counts = tables["counts"]
    bonus = 0.0 if counts[s, a] == 0 else -1.0
    if isinstance(agent, AdditiveBonusAgent):
        reference_q_update(tables["q"], s, a, tr.reward + agent.xi * bonus,
                           *args)
    else:
        reference_q_update(tables["q"], s, a, tr.reward, *args)
        reference_q_update(tables["u"], s, a, bonus, *args)
    counts[s, a] += 1


def tied_signed_table(rng, shape):
    """Values on a 0.5 grid, so rows tie often, with zeros of both signs."""
    table = rng.integers(-3, 2, size=shape) * 0.5
    zeros = table == 0.0
    table[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    return table


@pytest.mark.parametrize("agent_class, params", [
    (EpsilonGreedyAgent, {"epsilon": 0.3}),
    (AdditiveBonusAgent, {"xi": 2.0}),
    (ExplorationValuesAgent, {}),
])
def test_step_path_matches_the_numpy_reference(agent_class, params):
    n_states, n_actions = 500, 6
    draw = np.random.default_rng(12)
    agent = agent_class(n_states, n_actions, lr=0.25, gamma=0.9, **params)
    for name in agent.TABLES:
        setattr(agent, name, draw.integers(0, 3, size=(n_states, n_actions))
                if name == "counts" else
                tied_signed_table(draw, (n_states, n_actions)))
    tables = {name: getattr(agent, name).copy() for name in agent.TABLES}
    agent_rng = np.random.default_rng(13)
    reference_rng = np.random.default_rng(13)
    assert np.signbit(tables["q"]).any() and (tables["q"] == 0.0).any()
    for _ in range(4000):
        obs = int(draw.integers(n_states))
        kappa = float(draw.choice([0.0, 0.5, 1.0, 3.0]))
        action = agent.act(obs, kappa, agent_rng)
        assert action == reference_act(agent, tables, obs, kappa,
                                       reference_rng)
        tr = make_tr(obs, action, float(draw.choice([0.0, -0.0, -0.1, 1.0])),
                     int(draw.integers(n_states)),
                     absorbing=bool(draw.random() < 0.1))
        agent.observe(tr, kappa, agent_rng)
        reference_observe(agent, tables, tr)
    for name in agent.TABLES:
        assert getattr(agent, name).tobytes() == tables[name].tobytes()
    assert (agent_rng.bit_generator.state
            == reference_rng.bit_generator.state)
