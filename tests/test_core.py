"""Episode runner, transition semantics, and RNG stream tests."""

import numpy as np
import numpy.testing as npt
import pytest

from exval import core
from exval.core import (EnvSpec, StepOutcome, Transition,
                        eval_pure_exploit, run_episode, seed_streams)
from exval.envs import CliffEnv, TaxiEnv
from exval.tabular import (AdditiveBonusAgent, EpsilonGreedyAgent,
                           ExplorationValuesAgent)


class LineEnv:
    """Deterministic walk on n cells, goal at the right end.

    Action 1 moves right, 0 moves left (clamped).  Reaching the last cell
    pays +1 and terminates; every other step pays -0.1.
    """

    def __init__(self, n=5, max_episode_steps=8):
        self.n = n
        self.spec = EnvSpec(state_dim=1, max_episode_steps=max_episode_steps,
                            n_states=n, n_actions=2)

    def reset(self, rng):
        return 0

    def observe(self, raw):
        return raw

    def transition_rows(self):
        # no rows: evaluation steps through run_episode, so the tests
        # below see every ScriptAgent.act call
        return None

    def step(self, raw, action, rng):
        nxt = min(raw + 1, self.n - 1) if action == 1 else max(raw - 1, 0)
        goal = nxt == self.n - 1
        return StepOutcome(next_state=nxt, reward=1.0 if goal else -0.1,
                           goal=goal)


class ScriptAgent:
    """Plays a fixed action loop and records every hook invocation."""

    def __init__(self, actions):
        self.script = list(actions)
        self.cursor = 0
        self.observed = []
        self.episodes_ended = 0
        self.kappas_seen = []

    def act(self, obs, kappa, rng):
        self.kappas_seen.append(kappa)
        action = self.script[self.cursor % len(self.script)]
        self.cursor += 1
        return action

    def observe(self, tr, kappa, rng):
        self.observed.append(tr)

    def end_episode(self, kappa, rng):
        self.episodes_ended += 1


def test_env_spec_action_validation():
    # the action kind follows from whether a discrete count is given
    spec = EnvSpec(state_dim=1, max_episode_steps=10, n_actions=3)
    assert spec.discrete_actions
    assert spec.action_dim == 3          # one-hot width
    box = EnvSpec(state_dim=2, max_episode_steps=10,
                  action_low=np.array([-1.0]), action_high=np.array([1.0]))
    assert not box.discrete_actions
    assert box.action_dim == 1


def test_env_spec_step_cap_is_a_whole_number():
    spec = EnvSpec(state_dim=1, max_episode_steps=5.0, n_actions=2)
    assert spec.max_episode_steps == 5
    assert type(spec.max_episode_steps) is int
    for bad in (True, 2.5, "20", 0, -3):
        with pytest.raises(ValueError, match="max_episode_steps"):
            EnvSpec(state_dim=1, max_episode_steps=bad, n_actions=2)


def test_seed_streams_reproducible_and_distinct():
    e1, a1, v1 = seed_streams(0, 5)
    e2, a2, v2 = seed_streams(0, 5)
    for g1, g2 in [(e1, e2), (a1, a2), (v1, v2)]:
        npt.assert_array_equal(g1.integers(1 << 30, size=8),
                               g2.integers(1 << 30, size=8))
    # distinct run seeds and distinct roles both give fresh streams
    e3, a3, _ = seed_streams(0, 6)
    assert np.any(e3.integers(1 << 30, size=8)
                  != seed_streams(0, 5)[0].integers(1 << 30, size=8))
    ea, aa, va = seed_streams(3, 3)
    draws = [g.integers(1 << 30, size=8) for g in (ea, aa, va)]
    assert np.any(draws[0] != draws[1])
    assert np.any(draws[1] != draws[2])


def test_episode_reaches_goal():
    env = LineEnv(n=5)
    agent = ScriptAgent([1])
    rng = np.random.default_rng(0)
    log = run_episode(env, agent, rng, rng, kappa=0.25)
    assert log.steps == 4
    assert log.reached_goal
    assert log.return_undiscounted == pytest.approx(-0.3 + 1.0)
    # the goal step alone absorbs
    assert [tr.absorbing for tr in agent.observed] == [False] * 3 + [True]
    assert (agent.observed[-1].next_state, agent.observed[-1].reward) == \
        (4, 1.0)
    assert agent.episodes_ended == 1
    assert len(agent.observed) == 4


def test_episode_step_cap_is_not_absorbing():
    env = LineEnv(n=5, max_episode_steps=6)
    agent = ScriptAgent([0])   # walks into the left wall forever
    rng = np.random.default_rng(0)
    log = run_episode(env, agent, rng, rng, kappa=1.0)
    assert log.steps == 6
    assert not log.reached_goal
    # the cap ends the episode, but no state absorbed, so the bootstrap
    # survives on every step, the last included
    assert len(agent.observed) == 6
    assert not any(tr.absorbing for tr in agent.observed)
    assert agent.episodes_ended == 1


def test_goal_on_final_allowed_step_is_absorbing():
    # The goal at exactly the cap is a real ending, not a cap ending.
    env = LineEnv(n=5, max_episode_steps=4)
    agent = ScriptAgent([1])
    rng = np.random.default_rng(0)
    log = run_episode(env, agent, rng, rng, kappa=0.0)
    assert log.reached_goal and log.steps == 4
    assert agent.observed[-1].absorbing
    assert not any(tr.absorbing for tr in agent.observed[:-1])


class CommittingAgent(ScriptAgent):
    """A ScriptAgent whose observe commits to the next action, taken in
    turn from its own loop."""

    def __init__(self, actions, commits):
        super().__init__(actions)
        self.commits = list(commits)

    def observe(self, tr, kappa, rng):
        super().observe(tr, kappa, rng)
        return self.commits[(len(self.observed) - 1) % len(self.commits)]


def test_run_episode_plays_the_action_observe_returns():
    env = LineEnv(n=5)
    agent = CommittingAgent([0], commits=[1])
    rng = np.random.default_rng(0)
    log = run_episode(env, agent, rng, rng, kappa=0.5)
    # act chose the first action only; every later one is a commitment
    assert agent.cursor == 1
    assert [tr.action for tr in agent.observed] == [0, 1, 1, 1, 1]
    assert log.reached_goal and log.steps == 5
    # without learning there is no observe, so act chooses every step
    log = run_episode(env, agent, rng, rng, kappa=0.5, learn=False)
    assert agent.cursor == 1 + log.steps == 1 + 8


def test_run_episode_asks_act_every_step_when_observe_returns_none():
    env = LineEnv(n=5, max_episode_steps=6)
    agent = ScriptAgent([0, 1])
    rng = np.random.default_rng(0)
    log = run_episode(env, agent, rng, rng, kappa=0.5)
    assert agent.cursor == log.steps == 6
    assert [tr.action for tr in agent.observed] == [0, 1, 0, 1, 0, 1]


def test_no_transition_built_without_learning(monkeypatch):
    built = []

    def counting_transition(*args, **kwargs):
        built.append(args)
        return Transition(*args, **kwargs)

    monkeypatch.setattr(core, "Transition", counting_transition)
    env = LineEnv(n=5)
    rng = np.random.default_rng(0)
    log = run_episode(env, ScriptAgent([1]), rng, rng, kappa=0.0,
                      learn=False)
    returns = eval_pure_exploit(env, ScriptAgent([1]), 3, rng)
    assert log.steps == 4 and len(returns) == 3
    assert built == []
    # the patch is live: a learning episode builds one per step
    run_episode(env, ScriptAgent([1]), rng, rng, kappa=0.0)
    assert len(built) == 4


def test_learn_false_skips_agent_hooks():
    env = LineEnv(n=5)
    agent = ScriptAgent([1])
    rng = np.random.default_rng(0)
    run_episode(env, agent, rng, rng, kappa=0.0, learn=False)
    assert agent.observed == []
    assert agent.episodes_ended == 0


def test_eval_pure_exploit_frozen_and_greedy():
    env = LineEnv(n=5)
    agent = ScriptAgent([1])
    returns = eval_pure_exploit(env, agent, 3, np.random.default_rng(1))
    npt.assert_allclose(returns, [0.7, 0.7, 0.7])
    assert agent.observed == []
    assert agent.episodes_ended == 0
    assert set(agent.kappas_seen) == {0.0}


def tabular_agent(agent_class, env, tables, seed=0):
    """A tabular agent whose tables are all zero, random, or solved: Q
    from value iteration on the env's transition rows, U (if any)
    random."""
    agent = agent_class(env.spec.n_states, env.spec.n_actions)
    rng = np.random.default_rng(seed)
    if tables != "zeros":
        for name in ("q", "u"):
            if hasattr(agent, name):
                setattr(agent, name, rng.normal(size=agent.q.shape))
    if tables == "solved":
        entries = np.array(env.transition_rows())   # [state, action, field]
        next_state = entries[..., 0].astype(np.int64)
        reward, goal = entries[..., 1], entries[..., 2] != 0
        for _ in range(200):
            agent.q = reward + 0.9 * np.where(
                goal, 0.0, agent.q.max(axis=1)[next_state])
    return agent


class SteppedEnv:
    """``env`` with its transition rows hidden, so run_episode steps
    through it instead of walking its rows: the step-loop reference
    for the walks."""

    def __init__(self, env):
        self.env = env

    def __getattr__(self, name):
        return getattr(self.env, name)

    def transition_rows(self):
        return None


def reference_eval(env, agent, n_episodes, eval_rng):
    """eval_pure_exploit as one stepped run_episode per evaluation
    episode; also gives each episode's step count."""
    env = SteppedEnv(env)
    logs = [run_episode(env, agent, eval_rng, eval_rng, kappa=0.0,
                        learn=False) for _ in range(n_episodes)]
    return (np.array([log.return_undiscounted for log in logs]),
            np.array([log.steps for log in logs]))


@pytest.fixture
def run_episode_calls(monkeypatch):
    """The calls eval_pure_exploit makes to core.run_episode."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return run_episode(*args, **kwargs)

    monkeypatch.setattr(core, "run_episode", counting)
    return calls


GREEDY_CASES = [(cls, tables)
                for cls in (AdditiveBonusAgent, ExplorationValuesAgent)
                for tables in ("zeros", "random", "solved")]


@pytest.mark.parametrize("agent_class,tables", GREEDY_CASES)
def test_greedy_policy_is_act_in_every_state(agent_class, tables):
    env = TaxiEnv()
    agent = tabular_agent(agent_class, env, tables)
    rng = np.random.default_rng(0)
    acts = [agent.act(s, 0.0, rng) for s in range(env.spec.n_states)]
    npt.assert_array_equal(agent.greedy_policy(), acts)


@pytest.mark.parametrize("agent_class,tables", GREEDY_CASES)
def test_eval_walk_matches_step_loop_bit_for_bit(agent_class, tables,
                                                 run_episode_calls):
    env = TaxiEnv()
    agent = tabular_agent(agent_class, env, tables)
    want_rng = np.random.default_rng(7)
    want, steps = reference_eval(env, agent, 30, want_rng)
    got_rng = np.random.default_rng(7)
    got = eval_pure_exploit(env, agent, 30, got_rng)
    assert run_episode_calls == []     # the walk, not the step loop
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    if tables == "solved":
        assert np.all(want == 1.0)
    else:      # most episodes run into the step cap
        assert np.count_nonzero(steps == env.spec.max_episode_steps) > 15


@pytest.fixture
def protocol_calls(monkeypatch):
    """Counts of the env.step, act and observe calls of every tabular
    env and agent class."""
    calls = {"step": 0, "act": 0, "observe": 0}

    def counting(name, original):
        def method(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return method

    for owner, name in [(TaxiEnv, "step"), (CliffEnv, "step"),
                        *((agent_class, name) for agent_class in
                          (AdditiveBonusAgent, EpsilonGreedyAgent,
                           ExplorationValuesAgent)
                          for name in ("act", "observe"))]:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner,
                                                                name)))
    return calls


def table_bytes(agent):
    return {name: table.tobytes()
            for name, table in agent.state_arrays().items()}


@pytest.mark.parametrize("learn", [True, False])
@pytest.mark.parametrize("kappa", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("agent_class,tables", GREEDY_CASES)
def test_episode_walk_matches_step_loop_bit_for_bit(agent_class, tables,
                                                    kappa, learn,
                                                    protocol_calls):
    env = TaxiEnv()
    sides = {}
    for side, episode_env in (("step", SteppedEnv(env)), ("walk", env)):
        agent = tabular_agent(agent_class, env, tables)
        env_rng, agent_rng = (np.random.default_rng(11),
                              np.random.default_rng(12))
        before = dict(protocol_calls)
        logs = [run_episode(episode_env, agent, env_rng, agent_rng,
                            kappa=kappa, learn=learn) for _ in range(20)]
        calls = {name: protocol_calls[name] - before[name]
                 for name in before}
        sides[side] = (logs, table_bytes(agent), env_rng.bit_generator.state,
                       agent_rng.bit_generator.state, calls)
    step_logs, step_tables, step_env, step_agent, step_calls = sides["step"]
    walk_logs, walk_tables, walk_env, walk_agent, walk_calls = sides["walk"]
    assert walk_logs == step_logs
    assert walk_tables == step_tables
    assert walk_env == step_env and walk_agent == step_agent
    steps = sum(log.steps for log in step_logs)
    assert walk_calls == {"step": 0, "act": 0, "observe": 0}
    assert step_calls == {"step": steps, "act": steps,
                          "observe": steps if learn else 0}
    if tables == "zeros":   # ties play south until learning breaks them
        capped = [log.steps == env.spec.max_episode_steps
                  for log in step_logs]
        assert capped[0] and (learn or all(capped))
    if not learn:
        assert walk_tables == table_bytes(tabular_agent(agent_class, env,
                                                        tables))


@pytest.mark.parametrize("make_env,agent_class", [
    (TaxiEnv, EpsilonGreedyAgent),
    (lambda: CliffEnv(slip_prob=0.1), ExplorationValuesAgent),
    (lambda: CliffEnv(slip_prob=0.1), AdditiveBonusAgent),
    (lambda: CliffEnv(slip_prob=0.1), EpsilonGreedyAgent),
])
def test_eval_steps_when_act_or_step_draws(make_env, agent_class,
                                           run_episode_calls,
                                           protocol_calls):
    env = make_env()
    agent = tabular_agent(agent_class, env, "random")
    want, _ = reference_eval(env, agent, 5, np.random.default_rng(3))
    got = eval_pure_exploit(env, agent, 5, np.random.default_rng(3))
    assert len(run_episode_calls) == 5
    assert got.tobytes() == want.tobytes()
    # learning episodes step too, through act, env.step and observe
    rng = np.random.default_rng(4)
    before = dict(protocol_calls)
    steps = sum(run_episode(env, agent, rng, rng, kappa=0.4).steps
                for _ in range(3))
    assert {name: protocol_calls[name] - before[name]
            for name in before} == {"step": steps, "act": steps,
                                    "observe": steps}
