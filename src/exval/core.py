"""Environment protocol, episode runner, and RNG discipline.

Environments here are pure transition samplers: ``step`` maps (raw state,
action, rng) to a StepOutcome and keeps no episode bookkeeping.
StepOutcome and Transition are immutable named tuples, cheap to build
on every step and unpackable in field order.  Every domain is
goal-only: the goal is its only absorbing state, so one ``goal`` flag
both ends the episode and zeroes the bootstrap.  The
runner owns the step cap, which ends an episode without absorbing, and
assembles EpisodeLogs.  Raw states stay in physical units inside the
environment; ``observe`` converts them to what agents see (min-max
normalized vectors for continuous domains, plain integer indices for
tabular ones).  A tabular environment whose steps draw nothing and
whose ``observe`` is the identity also hands out its lookup tables
through ``transition_tables`` (the others return None), and as
per-state rows through ``transition_rows``.  Greedy evaluation, and the
learning and frozen episodes of agents whose ``act`` draws nothing
(``greedy_hooks``), walk these tables by raw state instead of stepping:
greedy tabular agents on taxi walk, while EpsilonGreedyAgent, which
draws when it acts, and every agent on cliff, chain, mountain car and
pendulum step.

Agents speak one protocol: ``act`` picks an action, ``observe`` learns
from a Transition and may return the action it has committed to for
the transition's next state (the runner then plays that action instead
of asking ``act`` again), and ``end_episode`` closes a learning
episode.  ``state_arrays`` gives what a checkpoint saves and
``load_state_arrays`` restores it; every agent raises CheckpointError
for an array whose shape or dtype kind is not its own.  Only on an env
with tables are agents also asked for ``greedy_policy`` and
``greedy_hooks``, which tabular agents answer.

Each run derives three independent random streams (environment, agent,
evaluation) from a (base_seed, run_seed) pair, so agent stochasticity
never perturbs environment draws across configurations and interleaved
evaluations never perturb training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class CheckpointError(Exception):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def checked_array(arrays, name: str, shape: tuple, kind: str,
                  noun: str = "array") -> np.ndarray:
    """A copy of the saved ``arrays[name]``, which must have ``shape`` and
    dtype kind ``kind``; CheckpointError names it otherwise."""
    array = np.asarray(arrays[name])
    if array.shape != shape or array.dtype.kind != kind:
        raise CheckpointError(
            f"{noun} {name!r} is {array.dtype} of shape {array.shape}; "
            f"this agent needs kind {kind!r} of shape {shape}")
    return np.array(array)


def whole_number(name: str, value) -> int:
    """``value`` as an int; a bool, a string or a fractional number is a
    ValueError naming ``name``, never truncated."""
    whole = (isinstance(value, int) or
             isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def real_number(name: str, value) -> float:
    """``value`` as a float; a bool, a string, NaN or an infinity is a
    ValueError naming ``name``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def unit_interval(name: str, value) -> float:
    """``value`` as a float in [0, 1]; anything else is a ValueError
    naming ``name``."""
    x = real_number(name, value)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return x


@dataclass(frozen=True)
class EnvSpec:
    """Static description of an environment's spaces and episode cap."""

    state_dim: int
    max_episode_steps: int
    n_states: int | None = None       # tabular state count, if discrete
    n_actions: int | None = None      # discrete action count
    action_low: np.ndarray | None = None   # box action bounds otherwise
    action_high: np.ndarray | None = None

    def __post_init__(self):
        steps = whole_number("max_episode_steps", self.max_episode_steps)
        if steps < 1:
            raise ValueError(f"max_episode_steps must be >= 1, got {steps}")
        object.__setattr__(self, "max_episode_steps", steps)

    @property
    def discrete_actions(self) -> bool:
        return self.n_actions is not None

    @property
    def action_dim(self) -> int:
        """Width of the action input: the one-hot length for discrete
        actions, the box's dimension otherwise."""
        return (self.n_actions if self.discrete_actions
                else len(self.action_low))


class StepOutcome(NamedTuple):
    """Raw result of one environment transition."""

    next_state: object
    reward: float
    goal: bool           # the goal was reached; it absorbs


class Transition(NamedTuple):
    """One agent-visible step.

    ``absorbing`` is the step's goal flag: only a goal step zeroes the
    value bootstrap.  A step-cap ending is not absorbing, because the
    underlying state could still be continued from.
    """

    state: object
    action: object
    reward: float
    next_state: object
    absorbing: bool


@dataclass
class EpisodeLog:
    return_undiscounted: float = 0.0
    steps: int = 0
    reached_goal: bool = False


def seed_streams(base_seed: int, run_seed: int):
    """Derive (env, agent, eval) generators for one run.

    The same (base_seed, run_seed) pair always yields the same three
    streams; distinct run_seeds yield statistically independent ones.
    """
    root = np.random.SeedSequence([int(base_seed), int(run_seed)])
    env_ss, agent_ss, eval_ss = root.spawn(3)
    return (np.random.default_rng(env_ss), np.random.default_rng(agent_ss),
            np.random.default_rng(eval_ss))


def run_episode(env, agent, env_rng, agent_rng, *, kappa: float,
                learn: bool = True) -> EpisodeLog:
    """Run one episode until the goal or the env's step cap.

    In learning mode the agent sees every transition through ``observe``
    and gets an ``end_episode`` hook.  An action that ``observe`` returns
    is the agent's choice for the next state and is played at the next
    step without calling ``act``; when it returns None, ``act`` is asked
    as usual.  Otherwise the agent is asked to act at every step, no
    Transition is built, and its internal state must come out bitwise
    untouched.

    When the env's ``transition_tables()`` and the agent's
    ``greedy_hooks()`` both give something (greedy tabular agents on
    taxi), the episode walks the env's ``transition_rows()`` instead,
    with no ``act``, ``observe`` or ``env.step`` call: each step plays
    ``choose``'s action and, when learning, applies ``learn``.  These
    hooks are what ``act`` and ``observe`` run, and rewards are summed
    in step order, so logs, tables and both streams match the step path
    bit for bit.  Every other pairing steps: the env has no tables, or
    the agent's ``act`` draws (EpsilonGreedyAgent).
    """
    log = EpisodeLog()
    raw = env.reset(env_rng)
    hooks = (None if env.transition_tables() is None
             else agent.greedy_hooks())
    if hooks is None:
        obs = env.observe(raw)
        pending = None
        for _ in range(env.spec.max_episode_steps):
            action = (agent.act(obs, kappa, agent_rng) if pending is None
                      else pending)
            outcome = env.step(raw, action, env_rng)
            raw = outcome.next_state
            obs_next = env.observe(raw)
            if learn:
                pending = agent.observe(Transition(obs, action,
                                                   outcome.reward, obs_next,
                                                   outcome.goal),
                                        kappa, agent_rng)
            log.return_undiscounted += outcome.reward
            log.steps += 1
            if outcome.goal:
                log.reached_goal = True
                break
            obs = obs_next
    else:
        choose, update = hooks
        rows = env.transition_rows()
        total = 0.0
        for steps in range(1, env.spec.max_episode_steps + 1):
            action = choose(raw, kappa)
            raw_next, reward, goal = rows[raw][action]
            if learn:
                update(raw, action, reward, raw_next, goal)
            total += reward
            if goal:
                log.reached_goal = True
                break
            raw = raw_next
        log.return_undiscounted, log.steps = total, steps
    if learn:
        agent.end_episode(kappa, agent_rng)
    return log


def eval_pure_exploit(env, agent, n_episodes: int, eval_rng) -> np.ndarray:
    """Score the current policy at kappa = 0 with models frozen.

    Runs n_episodes episodes with kappa forced to 0 and no learning and
    returns their undiscounted returns.  Draws only from the eval
    stream, so interleaving these does not disturb training streams.

    When the env's ``transition_tables()`` and the agent's
    ``greedy_policy()`` both give tables (greedy tabular agents on
    taxi), each episode walks per-state lists built once per call:
    ``env.reset`` draws the start and rewards are summed in step order,
    so returns and eval-stream draws match the step path bit for bit.
    Otherwise every step goes through ``run_episode``, because the env's
    ``step`` draws (cliff slip, chain), its states are continuous, or
    the agent's ``act`` draws.  EpsilonGreedyAgent keeps drawing its
    epsilon here, so its evaluation is not purely greedy; it takes the
    step path, as does EmuQ.
    """
    tables = env.transition_tables()
    policy = None if tables is None else agent.greedy_policy()
    returns = np.empty(n_episodes)
    if policy is None:
        for i in range(n_episodes):
            log = run_episode(env, agent, eval_rng, eval_rng, kappa=0.0,
                              learn=False)
            returns[i] = log.return_undiscounted
        return returns
    states = np.arange(len(policy))
    next_state, reward, goal = (table[states, policy].tolist()
                                for table in tables)
    for i in range(n_episodes):
        s = env.reset(eval_rng)
        total = 0.0
        for _ in range(env.spec.max_episode_steps):
            total += reward[s]
            if goal[s]:
                break
            s = next_state[s]
        returns[i] = total
    return returns
