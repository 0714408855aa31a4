"""Tabular Q-learning agents over discrete state/action environments.

Three agents sharing one TD update rule:

* EpsilonGreedyAgent: plain Q-learning, uniform random action with
  probability epsilon, no intrinsic rewards.
* AdditiveBonusAgent: one value table trained on r + xi * bonus, acting
  greedily; the classic additive intrinsic-reward scheme.  Exploration
  cannot be turned off because the bonuses live inside the Q table.
* ExplorationValuesAgent: two tables, Q on environment rewards only and
  U on visit bonuses only, combined at decision time as
  argmax_a Q(s,a) + kappa * U(s,a).  Setting kappa to 0 yields the pure
  exploitation policy instantly.

The visit bonus pays 0 for a never-seen (state, action) pair and -1 for
any revisit; counts increment after the bonus for a transition is
computed.  Tables start at 0, which is optimistic relative to the
non-positive bonuses.
"""

from __future__ import annotations

import numpy as np

from .core import Transition


def count_bonus(counts: np.ndarray, s: int, a: int) -> float:
    """0 on first experience of (s, a), -1 on any revisit."""
    return 0.0 if counts[s, a] == 0 else -1.0


def q_update(table: np.ndarray, s: int, a: int, reward: float, s_next: int,
             absorbing: bool, lr: float, gamma: float) -> None:
    """One TD(0) backup with a max bootstrap, zeroed on absorption."""
    bootstrap = 0.0 if absorbing else float(table[s_next].max())
    table[s, a] += lr * (reward + gamma * bootstrap - table[s, a])


def greedy_action(row: np.ndarray) -> int:
    """Lowest index among maximizers, making greedy play deterministic."""
    return int(row.argmax())


class TabularAgent:
    """What the table agents share: no episode-end work, no run
    statistics, no per-state greedy policy unless a subclass overrides
    ``greedy_policy``, and checkpoint state made of the tables named in
    ``TABLES``."""

    TABLES: tuple[str, ...] = ()

    def greedy_policy(self):
        """The action ``act`` picks in every state at kappa = 0, as an
        int array, or None when ``act`` draws from its rng."""
        return None

    def end_episode(self, kappa: float, rng) -> None:
        pass

    def run_stats(self) -> dict:
        return {}

    def state_arrays(self) -> dict:
        return {name: getattr(self, name) for name in self.TABLES}

    def load_state_arrays(self, arrays) -> None:
        for name in self.TABLES:
            setattr(self, name, np.array(arrays[name]))


class EpsilonGreedyAgent(TabularAgent):
    TABLES = ("q",)

    def __init__(self, n_states: int, n_actions: int, epsilon: float = 0.1,
                 lr: float = 0.1, gamma: float = 0.99):
        self.q = np.zeros((n_states, n_actions))
        self.epsilon = float(epsilon)
        self.lr = float(lr)
        self.gamma = float(gamma)
        self.n_actions = int(n_actions)

    def act(self, obs: int, kappa: float, rng) -> int:
        if rng.random() < self.epsilon:
            return int(rng.integers(self.n_actions))
        # Random tie-break keeps the all-zero-table phase an unbiased
        # walk instead of hammering action 0.
        row = self.q[obs]
        best = np.flatnonzero(row == row.max())
        if best.size == 1:
            return int(best[0])
        return int(best[rng.integers(best.size)])

    def observe(self, tr: Transition, kappa: float, rng) -> None:
        q_update(self.q, tr.state, tr.action, tr.reward, tr.next_state,
                 tr.absorbing, self.lr, self.gamma)


class AdditiveBonusAgent(TabularAgent):
    TABLES = ("q", "counts")

    def __init__(self, n_states: int, n_actions: int, xi: float = 1.0,
                 lr: float = 0.1, gamma: float = 0.99):
        self.q = np.zeros((n_states, n_actions))
        self.counts = np.zeros((n_states, n_actions), dtype=np.int64)
        self.xi = float(xi)
        self.lr = float(lr)
        self.gamma = float(gamma)

    def act(self, obs: int, kappa: float, rng) -> int:
        return greedy_action(self.q[obs])

    def greedy_policy(self) -> np.ndarray:
        return self.q.argmax(axis=1)

    def observe(self, tr: Transition, kappa: float, rng) -> None:
        bonus = count_bonus(self.counts, tr.state, tr.action)
        q_update(self.q, tr.state, tr.action, tr.reward + self.xi * bonus,
                 tr.next_state, tr.absorbing, self.lr, self.gamma)
        self.counts[tr.state, tr.action] += 1


class ExplorationValuesAgent(TabularAgent):
    TABLES = ("q", "u", "counts")

    def __init__(self, n_states: int, n_actions: int, lr: float = 0.1,
                 gamma: float = 0.99):
        self.q = np.zeros((n_states, n_actions))
        self.u = np.zeros((n_states, n_actions))
        self.counts = np.zeros((n_states, n_actions), dtype=np.int64)
        self.lr = float(lr)
        self.gamma = float(gamma)

    def act(self, obs: int, kappa: float, rng) -> int:
        return greedy_action(self.q[obs] + kappa * self.u[obs])

    def greedy_policy(self) -> np.ndarray:
        return (self.q + 0.0 * self.u).argmax(axis=1)     # act at kappa = 0

    def observe(self, tr: Transition, kappa: float, rng) -> None:
        bonus = count_bonus(self.counts, tr.state, tr.action)
        q_update(self.q, tr.state, tr.action, tr.reward, tr.next_state,
                 tr.absorbing, self.lr, self.gamma)
        q_update(self.u, tr.state, tr.action, bonus, tr.next_state,
                 tr.absorbing, self.lr, self.gamma)
        self.counts[tr.state, tr.action] += 1
