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

The tables (``q``, ``u``, ``counts``) are (n_states, n_actions) numpy
arrays, public and writable in place.  The step path (``act``,
``observe`` and the helpers below) reads and writes them through one
flat memoryview per table, rebuilt whenever a table is assigned: a row
is the slice ``view[s * A:(s + 1) * A]`` and a cell is ``view[s * A +
a]``, so each step works on Python floats and ints rather than numpy
scalars, with the same operations in the same order.

The two greedy agents keep their choice and their update in
``_greedy`` and ``_learn``.  ``act`` and ``observe`` call them, and
``greedy_hooks`` hands them to ``core.run_episode``, which on taxi
walks the tables through them instead of stepping.  EpsilonGreedyAgent,
whose ``act`` draws, has no hooks and steps on every env.
"""

from __future__ import annotations

import numpy as np

from .core import Transition, checked_array, real_number, unit_interval


def count_bonus(counts, cell: int) -> float:
    """0 on first experience of the flat (s, a) cell, -1 on any revisit."""
    return 0.0 if counts[cell] == 0 else -1.0


def q_update(table, n_actions: int, s: int, a: int, reward: float,
             s_next: int, absorbing: bool, lr: float, gamma: float) -> None:
    """One TD(0) backup with a max bootstrap, zeroed on absorption, on a
    flat view of an (n_states, n_actions) table."""
    bootstrap = (0.0 if absorbing else
                 max(table[s_next * n_actions:(s_next + 1) * n_actions]))
    cell = s * n_actions + a
    table[cell] += lr * (reward + gamma * bootstrap - table[cell])


def greedy_action(row) -> int:
    """Lowest index among maximizers, making greedy play deterministic."""
    values = list(row)
    return values.index(max(values))


class _Table:
    """A table attribute: a C-contiguous array of ``dtype``, plus the
    flat memoryview of it that the step path uses, kept in the
    instance under ``_<name>_view`` and rebuilt on every assignment."""

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)

    def __set_name__(self, owner, name: str) -> None:
        self.name = name
        self.view_name = f"_{name}_view"

    def __get__(self, agent, owner=None):
        if agent is None:
            return self
        return agent.__dict__[self.name]

    def __set__(self, agent, value) -> None:
        table = np.ascontiguousarray(value, dtype=self.dtype)
        agent.__dict__[self.name] = table
        agent.__dict__[self.view_name] = memoryview(table.reshape(-1))


class TabularAgent:
    """What the table agents share: zeroed (n_states, n_actions) tables
    named in ``TABLES`` (each a ``_Table`` of its class), no episode-end
    work, no run statistics, no per-state greedy policy unless a
    subclass overrides ``greedy_policy``, and checkpoint state made of
    those tables."""

    TABLES: tuple[str, ...] = ()

    def __init__(self, n_states: int, n_actions: int, lr: float = 0.1,
                 gamma: float = 0.99):
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.lr = real_number("lr", lr)
        if not 0.0 < self.lr <= 1.0:
            raise ValueError(f"lr must lie in (0, 1], got {lr!r}")
        self.gamma = unit_interval("gamma", gamma)
        for name in self.TABLES:
            setattr(self, name, np.zeros((self.n_states, self.n_actions)))

    def greedy_policy(self):
        """The action ``act`` picks in every state at kappa = 0, as an
        int array, or None when ``act`` draws from its rng."""
        return None

    def greedy_hooks(self):
        """``(choose, learn)``, or None when ``act`` draws from its rng.

        ``choose(s, kappa)`` is the action ``act`` picks in state s, and
        ``learn(s, a, reward, s_next, absorbing)`` is what ``observe``
        does with that transition; ``observe`` commits to no action.
        """
        return None

    def end_episode(self, kappa: float, rng) -> None:
        pass

    def run_stats(self) -> dict:
        return {}

    def state_arrays(self) -> dict:
        return {name: getattr(self, name) for name in self.TABLES}

    def load_state_arrays(self, arrays) -> None:
        """Copy in saved tables, which must have this agent's shape and
        the dtype kind of its tables (float, or int for counts)."""
        shape = (self.n_states, self.n_actions)
        for name in self.TABLES:
            kind = getattr(type(self), name).dtype.kind
            setattr(self, name, checked_array(arrays, name, shape, kind,
                                              noun="table"))


class EpsilonGreedyAgent(TabularAgent):
    TABLES = ("q",)
    q = _Table(np.float64)

    def __init__(self, n_states: int, n_actions: int, epsilon: float = 0.1,
                 lr: float = 0.1, gamma: float = 0.99):
        super().__init__(n_states, n_actions, lr, gamma)
        self.epsilon = unit_interval("epsilon", epsilon)

    def act(self, obs: int, kappa: float, rng) -> int:
        if rng.random() < self.epsilon:
            return int(rng.integers(self.n_actions))
        # Random tie-break keeps the all-zero-table phase an unbiased
        # walk instead of hammering action 0.
        n = self.n_actions
        row = self._q_view[obs * n:(obs + 1) * n]
        top = max(row)
        best = [a for a, value in enumerate(row) if value == top]
        if len(best) == 1:
            return best[0]
        return best[rng.integers(len(best))]

    def observe(self, tr: Transition, kappa: float, rng) -> None:
        s, a, reward, s_next, absorbing = tr
        q_update(self._q_view, self.n_actions, s, a, reward, s_next,
                 absorbing, self.lr, self.gamma)


class AdditiveBonusAgent(TabularAgent):
    TABLES = ("q", "counts")
    q = _Table(np.float64)
    counts = _Table(np.int64)

    def __init__(self, n_states: int, n_actions: int, xi: float = 1.0,
                 lr: float = 0.1, gamma: float = 0.99):
        super().__init__(n_states, n_actions, lr, gamma)
        self.xi = real_number("xi", xi)

    def act(self, obs: int, kappa: float, rng) -> int:
        return self._greedy(obs, kappa)

    def greedy_policy(self) -> np.ndarray:
        return self.q.argmax(axis=1)

    def greedy_hooks(self):
        return self._greedy, self._learn

    def observe(self, tr: Transition, kappa: float, rng) -> None:
        self._learn(*tr)

    def _greedy(self, s: int, kappa: float) -> int:
        n = self.n_actions
        return greedy_action(self._q_view[s * n:(s + 1) * n])

    def _learn(self, s: int, a: int, reward: float, s_next: int,
               absorbing: bool) -> None:
        n = self.n_actions
        counts = self._counts_view
        cell = s * n + a
        bonus = count_bonus(counts, cell)
        q_update(self._q_view, n, s, a, reward + self.xi * bonus, s_next,
                 absorbing, self.lr, self.gamma)
        counts[cell] += 1


class ExplorationValuesAgent(TabularAgent):
    TABLES = ("q", "u", "counts")
    q = _Table(np.float64)
    u = _Table(np.float64)
    counts = _Table(np.int64)

    def act(self, obs: int, kappa: float, rng) -> int:
        return self._greedy(obs, kappa)

    def greedy_policy(self) -> np.ndarray:
        return (self.q + 0.0 * self.u).argmax(axis=1)     # act at kappa = 0

    def greedy_hooks(self):
        return self._greedy, self._learn

    def observe(self, tr: Transition, kappa: float, rng) -> None:
        self._learn(*tr)

    def _greedy(self, s: int, kappa: float) -> int:
        n = self.n_actions
        lo, hi = s * n, (s + 1) * n
        return greedy_action([q + kappa * u for q, u in
                              zip(self._q_view[lo:hi], self._u_view[lo:hi])])

    def _learn(self, s: int, a: int, reward: float, s_next: int,
               absorbing: bool) -> None:
        n = self.n_actions
        counts = self._counts_view
        cell = s * n + a
        bonus = count_bonus(counts, cell)
        q_update(self._q_view, n, s, a, reward, s_next, absorbing, self.lr,
                 self.gamma)
        q_update(self._u_view, n, s, a, bonus, s_next, absorbing, self.lr,
                 self.gamma)
        counts[cell] += 1
