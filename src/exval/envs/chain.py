"""Chain domain: N states in a row, goal at the far right end.

Action right moves right with probability 1 - 1/N and otherwise left;
action left always moves left.  Failed outward moves at the left edge
self-loop.  Reaching the last state pays +1 and absorbs.  The optional
semi-sparse variant additionally pays -1 on each non-goal transition
with probability 1 - p, so p = 1 recovers the goal-only reward and
p = 0 penalizes every non-goal step.

Hard for undirected exploration: the dynamics drift left, so a random
walk needs time exponential in N to first touch the goal.
"""

from __future__ import annotations

import numpy as np

from ..core import EnvSpec, StepOutcome, unit_interval, whole_number

LEFT, RIGHT = 0, 1


class ChainEnv:
    """States are indices 0..N-1; start at 0, goal at N-1.

    With ``vector_obs`` the agent sees the state as a length-1 vector
    normalized to [0, 1] (for function-approximation agents); otherwise
    it sees the bare index (for tabular agents).
    """

    def __init__(self, n_states: int, semi_sparse_p: float | None = None,
                 vector_obs: bool = False, max_episode_steps: int = 1000):
        self.n = whole_number("n_states", n_states)
        if self.n < 2:
            raise ValueError("chain needs at least 2 states")
        if semi_sparse_p is not None:
            semi_sparse_p = unit_interval("semi_sparse_p", semi_sparse_p)
        if not isinstance(vector_obs, bool):
            raise ValueError("vector_obs must be true or false, "
                             f"got {vector_obs!r}")
        self.semi_sparse_p = semi_sparse_p
        self.vector_obs = vector_obs
        self.spec = EnvSpec(
            state_dim=1,
            max_episode_steps=max_episode_steps,
            n_states=self.n,
            n_actions=2,
        )

    def reset(self, rng) -> int:
        return 0

    def observe(self, state: int):
        if self.vector_obs:
            return np.array([state / (self.n - 1)])
        return state

    def transition_rows(self):
        """None: a right move draws whether it slips back."""
        return None

    def step(self, state: int, action, rng) -> StepOutcome:
        if not 0 <= state < self.n - 1:
            raise ValueError(f"cannot step from state {state}")
        a = int(action)
        if a not in (LEFT, RIGHT):
            raise ValueError(f"invalid chain action {a}")
        if a == RIGHT and rng.random() < 1.0 - 1.0 / self.n:
            nxt = state + 1
        else:
            nxt = max(state - 1, 0)
        if nxt == self.n - 1:
            return StepOutcome(nxt, 1.0, goal=True)
        reward = 0.0
        if self.semi_sparse_p is not None:
            if rng.random() < 1.0 - self.semi_sparse_p:
                reward = -1.0
        return StepOutcome(nxt, reward, goal=False)

