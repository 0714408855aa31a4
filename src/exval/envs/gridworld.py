"""Goal-only Cliff Walking on a 4x12 grid.

The agent starts at the bottom-left corner and must reach the
bottom-right corner.  The cells between them along the bottom row are
the cliff: stepping into one pays -1 and teleports the agent back to
the start without ending the episode.  Reaching the goal pays +1 and
absorbs.  Every move is replaced by a uniformly random direction with
probability slip_prob.  All other rewards are zero.
"""

from __future__ import annotations

import numpy as np

from ..core import EnvSpec, StepOutcome, real_number, unit_interval

UP, RIGHT, DOWN, LEFT = 0, 1, 2, 3
_MOVES = {UP: (-1, 0), RIGHT: (0, 1), DOWN: (1, 0), LEFT: (0, -1)}


class CliffEnv:
    """States are row-major cell indices on the HEIGHT x WIDTH grid."""

    HEIGHT, WIDTH = 4, 12

    def __init__(self, slip_prob: float = 0.01, reward_scale: float = 1.0,
                 max_episode_steps: int = 500):
        self.slip_prob = unit_interval("slip_prob", slip_prob)
        self.reward_scale = real_number("reward_scale", reward_scale)
        self.start = (self.HEIGHT - 1, 0)
        self.goal = (self.HEIGHT - 1, self.WIDTH - 1)
        self.cliff = {(self.HEIGHT - 1, c) for c in range(1, self.WIDTH - 1)}
        self.spec = EnvSpec(
            state_dim=2,
            max_episode_steps=max_episode_steps,
            n_states=self.HEIGHT * self.WIDTH,
            n_actions=4,
        )

    def _index(self, cell) -> int:
        return cell[0] * self.WIDTH + cell[1]

    def reset(self, rng) -> int:
        return self._index(self.start)

    def observe(self, state: int):
        return state

    def transition_rows(self):
        """None: every step draws whether the move slips."""
        return None

    def step(self, state: int, action, rng) -> StepOutcome:
        a = int(action)
        if a not in _MOVES:
            raise ValueError(f"invalid cliff action {a}")
        if rng.random() < self.slip_prob:
            a = int(rng.integers(4))
        row, col = divmod(int(state), self.WIDTH)
        dr, dc = _MOVES[a]
        nr, nc = row + dr, col + dc
        if not (0 <= nr < self.HEIGHT and 0 <= nc < self.WIDTH):
            nr, nc = row, col    # blocked by the boundary
        if (nr, nc) in self.cliff:
            return StepOutcome(self._index(self.start),
                               -1.0 * self.reward_scale, goal=False)
        if (nr, nc) == self.goal:
            return StepOutcome(self._index((nr, nc)),
                               1.0 * self.reward_scale, goal=True)
        return StepOutcome(self._index((nr, nc)), 0.0, goal=False)
