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

from ..core import EnvSpec, StepOutcome, real_number, whole_number

UP, RIGHT, DOWN, LEFT = 0, 1, 2, 3
_MOVES = {UP: (-1, 0), RIGHT: (0, 1), DOWN: (1, 0), LEFT: (0, -1)}


class CliffEnv:
    """States are row-major cell indices on a height x width grid."""

    def __init__(self, height: int = 4, width: int = 12,
                 slip_prob: float = 0.01, reward_scale: float = 1.0,
                 max_episode_steps: int = 500):
        self.slip_prob = real_number("slip_prob", slip_prob)
        if not 0.0 <= self.slip_prob <= 1.0:
            raise ValueError("slip_prob must lie in [0, 1]")
        self.height = whole_number("height", height)
        self.width = whole_number("width", width)
        if self.height < 2 or self.width < 2:
            raise ValueError("cliff needs at least 2 rows and 2 columns")
        self.reward_scale = real_number("reward_scale", reward_scale)
        self.start = (self.height - 1, 0)
        self.goal = (self.height - 1, self.width - 1)
        self.cliff = {(self.height - 1, c) for c in range(1, self.width - 1)}
        self.spec = EnvSpec(
            state_dim=2,
            max_episode_steps=max_episode_steps,
            n_states=self.height * self.width,
            n_actions=4,
        )

    def _index(self, cell) -> int:
        return cell[0] * self.width + cell[1]

    def reset(self, rng) -> int:
        return self._index(self.start)

    def observe(self, state: int):
        return state

    def transition_tables(self):
        """None: every step draws whether the move slips."""
        return None

    def step(self, state: int, action, rng) -> StepOutcome:
        a = int(action)
        if a not in _MOVES:
            raise ValueError(f"invalid cliff action {a}")
        if rng.random() < self.slip_prob:
            a = int(rng.integers(4))
        row, col = divmod(int(state), self.width)
        dr, dc = _MOVES[a]
        nr, nc = row + dr, col + dc
        if not (0 <= nr < self.height and 0 <= nc < self.width):
            nr, nc = row, col    # blocked by the boundary
        if (nr, nc) in self.cliff:
            return StepOutcome(self._index(self.start),
                               -1.0 * self.reward_scale, goal=False)
        if (nr, nc) == self.goal:
            return StepOutcome(self._index((nr, nc)),
                               1.0 * self.reward_scale, goal=True)
        return StepOutcome(self._index((nr, nc)), 0.0, goal=False)
