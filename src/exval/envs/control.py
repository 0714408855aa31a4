"""Goal-only continuous-control domains: MountainCar and SinglePendulum.

Both keep raw physical state internally and expose observations min-max
normalized to [0, 1] per dimension.  Rewards are +1 at the goal (which
absorbs) and 0 elsewhere; there is no shaping, so reward gradients give
no guidance before the goal is first reached.
"""

from __future__ import annotations

import numpy as np

from ..core import EnvSpec, StepOutcome


class MountainCarEnv:
    """Under-actuated car in a valley; goal is the top of the right hill.

    State (x, v) with x in [-1.2, 1.0], v in [-0.07, 0.07]; wheel torque
    a in [-1, 1].  Dynamics:

        v' = clip(v + 0.0015 a - 0.0025 cos(3x), +-0.07)
        x' = clip(x + v', [-1.2, 1.0])

    Gravity (0.0025) exceeds full throttle (0.0015), so the goal
    x' > 0.9 is unreachable without building momentum by swinging.
    """

    X_MIN, X_MAX = -1.2, 1.0
    V_MAX = 0.07
    GOAL_X = 0.9
    POWER = 0.0015
    GRAVITY = 0.0025

    def __init__(self, max_episode_steps: int = 500):
        self.spec = EnvSpec(
            state_dim=2,
            max_episode_steps=max_episode_steps,
            action_low=np.array([-1.0]),
            action_high=np.array([1.0]),
        )

    def reset(self, rng) -> np.ndarray:
        return np.array([rng.uniform(-0.6, -0.4), 0.0])

    def observe(self, state: np.ndarray) -> np.ndarray:
        x, v = state
        return np.array([(x - self.X_MIN) / (self.X_MAX - self.X_MIN),
                         (v + self.V_MAX) / (2 * self.V_MAX)])

    def transition_tables(self):
        """None: continuous states have no lookup table."""
        return None

    def step(self, state: np.ndarray, action, rng) -> StepOutcome:
        a = float(np.asarray(action).reshape(-1)[0])
        if not -1.0 - 1e-9 <= a <= 1.0 + 1e-9:
            raise ValueError(f"torque {a} outside [-1, 1]")
        x, v = state
        # min/max clip 0-d values to the bits np.clip gives, at a tenth
        # of its cost
        v = min(max(v + self.POWER * a - self.GRAVITY * np.cos(3 * x),
                    -self.V_MAX), self.V_MAX)
        x = min(max(x + v, self.X_MIN), self.X_MAX)
        nxt = np.array([x, v])
        if x > self.GOAL_X:
            return StepOutcome(nxt, 1.0, goal=True)
        return StepOutcome(nxt, 0.0, goal=False)


class PendulumEnv:
    """Torque-limited pendulum; goal is holding the pole upright.

    Internal state (theta, theta_dot) with theta = 0 pointing up; agents
    observe (cos theta, sin theta, theta_dot) normalized to [0, 1]^3.
    Euler integration of

        theta_ddot = (3 g / (2 l)) sin(theta) + 3 a / (m l^2)

    with g = 10, m = 1, l = 1, dt = 0.05, theta_dot clipped to +-8 and
    torque a in [-2, 2].  |theta| < 0.05 rad pays +1 and absorbs.
    Straight down (theta = pi) is the stable equilibrium, so undirected
    policies stay near the bottom.
    """

    G = 10.0
    MASS = 1.0
    LENGTH = 1.0
    DT = 0.05
    MAX_SPEED = 8.0
    MAX_TORQUE = 2.0
    GOAL_ANGLE = 0.05

    def __init__(self, max_episode_steps: int = 500):
        self.spec = EnvSpec(
            state_dim=3,
            max_episode_steps=max_episode_steps,
            action_low=np.array([-self.MAX_TORQUE]),
            action_high=np.array([self.MAX_TORQUE]),
        )

    def reset(self, rng) -> np.ndarray:
        return np.array([rng.uniform(-np.pi, np.pi), rng.uniform(-1.0, 1.0)])

    def observe(self, state: np.ndarray) -> np.ndarray:
        theta, theta_dot = state
        return np.array([(np.cos(theta) + 1) / 2,
                         (np.sin(theta) + 1) / 2,
                         (theta_dot + self.MAX_SPEED) / (2 * self.MAX_SPEED)])

    def transition_tables(self):
        """None: continuous states have no lookup table."""
        return None

    def step(self, state: np.ndarray, action, rng) -> StepOutcome:
        a = float(np.asarray(action).reshape(-1)[0])
        if not -self.MAX_TORQUE - 1e-9 <= a <= self.MAX_TORQUE + 1e-9:
            raise ValueError(f"torque {a} outside [-2, 2]")
        theta, theta_dot = state
        acc = (3 * self.G / (2 * self.LENGTH)) * np.sin(theta) \
            + 3 * a / (self.MASS * self.LENGTH ** 2)
        theta_dot = min(max(theta_dot + acc * self.DT, -self.MAX_SPEED),
                        self.MAX_SPEED)
        theta = theta + theta_dot * self.DT
        theta = (theta + np.pi) % (2 * np.pi) - np.pi    # wrap to (-pi, pi]
        nxt = np.array([theta, theta_dot])
        if abs(theta) < self.GOAL_ANGLE:
            return StepOutcome(nxt, 1.0, goal=True)
        return StepOutcome(nxt, 0.0, goal=False)
