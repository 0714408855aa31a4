"""Benchmark environments and the name-based construction registry.

All five domains are goal-only: ``step`` returns
``StepOutcome(next_state, reward, goal)``, and the goal is the only
absorbing state.  Penalties (a cliff fall, a wrong taxi pickup or
drop-off, a semi-sparse chain step) never end an episode.
"""

from __future__ import annotations

from .chain import ChainEnv
from .control import MountainCarEnv, PendulumEnv
from .gridworld import CliffEnv
from .taxi import TaxiEnv

_REGISTRY = {
    "chain": ChainEnv,
    "cliff": CliffEnv,
    "taxi": TaxiEnv,
    "mountaincar": MountainCarEnv,
    "pendulum": PendulumEnv,
}


def env_names():
    return sorted(_REGISTRY)


def make_env(name: str, **params):
    """Construct an environment by registry name with keyword parameters."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown environment {name!r}; known: {', '.join(env_names())}"
        ) from None
    return cls(**params)


__all__ = [
    "ChainEnv", "CliffEnv", "TaxiEnv", "MountainCarEnv", "PendulumEnv",
    "make_env", "env_names",
]
