"""exval: exploration values for reinforcement learning.

Exploitation (Q) and exploration (U) are learned as separate value
functions and combined only at decision time, pi(s) = argmax_a
Q(s,a) + kappa * U(s,a), so the exploration appetite kappa can be
changed, scheduled, or zeroed at any point without retraining.

The package provides tabular agents with visit-count exploration
rewards, a Bayesian linear-regression agent over random Fourier
features whose exploration reward is its own posterior variance,
goal-only benchmark environments, kappa schedules, and a seeded
experiment harness with a CLI (``exval-bench``).
"""

from .bayes import BayesianLinearModel, exact_posterior
from .core import (EnvSpec, EpisodeLog, Transition, eval_pure_exploit,
                   run_episode, seed_streams)
from .emuq import EmuQ, EmuqConfig
from .envs import make_env
from .features import (JointRffMap, RffMap, kernel_exact, make_joint_map,
                       rff_embed, sample_rff)
from .schedules import make_schedule
from .tabular import (AdditiveBonusAgent, EpsilonGreedyAgent,
                      ExplorationValuesAgent, count_bonus, q_update)

__version__ = "0.1.0"

__all__ = [
    "BayesianLinearModel", "exact_posterior",
    "EnvSpec", "EpisodeLog", "Transition", "run_episode",
    "eval_pure_exploit", "seed_streams",
    "EmuQ", "EmuqConfig",
    "make_env",
    "RffMap", "JointRffMap", "sample_rff", "rff_embed", "make_joint_map",
    "kernel_exact",
    "make_schedule",
    "EpsilonGreedyAgent", "AdditiveBonusAgent", "ExplorationValuesAgent",
    "count_bonus", "q_update",
    "__version__",
]
