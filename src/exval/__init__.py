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

Import from the submodules (``exval.core``, ``exval.emuq``,
``exval.bench`` and so on): the package root loads none of them.
"""

__version__ = "0.1.0"
