"""Exploration-weight schedules controlling kappa across episodes.

The schedule clock ticks once per training episode.  Schedules answer
two questions each episode: what kappa to act with, and whether model
learning is frozen.  The target-stop variant additionally consumes the
returns of interleaved pure-exploitation evaluation episodes and latches
exploration off permanently once the target is met.
"""

from __future__ import annotations

import numpy as np

from .core import real_number, whole_number


class ConstantKappa:
    wants_eval = False

    def __init__(self, kappa0: float):
        self.kappa0 = real_number("kappa0", kappa0)

    def kappa_at(self, episode: int) -> float:
        return self.kappa0

    def frozen_at(self, episode: int) -> bool:
        return False


class DecayKappa:
    """kappa(t) = 1 / (1 + c t) with t counted in episodes."""

    wants_eval = False

    def __init__(self, c: float):
        self.c = real_number("c", c)
        if self.c < 0:
            raise ValueError(f"c must be >= 0, got {c!r}")

    def kappa_at(self, episode: int) -> float:
        return 1.0 / (1.0 + self.c * episode)

    def frozen_at(self, episode: int) -> bool:
        return False


class BudgetStop:
    """kappa0 for the first ``budget`` episodes, then 0 with all learning
    (tables, posteriors, and visit counts) frozen."""

    wants_eval = False

    def __init__(self, kappa0: float, budget: int):
        self.kappa0 = real_number("kappa0", kappa0)
        self.budget = whole_number("budget", budget)

    def kappa_at(self, episode: int) -> float:
        return self.kappa0 if episode < self.budget else 0.0

    def frozen_at(self, episode: int) -> bool:
        return episode >= self.budget


class StopResume:
    """Exploration and learning pause during [stop_at, resume_at)."""

    wants_eval = False

    def __init__(self, kappa0: float, stop_at: int, resume_at: int):
        self.kappa0 = real_number("kappa0", kappa0)
        self.stop_at = whole_number("stop_at", stop_at)
        self.resume_at = whole_number("resume_at", resume_at)
        if self.resume_at < self.stop_at:
            raise ValueError("resume_at must be >= stop_at")

    def _stopped(self, episode: int) -> bool:
        return self.stop_at <= episode < self.resume_at

    def kappa_at(self, episode: int) -> float:
        return 0.0 if self._stopped(episode) else self.kappa0

    def frozen_at(self, episode: int) -> bool:
        return self._stopped(episode)


class TargetStop:
    """Latch kappa to 0 once n_eval consecutive evaluation returns beat
    the target.

    After every training episode the run loop scores the greedy policy
    with n_eval pure-exploitation episodes and feeds the returns back
    through ``note_eval``.  Only the count of consecutive returns
    strictly above the target is kept, and it carries across calls.
    Latching is permanent; learning continues (only exploration stops,
    so the policy keeps refining on clean rewards).  kappa0 must not be
    0: a run's summary dates the latch by its first episode at kappa 0.
    """

    wants_eval = True

    def __init__(self, kappa0: float, target: float = 0.1,
                 n_eval: int = 5):
        self.kappa0 = real_number("kappa0", kappa0)
        if self.kappa0 == 0.0:
            raise ValueError("kappa0 must not be 0 with target_stop, "
                             "whose latch is dated by the first kappa 0")
        self.target = real_number("target", target)
        self.n_eval = whole_number("n_eval", n_eval)
        if self.n_eval < 1:
            raise ValueError(f"n_eval must be >= 1, got {n_eval!r}")
        self.passes = 0
        self.latched_at = None

    @property
    def latched(self) -> bool:
        return self.latched_at is not None

    def kappa_at(self, episode: int) -> float:
        return 0.0 if self.latched else self.kappa0

    def frozen_at(self, episode: int) -> bool:
        return False

    def note_eval(self, returns, episode: int) -> None:
        if self.latched:
            return
        for r in np.atleast_1d(returns):
            self.passes = self.passes + 1 if r > self.target else 0
        if self.passes >= self.n_eval:
            self.latched_at = int(episode)


_VARIANTS = {
    "constant": ConstantKappa,
    "decay": DecayKappa,
    "budget_stop": BudgetStop,
    "stop_resume": StopResume,
    "target_stop": TargetStop,
}


def make_schedule(variant: str, **params):
    try:
        cls = _VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown schedule variant {variant!r}; known: "
            f"{', '.join(sorted(_VARIANTS))}") from None
    return cls(**params)
