"""A machine-speed reference taken during timed rounds.

This machine's speed drifts by a quarter and more over seconds to
minutes (see README.md, "Machine speed"), so raw round times of the same code spread past the
benchmark's bounds. A fixed slice of reference work, which does not
touch exval, runs in the main thread from a SIGALRM handler every
PERIOD_S seconds of a timed round. Each tick runs the slice twice and
times the second run, so the slice's code and data are in cache
whatever the program left there. The ticks' own time is taken out of
the round, and the rest is rescaled to the speed at which one slice
takes REF_SLICE_S:

    ref_s = (wall - time in ticks) * REF_SLICE_S / median slice

A change to the program moves ``ref_s`` as it moves the round, since
the slice stays the same; a change in the machine's speed moves the
slice with the round and cancels out. The slice is a few small matrix
products on one BLAS thread. Its time tracked the round time of both
workloads in proportion (log-log slope 0.85 on mountain car and 1.02
on taxi), while slices of interpreter loops or of numpy calls on small
rows moved more than the rounds did (slopes 0.63 to 0.79). Signals wait
until a running C call returns, so slices fall between the program's
numpy calls, never inside them.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
# About the median slice on the machine described in README.md.
REF_SLICE_S = 0.0005

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((128, 128))
_X = _rng.standard_normal((64, 128))


def reference_slice() -> None:
    """The fixed reference work."""
    for _ in range(8):
        y = _X @ _A
        np.sum(y * y)


class SpeedProbe:
    """Runs ``reference_slice`` every PERIOD_S while in its ``with`` block.

    Use a new probe for each round. The timer is one-shot and re-armed
    when a tick ends, so ticks never nest. ``slices`` holds each timed
    slice's duration and ``spent`` the time of all ticks, warm-up runs
    included.
    """

    def __init__(self):
        self.slices: list[float] = []
        self.spent = 0.0
        self._active = False

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference_slice()
        t1 = perf_counter()
        reference_slice()
        t2 = perf_counter()
        self.slices.append(t2 - t1)
        self.spent += t2 - t0
        # A tick that runs while the block exits must not re-arm the
        # timer: SIGALRM's default action would end the process.
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def rescale(wall: float, spent: float, slices) -> tuple[float, float]:
    """(round time at the reference speed, median slice) of a round
    that took ``wall`` seconds, ``spent`` of them in ticks."""
    slice_s = statistics.median(slices)
    return (wall - spent) * REF_SLICE_S / slice_s, slice_s
