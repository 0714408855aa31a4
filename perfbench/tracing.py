"""Spans around the program's public functions, recorded from outside it.

A wrapper is installed at the name its callers look it up by (a module
global or a class attribute) and removed afterwards; the program's
source is not edited. Each span stores its name, start, end and parent
span in compact arrays kept in memory; ``layer_totals`` turns them into
per-name call counts, total time and self time (duration minus the
durations of direct child spans).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def install(owner, attr, make_wrapper):
    """Replace owner.attr by make_wrapper(original); return an undo record.

    The attribute must be defined on ``owner`` itself (a module global or
    a class's own method), so restoring it puts back exactly what was
    there.
    """
    original = vars(owner)[attr]
    setattr(owner, attr, make_wrapper(original))
    return owner, attr, original


def uninstall(records) -> None:
    for owner, attr, original in reversed(records):
        setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder; one instance per traced round."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)
        self._stack: list[int] = []
        self._records = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr, name, on_return=None) -> None:
        """Record a span named ``name`` around every call of owner.attr.

        ``on_return(args, kwargs, result, counts)`` may add work counts.
        """
        nid = self._name(name)
        clock, stack, end = self.clock, self._stack, self.end
        names_add, parent_add = self.name_id.append, self.parent.append
        start_add, end_add = self.start.append, self.end.append
        counts = self.counts

        def make_wrapper(original):
            def traced(*args, **kwargs):
                idx = len(end)
                names_add(nid)
                parent_add(stack[-1] if stack else -1)
                end_add(0.0)
                stack.append(idx)
                start_add(clock())
                try:
                    result = original(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
                if on_return is not None:
                    on_return(args, kwargs, result, counts)
                return result
            return traced

        self._records.append(install(owner, attr, make_wrapper))

    def close(self) -> None:
        """Remove every wrapper this tracer installed."""
        uninstall(self._records)
        self._records = []

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.asarray(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)


def layer_totals(names, name_id, parent, start, end):
    """Per-name {calls, total_s, self_s} plus the time top-level spans cover.

    A span's self time is its duration minus the summed durations of its
    direct children. Spans come from one thread and nest strictly, so
    children never overlap each other and lie inside their parent.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested],
                             minlength=len(duration))
    self_time = duration - child_time
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    total = np.bincount(name_id, weights=duration, minlength=n)
    own = np.bincount(name_id, weights=self_time, minlength=n)
    per_name = {names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                           "self_s": float(own[i])} for i in range(n)}
    return per_name, float(duration[~nested].sum())
