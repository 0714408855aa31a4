"""Goal-only Taxi on the canonical 5x5 grid.

Four special cells (R, G, Y, B).  Each episode the taxi starts in a
random cell, a passenger waits at one special cell, and a different
special cell is the destination.  Dropping the passenger at the
destination pays +1 and is the goal, the only absorbing state; pickup
or dropoff anywhere wrong pays -0.1; moves pay 0.  Moves through the
grid's interior walls are blocked.

The 500 states encode (taxi row, taxi column, passenger location,
destination), with passenger location 4 meaning "in the taxi".  All
transitions are deterministic, so they are precomputed into read-only
lookup tables once per process and shared by every instance; ``step``
reads them through 2-D memoryviews, which hand out plain Python ints,
floats and bools.  The same tables also come as nested tuples of those
Python scalars, built once per process too, for the episode runner's
table walk.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..core import EnvSpec, StepOutcome

SOUTH, NORTH, EAST, WEST, PICKUP, DROPOFF = range(6)

SPECIAL_CELLS = ((0, 0), (0, 4), (4, 0), (4, 3))    # R, G, Y, B
IN_TAXI = 4

# Interior walls of the canonical layout, as unordered cell pairs that
# east/west moves may not cross.
_WALLS = {
    frozenset({(0, 1), (0, 2)}),
    frozenset({(1, 1), (1, 2)}),
    frozenset({(3, 0), (3, 1)}),
    frozenset({(4, 0), (4, 1)}),
    frozenset({(3, 2), (3, 3)}),
    frozenset({(4, 2), (4, 3)}),
}


def encode(row: int, col: int, pass_loc: int, dest: int) -> int:
    return ((row * 5 + col) * 5 + pass_loc) * 4 + dest


def decode(state: int):
    state, dest = divmod(state, 4)
    state, pass_loc = divmod(state, 5)
    row, col = divmod(state, 5)
    return row, col, pass_loc, dest


@cache
def _tables():
    """The (next_state, reward, terminal) tables indexed [state, action],
    built on first use and read-only."""
    n = 500
    next_state = np.empty((n, 6), dtype=np.int64)
    reward = np.zeros((n, 6))
    terminal = np.zeros((n, 6), dtype=bool)
    for s in range(n):
        row, col, pass_loc, dest = decode(s)
        for a in range(6):
            nr, nc, np_loc = row, col, pass_loc
            r = 0.0
            term = False
            if a == SOUTH:
                nr = min(row + 1, 4)
            elif a == NORTH:
                nr = max(row - 1, 0)
            elif a == EAST:
                if frozenset({(row, col), (row, col + 1)}) not in _WALLS:
                    nc = min(col + 1, 4)
            elif a == WEST:
                if frozenset({(row, col), (row, col - 1)}) not in _WALLS:
                    nc = max(col - 1, 0)
            elif a == PICKUP:
                if (pass_loc < IN_TAXI
                        and (row, col) == SPECIAL_CELLS[pass_loc]):
                    np_loc = IN_TAXI
                else:
                    r = -0.1
            else:    # DROPOFF
                if pass_loc == IN_TAXI and (row, col) == SPECIAL_CELLS[dest]:
                    np_loc = dest
                    r = 1.0
                    term = True
                elif pass_loc == IN_TAXI and (row, col) in SPECIAL_CELLS:
                    # Legal set-down at the wrong special cell: the
                    # passenger leaves the taxi, penalty applies.
                    np_loc = SPECIAL_CELLS.index((row, col))
                    r = -0.1
                else:
                    r = -0.1
            next_state[s, a] = encode(nr, nc, np_loc, dest)
            reward[s, a] = r
            terminal[s, a] = term
    for table in (next_state, reward, terminal):
        table.setflags(write=False)
    return next_state, reward, terminal


@cache
def _rows():
    """``_tables()`` as per-state tuples of per-action (next_state,
    reward, terminal) tuples of Python scalars, built on first use."""
    return tuple(tuple(zip(*row)) for row in
                 zip(*(table.tolist() for table in _tables())))


class TaxiEnv:
    def __init__(self, max_episode_steps: int = 500):
        self.spec = EnvSpec(
            state_dim=4,
            max_episode_steps=max_episode_steps,
            n_states=500,
            n_actions=6,
        )
        self.next_state, self.reward, self.terminal = _tables()
        self._views = tuple(map(memoryview, _tables()))

    def reset(self, rng) -> int:
        row = int(rng.integers(5))
        col = int(rng.integers(5))
        pass_loc = int(rng.integers(4))
        dest = int(rng.integers(3))
        if dest >= pass_loc:
            dest += 1    # destination differs from the passenger cell
        return encode(row, col, pass_loc, dest)

    def observe(self, state: int):
        return state

    def transition_tables(self):
        """(next_state, reward, goal) arrays indexed [state, action].

        Steps draw nothing, so these tables are the whole dynamics, and
        ``observe`` is the identity, so a policy indexed by observation
        is indexed by raw state too.  An env may return tables only when
        both hold.  With them, greedy evaluation and the learning and
        frozen episodes of greedy tabular agents walk the tables instead
        of calling ``step`` (see ``core.run_episode``); an agent whose
        ``act`` draws (EpsilonGreedyAgent) still steps.
        """
        return self.next_state, self.reward, self.terminal

    def transition_rows(self):
        """The same tables as ``rows[state][action] == (next_state,
        reward, goal)`` in Python scalars, shared by every instance.  An
        env that returns transition tables also gives these rows."""
        return _rows()

    def step(self, state: int, action, rng) -> StepOutcome:
        a = int(action)
        if not 0 <= a < 6:
            # before the lookup: a memoryview wraps negative indices
            raise ValueError(f"invalid taxi action {a}")
        next_state, reward, goal = self._views
        return StepOutcome(next_state[state, a], reward[state, a],
                           goal[state, a])
