"""Goal-only Taxi on the canonical 5x5 grid.

Four special cells (R, G, Y, B).  Each episode the taxi starts in a
random cell, a passenger waits at one special cell, and a different
special cell is the destination.  Dropping the passenger at the
destination pays +1 and is the goal, the only absorbing state; pickup
or dropoff anywhere wrong pays -0.1; moves pay 0.  Moves through the
grid's interior walls are blocked.

The 500 states encode (taxi row, taxi column, passenger location,
destination), with passenger location 4 meaning "in the taxi".  All
transitions are deterministic, so they are precomputed once per process
into per-state rows of (next_state, reward, goal) tuples of plain
Python scalars, shared by every instance.  ``step`` reads them, and so
do the episode and evaluation walks in ``core``.
"""

from __future__ import annotations

from functools import cache

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
def _rows():
    """``rows[state][action] == (next_state, reward, goal)`` in Python
    scalars, built on first use."""
    rows = []
    for s in range(500):
        row, col, pass_loc, dest = decode(s)
        actions = []
        for a in range(6):
            nr, nc, np_loc = row, col, pass_loc
            r = 0.0
            goal = False
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
                    goal = True
                elif pass_loc == IN_TAXI and (row, col) in SPECIAL_CELLS:
                    # Legal set-down at the wrong special cell: the
                    # passenger leaves the taxi, penalty applies.
                    np_loc = SPECIAL_CELLS.index((row, col))
                    r = -0.1
                else:
                    r = -0.1
            actions.append((encode(nr, nc, np_loc, dest), r, goal))
        rows.append(tuple(actions))
    return tuple(rows)


class TaxiEnv:
    def __init__(self, max_episode_steps: int = 500):
        self.spec = EnvSpec(
            state_dim=4,
            max_episode_steps=max_episode_steps,
            n_states=500,
            n_actions=6,
        )
        self._rows = _rows()

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

    def transition_rows(self):
        """``rows[state][action] == (next_state, reward, goal)`` in Python
        scalars, shared by every instance.

        Steps draw nothing, so these rows are the whole dynamics, and
        ``observe`` is the identity, so a policy indexed by observation
        is indexed by raw state too.  An env may return rows only when
        both hold.  With them, greedy evaluation and the learning and
        frozen episodes of greedy tabular agents walk the rows instead
        of calling ``step`` (see ``core.run_episode``); an agent whose
        ``act`` draws (EpsilonGreedyAgent) still steps.
        """
        return self._rows

    def step(self, state: int, action, rng) -> StepOutcome:
        a = int(action)
        if not 0 <= a < 6:
            # before the lookup: a tuple wraps negative indices
            raise ValueError(f"invalid taxi action {a}")
        return StepOutcome(*self._rows[state][a])
