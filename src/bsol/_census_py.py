"""Pure-Python census kernel: one reverse walk from the recurrent cycle.

States are partitions as plain tuples, parts in descending order.  The
forward move is a function, so off the cycle the reverse-move digraph is
a forest: every non-cycle state is reached exactly once, from its one
forward image.  The walk therefore keeps no visited set.  Only the
predecessors of cycle states are checked against the cycle, because a
predecessor of a non-cycle state can never lie on it.

walk_levels yields the levels themselves, for orbit.build_orbit;
census_levels only counts them, for everything that needs sizes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["census_levels", "walk_levels"]

Partition = tuple[int, ...]


def _push_predecessors(state: Partition, out: list[Partition]) -> None:
    # Undoing the move: pick the pile that was stacked last.  A pile of size
    # v works when v >= (number of other piles); the undone board is every
    # other pile plus one chip, padded with single chips for the piles the
    # move wiped out.  Equal piles give equal predecessors, so only the
    # first of a run is tried.
    m = len(state)
    prev = -1
    for j, v in enumerate(state):
        if v == prev:
            continue
        prev = v
        if v < m - 1:
            break  # descending order: later piles are no larger
        rest = state[:j] + state[j + 1 :]
        out.append(tuple([b + 1 for b in rest] + [1] * (v - m + 1)))


def walk_levels(
    seeds: Iterable[Partition], max_states: int
) -> Iterator[list[Partition] | None]:
    """The levels of the reverse walk from a whole cycle, one list each.

    seeds must be every state of one cycle (or of several); level 0 is
    the distinct seeds.  After each state's predecessors are pushed the
    walk checks the states counted so far, and once they exceed
    max_states it yields None in place of the unfinished level and
    stops.  Every level yielded before that is complete.
    """
    cycle = list(dict.fromkeys(seeds))
    on_cycle = set(cycle)
    level = cycle
    total = len(cycle)
    while level:
        yield level
        nxt: list[Partition] = []
        for state in level:
            _push_predecessors(state, nxt)
            if level is cycle:
                # each cycle state is also its cycle neighbour's predecessor
                nxt = [p for p in nxt if p not in on_cycle]
            if total + len(nxt) > max_states:
                yield None
                return
        total += len(nxt)
        level = nxt


def census_levels(seeds: list[Partition], max_states: int) -> tuple[list[int], bool]:
    """Level sizes of the reverse walk from the seed cycle.

    Returns (sizes, capped).  sizes[i] counts states i reverse moves away
    from the cycle; the seed layer is level 0.  When the states counted
    so far pass max_states the walk stops and reports capped=True with
    the sizes of the levels whose predecessors were being generated.
    """
    sizes: list[int] = []
    for level in walk_levels(seeds, max_states):
        if level is None:
            return sizes, True
        sizes.append(len(level))
    return sizes, False
