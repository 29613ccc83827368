"""Pure-Python census kernel: one reverse walk from the recurrent cycle.

The forward move is a function, so off the cycle the reverse-move digraph
is a forest: every non-cycle state is reached exactly once, from its one
forward image.  The walk therefore keeps no visited set, and checks only
the predecessors of cycle states against the cycle.

At level L the walk holds each pile v as its birth depth t = L + 1 - v,
ascending.  A reverse move adds a chip to every surviving pile, so birth
depths never change: undoing the pile born at t drops it and appends
L + 2 - len(state) - t piles born at L + 1.  s -> L + 1 - s is its own
inverse; it encodes the seeds and decodes the levels walk_levels yields
(for orbit.build_orbit).  census_levels only counts them.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["census_levels", "walk_levels"]

Partition = tuple[int, ...]


def _flip(level: Iterable[Partition], c: int) -> list[Partition]:
    # values <-> birth depths at the level where c = L + 1
    return [tuple([c - x for x in s]) for s in level]


def _birth_levels(seeds: Iterable[Partition], max_states: int) -> Iterator[list[Partition] | None]:
    cycle = list(dict.fromkeys(seeds))
    on_cycle = set(_flip(cycle, 2))  # the cycle as level-1 births
    level = _flip(cycle, 1)
    total, depth = len(level), 0
    while level:
        yield level
        nxt: list[Partition] = []
        push, born = nxt.append, (depth + 1,)
        for state in level:
            # a pile born at t <= room can have been stacked last; equal
            # births give equal predecessors, so only the first is tried
            room = depth + 2 - len(state)
            prev, j = None, 0
            for t in state:
                if t > room:
                    break
                if t != prev:
                    prev = t
                    push(state[:j] + state[j + 1 :] + born * (room - t))
                j += 1
            if depth == 0:
                # each cycle state is also its cycle neighbour's predecessor
                nxt[:] = [p for p in nxt if p not in on_cycle]
            if total + len(nxt) > max_states:
                yield None
                return
        total, level, depth = total + len(nxt), nxt, depth + 1


def walk_levels(seeds: Iterable[Partition], max_states: int) -> Iterator[list[Partition] | None]:
    """The levels of the reverse walk from a whole cycle, one list each.

    seeds must be every state of one cycle (or of several); level 0 is the
    distinct seeds.  Once the states counted after some state's
    predecessors exceed max_states, the walk yields None in place of the
    unfinished level and stops; every level yielded before is complete.
    """
    for depth, level in enumerate(_birth_levels(seeds, max_states)):
        yield None if level is None else _flip(level, depth + 1)


def census_levels(seeds: list[Partition], max_states: int) -> tuple[list[int], bool]:
    """Level sizes of the reverse walk from the seed cycle: (sizes, capped).

    sizes[i] counts states i reverse moves from the cycle (level 0).  When
    the states counted pass max_states the walk stops with capped=True and
    the sizes of the levels whose predecessors were being generated.
    """
    sizes: list[int] = []
    for level in _birth_levels(seeds, max_states):
        if level is None:
            return sizes, True
        sizes.append(len(level))
    return sizes, False
