"""Pure-Python census kernel: one reverse walk from the recurrent cycle.

The forward move is a function, so off the cycle the reverse-move digraph
is a forest: every non-cycle state is reached exactly once, from its one
forward image.  The walk therefore keeps no visited set, and checks only
the predecessors of cycle states against the cycle.

At level L the walk holds each pile v as its birth depth t = L + 1 - v,
ascending.  A reverse move adds a chip to every surviving pile, so birth
depths never change: undoing the pile born at t (any t up to the state's
room L + 2 - len(state)) drops it and appends room - t piles born at
L + 1.  That predecessor's own room is t + 2.

Nearly half of an orbit is leaves, states with no predecessor: their
first birth is past their room.  Undoing any pile but the first keeps
state[0] <= t in front, so only the first pile's predecessor can be a
leaf, and comparing state[1] with t + 2 tells before it is built.  The walk
builds only the states it will expand and hands on each leaf as its
parent: census_levels counts leaves, walk_levels builds them (for
orbit.build_orbit).  s -> L + 1 - s is its own inverse; it encodes the
seeds and decodes the levels walk_levels yields.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["census_levels", "walk_levels"]

Partition = tuple[int, ...]


def _flip(level: Iterable[Partition], c: int) -> list[Partition]:
    # values <-> birth depths at the level where c = L + 1
    return [tuple([c - x for x in s]) for s in level]


def _birth_levels(
    seeds: Iterable[Partition], max_states: int
) -> Iterator[tuple[list[Partition], list[Partition]] | None]:
    # each level as (the states to expand, the parents of its leaves):
    # a leaf is never built here, only its parent, whose first-pile
    # predecessor it is, is handed on
    cycle = list(dict.fromkeys(seeds))
    on_cycle = set(_flip(cycle, 2))  # the cycle as level-1 births
    level, parents = _flip(cycle, 1), []
    total, depth = len(level), 0
    while level or parents:
        yield level, parents
        nxt: list[Partition] = []
        parents = []
        push, leaf, born = nxt.append, parents.append, (depth + 1,)
        for state in level:
            # a pile born at t <= room can have been stacked last; equal
            # births give equal predecessors, so only the first is tried.
            # Undoing the first pile leaves state[1] in front (newborns if
            # it was the only pile): a leaf when that is past room t + 2
            room = depth + 2 - len(state)
            prev, j = None, 0
            for t in state:
                if t > room:
                    break
                if t != prev:
                    prev = t
                    if j or (state[1] if len(state) > 1 else depth + 1) <= t + 2:
                        push(state[:j] + state[j + 1 :] + born * (room - t))
                    else:
                        leaf(state)
                j += 1
            if depth == 0:
                # each cycle state is also its cycle neighbour's predecessor
                nxt[:] = [p for p in nxt if p not in on_cycle]
            if total + len(nxt) + len(parents) > max_states:
                yield None
                return
        total, level, depth = total + len(nxt) + len(parents), nxt, depth + 1


def walk_levels(seeds: Iterable[Partition], max_states: int) -> Iterator[list[Partition] | None]:
    """The levels of the reverse walk from a whole cycle, one list each.

    seeds must be every state of one cycle (or of several); level 0 is the
    distinct seeds.  Once the states counted after some state's
    predecessors exceed max_states, the walk yields None in place of the
    unfinished level and stops; every level yielded before is complete.
    """
    for depth, step in enumerate(_birth_levels(seeds, max_states)):
        if step is None:
            yield None
            return
        level, parents = step
        # a parent one level up has room depth + 1 - len(s); newborns are born at depth
        leaves = [s[1:] + (depth,) * (depth + 1 - len(s) - s[0]) for s in parents]
        yield _flip(level + leaves, depth + 1)


def census_levels(seeds: list[Partition], max_states: int) -> tuple[list[int], bool]:
    """Level sizes of the reverse walk from the seed cycle: (sizes, capped).

    sizes[i] counts states i reverse moves from the cycle (level 0).  When
    the states counted pass max_states the walk stops with capped=True and
    the sizes of the levels whose predecessors were being generated.
    Leaves are counted, never built.
    """
    sizes: list[int] = []
    for step in _birth_levels(seeds, max_states):
        if step is None:
            return sizes, True
        sizes.append(len(step[0]) + len(step[1]))
    return sizes, False
