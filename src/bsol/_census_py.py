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
leaf, and comparing state[1] with t + 2 tells before it is built.  A
further quarter is stubs, states whose one predecessor is a leaf.  A
predecessor's first two births are state's first two past the undone
pile, then newborns, so whether it is a stub is read off state[0..2] as
well.  The walk builds only the states it will expand.  It hands on each
leaf as its parent and each stub as (parent, j), its pile undone:
census_levels counts a stub and, one level further down, its leaf.
s -> L + 1 - s is its own inverse; it encodes the seeds.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["census_levels"]

Partition = tuple[int, ...]


def _flip(level: Iterable[Partition], c: int) -> list[Partition]:
    # values <-> birth depths at the level where c = L + 1
    return [tuple([c - x for x in s]) for s in level]


def _birth_levels(
    seeds: Iterable[Partition], max_states: int
) -> Iterator[tuple[list[Partition], list[Partition], list[tuple[Partition, int]]] | None]:
    # each level as (the states to expand, the parents of its leaves, its
    # stubs as (parent, j)): a leaf is never built here, only its parent,
    # whose first-pile predecessor it is, is handed on; a stub is the
    # predecessor of parent from its pile j, and its one predecessor, a
    # leaf one level further down, is counted with that level
    cycle = list(dict.fromkeys(seeds))
    on_cycle = set(_flip(cycle, 2))  # the cycle as level-1 births
    level, parents, stubs = _flip(cycle, 1), [], []
    total, depth, ahead = len(level), 0, 0
    while level or parents or stubs or ahead:
        yield level, parents, stubs
        ahead = len(stubs)  # their leaves, one level down
        nxt: list[Partition] = []
        parents, stubs = [], []
        push, leaf, stub, born = nxt.append, parents.append, stubs.append, (depth + 1,)
        if total + ahead > max_states:
            yield None
            return
        for state in level:
            # a pile born at t <= room can have been stacked last; equal
            # births give equal predecessors, so only the first is tried.
            # The predecessor p from pile j has depth + 1 - t piles and
            # room t + 2, and its first two births a, b are state's first
            # two past j, then newborns; for j > 1, b = state[1] <= t.
            # p is a leaf when a > t + 2, which needs j = 0.  It is a stub
            # when it is one pile (t = depth) and a < depth, or when
            # b > t + 2 (a is then its one pile to undo) and b > a + 2 (the
            # predecessor that leaves starts with b, past its room a + 2);
            # a < t for j = 1 and a >= t for j = 0.  No stub at depth 0,
            # where every level-1 candidate goes through the cycle check
            n = len(state)
            room = depth + 2 - n
            b = state[2] if n > 2 else depth + 1
            prev, j = None, 0
            for t in state:
                if t > room:
                    break
                if t != prev:
                    prev = t
                    if j > 1:
                        push(state[:j] + state[j + 1 :] + born * (room - t))
                    else:
                        a = state[1 - j] if n > 1 else depth + 1
                        if a > t + 2:
                            leaf(state)
                        elif depth and (a < depth if t == depth else b > (t if j else a) + 2):
                            stub((state, j))
                        else:
                            push(state[:j] + state[j + 1 :] + born * (room - t))
                j += 1
            if depth == 0:
                # each cycle state is also its cycle neighbour's predecessor
                nxt[:] = [p for p in nxt if p not in on_cycle]
            if total + ahead + len(nxt) + len(parents) + len(stubs) > max_states:
                yield None
                return
        total, level, depth = total + ahead + len(nxt) + len(parents) + len(stubs), nxt, depth + 1


def census_levels(seeds: list[Partition], max_states: int) -> tuple[list[int], bool]:
    """Level sizes of the reverse walk from the seed cycle: (sizes, capped).

    sizes[i] counts states i reverse moves from the cycle (level 0).  When
    the states counted pass max_states the walk stops with capped=True and
    the sizes of the levels whose predecessors were being generated.
    Leaves and stubs are counted, never built.
    """
    sizes: list[int] = []
    ahead = 0  # leaves of the last level's stubs
    for step in _birth_levels(seeds, max_states):
        if step is None:
            return sizes, True
        level, parents, stubs = step
        sizes.append(len(level) + len(parents) + len(stubs) + ahead)
        ahead = len(stubs)
    return sizes, False
