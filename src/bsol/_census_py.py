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

A state is a byte string, one byte per pile: its birth depth plus the
walk's offset, the largest pile of the cycle, so that no stored birth is
negative.  The walk compares stored births only, with top = L + offset
in place of L.  It reads only a state's piles up to its room, a few of
the many it holds, and a byte string is copied in one block where a
tuple takes a reference count per pile, at about a quarter of the
memory.  Bytes and tuples slice, concatenate, repeat and index alike, so
the walk's code is the same for both.  A byte holds at most _BYTE_MAX:
once a newborn's stored birth would pass it, the walk turns its live
level into tuples and goes on with them, and a cycle whose largest pile
is _BYTE_MAX or more starts on tuples.  _flip turns pile values into
stored births and back.

Three shapes of the forest are counted, never built.  Nearly half of an
orbit is leaves, states with no predecessor: their first birth is past
their room.  Undoing any pile but the first keeps state[0] <= t in front,
so only the first pile's predecessor can be a leaf, and comparing
state[1] with t + 2 tells before it is built.  A further quarter is
stubs, states whose one predecessor is a leaf, and a tenth is forks,
states whose two predecessors are a leaf and a stub.  A predecessor's
first three births are state's first three past the undone pile, then
newborns, so whether it is a stub or a fork is read off state[0..3] as
well.  Leaves and stubs come only from the first two piles and forks
from the first three, so the walk tests the first two piles directly
and loops over piles only from the third.  It builds only the states it
will expand, and counts the leaves, stubs and forks of each level as
plain ints; a shape's states are counted at its own level and the next
ones: a leaf 1, a stub 1 and 1, a fork 1, 2 and 1.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = ["census_levels"]

Partition = tuple[int, ...]
State = bytes | Partition  # stored births, a byte string until they pass _BYTE_MAX
Step = tuple[int, list[State], int, int, int]

_BYTE_MAX = 255  # the largest stored birth a byte string holds


def _flip(
    states: Iterable[Sequence[int]], off: int, depth: int, box: type = tuple
) -> list:
    # pile values <-> stored births at level depth of a walk with offset off:
    # value v is stored as off + depth + 1 - v.  Its own inverse
    c = off + depth + 1
    return [box([c - x for x in s]) for s in states]


def _birth_levels(
    seeds: Iterable[Partition], max_states: int, max_depth: int | None = None
) -> Iterator[Step | None]:
    # each level as (its size, the states to expand, and how many of its
    # states are leaves, stubs and forks); None when the budget runs out.
    # A stub's leaf and a fork's leaf, stub and the stub's leaf lie further
    # down, so they are carried into the sizes of the next two levels.
    # The walk stops after level max_depth
    cycle = list(dict.fromkeys(seeds))
    off = max([v for s in cycle for v in s], default=0)
    box = bytes if off < _BYTE_MAX else tuple
    on_cycle = set(_flip(cycle, off, 1, box))  # the cycle as level-1 births
    level = _flip(cycle, off, 0, box)
    size = total = len(level)
    depth = later = leaf = stub = fork = 0
    while size:
        yield size, level, leaf, stub, fork
        if depth == max_depth:
            if total > max_states:  # only the cycle is not checked below
                yield None
            return
        # counted ahead: states of the next level, and later those of the
        # level after it, that shapes counted so far put there
        ahead, later = later + stub + 2 * fork, fork
        nxt: list[State] = []
        push = nxt.append
        leaf = stub = fork = 0
        top = off + depth  # the level's depth as a stored birth
        if box is bytes and top >= _BYTE_MAX:
            # a newborn's stored birth, top + 1, would not fit a byte
            box = tuple
            level = [tuple(s) for s in level]
        born = box((top + 1,))
        left = max_states - total - ahead
        if left < 0:
            yield None
            return
        # counts only grow within a level, so a check every 256 states and
        # at its end caps at the same level as a check after every state
        for i in range(0, len(level), 256):
            for state in level[i : i + 256]:
                # undoing a pile born at u <= room, which can have been
                # stacked last, gives the predecessor p: top + 1 - u piles,
                # room u + 2, and state's births past u, then newborns at
                # top + 1.  Equal births give equal predecessors, so only the
                # first is tried.  t, a, b, c are state's first four births,
                # top + 1 past its end; no birth is past top, and t <= room,
                # as no built state is a leaf and a cycle state has a
                # predecessor.  No stub or fork at depth 0, where every
                # level-1 candidate goes through the cycle check
                n = len(state)
                if not n:
                    continue  # the empty partition, W's cycle
                room = top + 2 - n
                t = state[0]
                a = state[1] if n > 1 else top + 1
                b = state[2] if n > 2 else top + 1
                # j = 0: p starts a >= t, b, c.  It is a leaf when a > t + 2;
                # undoing any other pile keeps t in front, so no other p is.
                # It is a stub when b > a + 2: then b > t + 2, so a is its one
                # pile to undo, and the predecessor that leaves starts with b,
                # past its room a + 2.  A one-pile p (t = top) is no stub, as
                # its birth a >= top.  A fork's first birth is below u, as its
                # second is past the first + 2 and at most u + 2; p's, a, is not
                if a > t + 2:
                    leaf += 1
                elif depth and b > a + 2:
                    stub += 1
                else:
                    push(state[1:] + born * (room - t))
                if n < 2 or a > room:
                    continue
                # j = 1: p starts t < a, b, c, so it is no leaf.  It is a stub
                # when it is one pile (a = top; its birth t < top), or when
                # b > a + 2: t is then its one pile to undo, and the
                # predecessor that leaves starts with b, past its room t + 2.
                # It is a fork when its only piles to undo are t < b <= a + 2
                # (c > a + 2, or it is two piles), undoing t leaves a leaf
                # (b > t + 2) and undoing b a stub: one pile (b = top + 1), or
                # a second birth, c or a newborn at top + 2, past its room
                # b + 2 (c > b + 2, or b < top when it is two piles).  The
                # stub test leaves a < top and b <= a + 2
                if a != t:
                    if not depth:
                        push(state[:1] + state[2:] + born * (room - a))
                    elif a == top or b > a + 2:
                        stub += 1
                    elif t + 2 < b and (
                        (state[3] if n > 3 else top + 1) > b + 2 if a < top - 1 else b != top
                    ):
                        fork += 1
                    else:
                        push(state[:1] + state[2:] + born * (room - a))
                # j >= 2: p starts t, a < u, so it is no leaf or stub, and
                # past j = 2 no fork, as t, a, b are three piles to undo.  For
                # j = 2 it is a fork when a > t + 2 (undoing t leaves a leaf)
                # and t, a are its only piles to undo: it is two piles, or its
                # third birth, c or a newborn when state is three piles, is
                # past u + 2 and so a's room (undoing a leaves a stub)
                j, prev = 2, a
                while j < n:
                    u = state[j]
                    if u > room:
                        break
                    if u != prev:
                        prev = u
                        if j == 2 and depth and t + 2 < a and (n == 3 or state[3] > u + 2):
                            fork += 1
                        else:
                            push(state[:j] + state[j + 1 :] + born * (room - u))
                    j += 1
            if depth == 0:
                # each cycle state is also its cycle neighbour's predecessor
                nxt[:] = [p for p in nxt if p not in on_cycle]
            if len(nxt) + leaf + stub + fork > left:
                yield None
                return
        size = ahead + len(nxt) + leaf + stub + fork
        total, level, depth = total + size, nxt, depth + 1


def census_levels(
    seeds: list[Partition], max_states: int, max_depth: int | None = None
) -> tuple[list[int], bool]:
    """Level sizes of the reverse walk from the seed cycle: (sizes, capped).

    sizes[i] counts states i reverse moves from the cycle (level 0), for
    the levels up to max_depth (all of them when it is None).  When the
    states counted pass max_states the walk stops with capped=True and the
    sizes of the levels whose predecessors were being generated.  Leaves,
    stubs and forks are counted, never built.
    """
    sizes: list[int] = []
    for step in _birth_levels(seeds, max_states, max_depth):
        if step is None:
            return sizes, True
        sizes.append(step[0])
    return sizes, False
