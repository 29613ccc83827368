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

Binomial trees of the forest are counted, never built.  A leaf, a
state with no predecessor, is B_0, and a state whose predecessors are
B_0 ... B_(k-1), one each, is B_k.  Nearly half of an orbit is leaves, a
quarter B_1 (stubs) and a tenth B_2 (forks); a twentieth roots a larger
tree.  A B_k holds C(k, i) states i levels below its root: its child B_m
holds C(m, i - 1) there, and these sum over m < k to C(k, i).  So the
walk counts each level's states by the order of the tree they root, and
carries trees, not states: a B_k puts one each of B_0 ... B_(k-1) on the
next level.

Undoing the i-th of a B_k's k births to undo keeps the i before it, so
it leaves B_i: a B_k's births to undo lie more than 2 apart, and its next
birth is past its room and past the last of them + 2.  Undoing pile j of
a state at top T and room R, born at u <= R (it can have been stacked
last; of equal births only the first, as they give equal predecessors),
gives p: T + 1 - u piles of room u + 2, the state's births without pile
j, then R - u newborns at T + 1.  p keeps the j births before pile j to
undo, so it is B_j, B_(j + 1) or no tree, and no tree once two of them
lie 2 or less apart.  Let x be p's first birth after them: state[j + 1],
else a newborn when R > u, else none.  When the births before pile j lie
more than 2 apart, p is B_j when x > u + 2 or there is no x, and
B_(j + 1) when x <= u + 2, x > state[j - 1] + 2 and p's birth y after x
is past x + 2; else it is built.  A birth missing past p's end reads as
T + 2, the newborns that undoing a birth v < u + 2 of p leaves, and as
past every birth when v = u + 2 leaves none.

A pair tree of end e >= 1 has B_0 ... B_(e-2), one each, and c = 1 or 2
trees B_e as its predecessors: its first e births to undo lie more than
2 apart, its next birth x' lies within 2 of the last of them, w, and its
birth after x' is past x' + 2 and past its room.  Undoing w leaves a
B_e, and so does undoing x' when x' is in the room and is not w.  Its
subtree is a B_(e-1)'s with c trees B_e added one level down, so the
walk counts it as a B_(e-1) and adds the c trees B_e to the level after
next, a second carry; the budget check charges each level only with the
states on it.  p is a pair tree in three places: before pile j, when the
state's first close or equal pair is piles j - 2 and j - 1 and p's birth
after it is past u + 2 (e = j - 1, c = 2 for a close pair); across it,
when x lies within 2 of state[j - 1] and y is past x + 2 (e = j, c = 2);
after it, when y <= x + 2 alone keeps p from B_(j + 1) and the birth
after y is past y + 2 (e = j + 1, c = 2 when x < y <= u + 2).

The walk reads t, a, b, a state's first three births (T + 1 past its
end: no birth is past T), and writes the rules out for j = 0 and 1,
where p can be one or two piles.  j = 0 gives a leaf when a > t + 2,
else a stub when b > a + 2; a one-pile p (t = T) is no stub, as its
birth a >= T.  j = 1 gives a stub when p is one pile (a = T, its birth
t < T) or b > a + 2; p = (t, T + 1) is a fork.  From j = 2 the walk runs
the rule in a loop; past the first gap of 2 or less it tests one more
pile for a pair tree and falls into a loop that only builds.  It builds
only the states it will expand.  No built state's first birth is past
its room, as no built state is a leaf and every cycle state has a
predecessor.  At depth 0 only leaves are counted: every level-1
candidate goes through the cycle check.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator, Sequence

__all__ = ["census_levels"]

Partition = tuple[int, ...]
State = bytes | Partition  # stored births, a byte string until they pass _BYTE_MAX
Step = tuple[int, list[State], list[int], list[int], list[int]]

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
    # each level as (its size, the states to expand, how many of the others
    # it counts as a B_k, by k, and the ends e of the pair trees among them,
    # counted as B_(e-1), with one B_e and with two); None when the budget
    # runs out.  The walk stops after level max_depth
    cycle = list(dict.fromkeys(seeds))
    off = max([v for s in cycle for v in s], default=0)
    box = bytes if off < _BYTE_MAX else tuple
    on_cycle = set(_flip(cycle, off, 1, box))  # the cycle as level-1 births
    level = _flip(cycle, off, 0, box)
    size = total = len(level)
    depth = 0
    orders = [0] * (off // 4 + 3)
    once: list[int] = []
    twice: list[int] = []
    while size:
        yield size, level, orders, once, twice
        if depth == max_depth:
            if total > max_states:  # only the cycle is not checked below
                yield None
            return
        top = off + depth  # the level's depth as a stored birth
        # the next level's trees by order: those carried down, trees[k] =
        # sum(orders[k + 1:]), and the pair trees' B_e.  The list reaches
        # the largest order a tree counted at pile j can have: the j births
        # before it, at least 1 and 3 apart, lie below u <= top + 1 - j, so
        # j <= (top + 2) // 4
        trees = [0, *accumulate(reversed(orders))][-2::-1]
        for e in once + twice + twice:
            trees[e] += 1
        if len(trees) < top // 4 + 3:
            trees.append(0)
        once, twice = [], []
        nxt: list[State] = []
        push = nxt.append
        leaf = stub = fork = 0  # the first two piles' trees, kept as locals
        if box is bytes and top >= _BYTE_MAX:
            # a newborn's stored birth, top + 1, would not fit a byte
            box = tuple
            level = [tuple(s) for s in level]
        born = box((top + 1,))
        left = max_states - total
        # counts only grow within a level, so a check every 256 states and
        # at its end caps at the same level as a check after every state
        for i in range(0, len(level), 256):
            if i and len(nxt) + leaf + stub + fork + sum(trees) > left:
                yield None
                return
            for state in level[i : i + 256]:
                n = len(state)
                if not n:
                    continue  # the empty partition, W's cycle
                room = top + 2 - n
                t = state[0]
                a = state[1] if n > 1 else top + 1
                b = state[2] if n > 2 else top + 1
                if a > t + 2:  # j = 0
                    leaf += 1
                elif depth and b > a + 2:
                    stub += 1
                elif depth and n > 2 and (
                    state[3] if n > 3 else top + 1 if room > t else top + 2
                ) > b + 2:
                    leaf += 1  # a pair tree of end 1, counted as a B_0
                    (twice if a < b <= t + 2 else once).append(1)
                else:
                    push(state[1:] + born * (room - t))
                if n < 2 or a > room:
                    continue
                if a != t:  # j = 1
                    if not depth:
                        push(state[:1] + state[2:] + born * (room - a))
                    elif a == top or b > a + 2:
                        stub += 1
                    elif n == 2 or (  # with n == 2, p = (t, top + 1) is a fork
                        y := state[3] if n > 3 else top + 1 if room > a else top + 2
                    ) > b + 2:
                        if t + 2 < b:
                            fork += 1
                        else:
                            leaf += 1  # a pair tree of end 1 across pile 1
                            twice.append(1)
                    elif t + 2 < b and (
                        state[4] > y + 2
                        if n > 4
                        else y < top - 1 or room == a and (y < top or b == top)
                    ):
                        stub += 1  # a pair tree of end 2 after pile 1
                        (twice if b < y <= a + 2 else once).append(2)
                    else:
                        push(state[:1] + state[2:] + born * (room - a))
                j, prev = 2, a
                if depth and t + 2 < a:
                    # the rule from j = 2, while the births before j lie more
                    # than 2 apart; prev is state[j - 1]
                    while j < n:
                        u = state[j]
                        if u > room:
                            break
                        if u == prev:
                            j += 1
                            break
                        x = state[j + 1] if j + 1 < n else top + 3  # p is B_j
                        if x > u + 2:
                            trees[j] += 1
                        elif (
                            y := state[j + 2] if j + 2 < n else top + 1 if room > u else top + 3
                        ) > x + 2:
                            if x > prev + 2:
                                trees[j + 1] += 1
                            else:
                                trees[j - 1] += 1  # a pair tree of end j across pile j
                                twice.append(j)
                        elif x > prev + 2 and (
                            state[j + 3] > y + 2
                            if j + 3 < n  # at j + 2 == n, y is p's one newborn and x = u + 2
                            else j + 2 == n or y < top - 1 or room == u and (y < top or x == u + 2)
                        ):
                            trees[j] += 1  # a pair tree of end j + 1 after pile j
                            (twice if x < y <= u + 2 else once).append(j + 1)
                        else:
                            push(state[:j] + state[j + 1 :] + born * (room - u))
                        j += 1
                        if u <= prev + 2:
                            prev = u
                            break
                        prev = u
                if depth and j < n and prev != state[j] <= room:  # past the first gap <= 2
                    u = state[j]
                    if (state[j + 1] if j + 1 < n else top + 3) > u + 2:
                        trees[j - 2] += 1  # a pair tree of end j - 1 before pile j
                        (twice if state[j - 2] < prev else once).append(j - 1)
                    else:
                        push(state[:j] + state[j + 1 :] + born * (room - u))
                    j, prev = j + 1, u
                while j < n:
                    u = state[j]
                    if u > room:
                        break
                    if u != prev:
                        prev = u
                        push(state[:j] + state[j + 1 :] + born * (room - u))
                    j += 1
            if depth == 0:
                # each cycle state is also its cycle neighbour's predecessor
                nxt[:] = [p for p in nxt if p not in on_cycle]
        size = len(nxt) + leaf + stub + fork + sum(trees)
        if size > left:
            yield None
            return
        trees[0] += leaf
        trees[1] += stub
        trees[2] += fork
        total, level, orders, depth = total + size, nxt, trees, depth + 1


def census_levels(
    seeds: list[Partition], max_states: int, max_depth: int | None = None
) -> tuple[list[int], bool]:
    """Level sizes of the reverse walk from the seed cycle: (sizes, capped).

    sizes[i] counts states i reverse moves from the cycle (level 0), for
    the levels up to max_depth (all of them when it is None).  When the
    states counted pass max_states the walk stops with capped=True and the
    sizes of the levels whose predecessors were being generated.  States
    that root binomial trees or pair trees are counted, never built.
    """
    sizes: list[int] = []
    for step in _birth_levels(seeds, max_states, max_depth):
        if step is None:
            return sizes, True
        sizes.append(step[0])
    return sizes, False
