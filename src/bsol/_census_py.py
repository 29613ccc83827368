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

States of product shape are counted, never built.  A state's births to
undo, those up to its room, fall into blocks when each is a single
birth, more than 2 from the births beside it, or one of a pair, two
births 2 or less apart, equal ones too, more than 2 from the others.
When they do, and the birth after the last block lies more than 2 past
it, the states below it count by level

    (1 + x)^a prod (1 + c x + c x^2),

a the single births and one factor per pair: c = 2 when its births
differ and both are to undo, else c = 1.  Undoing a birth keeps the
blocks before it: a single birth leaves them, and either birth of a pair
leaves them and the pair's other birth, single now.  So with P_i the
product over the first i blocks, a block's predecessors give
x g_i P_(i-1) = P_i - P_(i-1), g_i = 1 for a single birth and c (1 + x)
for a pair, and these sum to P - 1.  This is the paper's factoring of a
reverse-move tree by the segments of its board: a close pair's factor
1 + 2x + 2x^2 is u_2, the census of a 2-fuse.  With no pair the state
roots a binomial tree B_a.  A leaf, a state with no predecessor, is B_0,
a stub B_1 and a fork B_2: nearly half of an orbit is leaves, a quarter
stubs and a tenth forks.

A B_k holds C(k, i) states i levels below its root and puts one each of
B_0 ... B_(k-1) on the next level.  A state of shape (a, cs), cs its
pairs' c, holds

    (1 + x)^a prod (1 + c x (1 + x)) = sum_i e_i x^i (1 + x)^(a + i),

e_i the i-th elementary symmetric polynomial of cs.  So the walk counts
it as a B_a at its own level and owes e_i trees B_(a + i) to the level i
below.  It counts each level's states by the order of the tree they
root, carries trees, not states, and adds the owed trees when it starts
a level.  The budget check charges each level only with the states on
it, so every walk caps at the level where it would cap if it built them.

Undoing pile j of a state at top T and room R, born at u <= R (it can
have been stacked last; of equal births only the first, as they give
equal predecessors), gives p: T + 1 - u piles of room u + 2, the state's
births without pile j, then R - u newborns at T + 1.  p keeps the j
births before pile j to undo: the walk carries their blocks as j
advances, j + o single births and the pairs in a key, and stops at the
third close birth in a row, past which no p is of product shape.  Let x
be p's first birth after them: state[j + 1], else a newborn when R > u,
else none; and y and z the two after x.  x > u + 2, or no x, adds no
block; else x pairs with state[j - 1] when that is single and
y > x + 2, is single when y > x + 2, and pairs with y when z > y + 2.
A birth missing past p's end reads as T + 2, the newborns that undoing
a birth v < u + 2 of p leaves, and as past every birth when v = u + 2
leaves none.

The walk reads t, a, b, a state's first three births (T + 1 past its
end: no birth is past T), and writes the rule out for j = 0 and 1, where
p can be one or two piles.  j = 0 gives a leaf when a > t + 2, else a
stub when b > a + 2; a one-pile p (t = T) is no stub, as its birth
a >= T.  j = 1 gives a stub when p is one pile (a = T, its birth t < T)
or b > a + 2; p = (t, T + 1) is a fork.  From j = 2 the walk runs the
rule in a loop, then builds the rest.  It builds only the states it will
expand, about a twenty-third of those it counts on the benchmark's
growth rows.  No built state's first birth is past its room, as no built
state is a leaf and every cycle state has a predecessor.  At depth 0
only leaves are counted: every level-1 candidate goes through the cycle
check.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

__all__ = ["census_levels"]

Partition = tuple[int, ...]
State = bytes | Partition  # stored births, a byte string until they pass _BYTE_MAX
Shape = tuple[int, tuple[int, ...]]  # (a, cs): a B_a with pairs of c = 1 or 2 trees
Step = tuple[int, list[State], list[int], dict[Shape, int]]

_BYTE_MAX = 255  # the largest stored birth a byte string holds


def _flip(
    states: Iterable[Sequence[int]], off: int, depth: int, box: type = tuple
) -> list:
    # pile values <-> stored births at level depth of a walk with offset off:
    # value v is stored as off + depth + 1 - v.  Its own inverse
    c = off + depth + 1
    return [box([c - x for x in s]) for s in states]


@functools.lru_cache(maxsize=1 << 12)
def _plan(key: int, shift: int) -> tuple[Shape, tuple[tuple[int, int, int], ...]]:
    # a counted state's key, a + (n1 << shift) + (n2 << 2 * shift), as its
    # shape (a, cs), cs the c of its n1 equal and n2 close pairs, and the
    # trees it owes the levels below: (i - 1, a + i, e_i) for the e_i trees
    # B_(a + i) i levels down, e_i the coefficient of y^i in the product
    # of (1 + c y) over cs
    mask = (1 << shift) - 1
    a = key & mask
    cs = (1,) * (key >> shift & mask) + (2,) * (key >> 2 * shift)
    e = [1]
    for c in cs:
        e = [x + c * y for x, y in zip([*e, 0], [0, *e])]
    return (a, cs), tuple((i - 1, a + i, e[i]) for i in range(1, len(e)))


def _birth_levels(
    seeds: Iterable[Partition], max_states: int, max_depth: int | None = None
) -> Iterator[Step | None]:
    # each level as (its size, the states to expand, how many of the others
    # it counts as B_k, by k, and how many of those it met with pairs, by
    # shape (a, cs), each counted as a B_a); None when the budget runs out.
    # The walk stops after level max_depth
    cycle = list(dict.fromkeys(seeds))
    off = max([v for s in cycle for v in s], default=0)
    box = bytes if off < _BYTE_MAX else tuple
    on_cycle = set(_flip(cycle, off, 1, box))  # the cycle as level-1 births
    level = _flip(cycle, off, 0, box)
    size = total = len(level)
    depth = 0
    orders = [0] * (off // 4 + 3)
    shapes: dict[Shape, int] = {}
    # the trees the states met with pairs owe the levels below, by order:
    # later[0] to the next level generated, later[1] to the one after it
    later: list[dict[int, int]] = [{} for _ in range(off // 4 + 3)]
    while size:
        yield size, level, orders, shapes
        if depth == max_depth:
            if total > max_states:  # only the cycle is not checked below
                yield None
            return
        top = off + depth  # the level's depth as a stored birth
        # the next level's trees by order: those carried down, trees[k] =
        # sum(orders[k + 1:]), and those owed to it.  The list reaches the
        # largest order a counted state can have, its count B of blocks:
        # their first births, at least 1 and 3 apart, lie within its room
        # u + 2, and it has top + 1 - u >= B births, so B <= (top + 5) // 4
        trees = [0, *accumulate(reversed(orders))][-2::-1]
        if len(trees) < top // 4 + 3:
            trees.append(0)
        for k, c in later.pop(0).items():
            trees[k] += c
        if len(later) < top // 4 + 3:  # past the most pairs, B
            later.append({})
        # the key of a state met with pairs: its a and its counts n1 and n2
        # of pairs with c = 1 and 2, each below 1 << shift, as bit fields
        shift = (top + 3).bit_length()
        p1 = 1 << shift
        p2 = p1 << shift
        pend: list[int] = []
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
                    leaf += 1  # (a, b) is p's one pair
                    pend.append(p2 if a < b <= t + 2 else p1)
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
                            leaf += 1  # (t, b) is p's one pair
                            pend.append(p2)
                    elif t + 2 < b and (
                        state[4] > y + 2
                        if n > 4
                        else y < top - 1 or room == a and (y < top or b == top)
                    ):
                        stub += 1  # (b, y) is p's one pair
                        pend.append(1 + (p2 if b < y <= a + 2 else p1))
                    else:
                        push(state[:1] + state[2:] + born * (room - a))
                j, prev = 2, a
                if depth:
                    # the rule from j = 2: the births before pile j are j + o
                    # single births and the pairs in pk, and prev, state[j - 1],
                    # may pair with the next birth unless it closed a pair, at
                    # pile shut
                    o, pk, shut = (0, 0, -1) if t + 2 < a else (-2, p2 if t < a else p1, 1)
                    while j < n:
                        u = state[j]
                        if u > room:
                            break
                        if u != prev:
                            x = state[j + 1] if j + 1 < n else top + 3  # a newborn is past u + 2 too
                            if x > u + 2:
                                trees[j + o] += 1
                                if pk:
                                    pend.append(pk + j + o)
                            elif (
                                y := state[j + 2] if j + 2 < n else top + 1 if room > u else top + 3
                            ) > x + 2:
                                if x > prev + 2:
                                    trees[j + o + 1] += 1
                                    if pk:
                                        pend.append(pk + j + o + 1)
                                elif shut < j - 1:  # (prev, x) is a pair of p
                                    trees[j + o - 1] += 1
                                    pend.append(pk + p2 + j + o - 1)
                                else:
                                    push(state[:j] + state[j + 1 :] + born * (room - u))
                            elif x > prev + 2 and (
                                state[j + 3] > y + 2
                                if j + 3 < n  # at j + 2 == n, y is p's one newborn and x = u + 2
                                else j + 2 == n or y < top - 1 or room == u and (y < top or x == u + 2)
                            ):
                                trees[j + o] += 1  # (x, y) is a pair of p
                                pend.append(pk + (p2 if x < y <= u + 2 else p1) + j + o)
                            else:
                                push(state[:j] + state[j + 1 :] + born * (room - u))
                        j += 1
                        if u <= prev + 2:
                            if shut == j - 2:  # a third close birth: no later pile gives a counted state
                                prev = u
                                break
                            o -= 2
                            pk += p2 if u > prev else p1
                            shut = j - 1
                        prev = u
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
        # each state met with pairs owes its e_i trees B_(a + i) to the
        # level i below it
        shapes = {}
        if pend:
            for key, c in Counter(pend).items():
                shape, owed = _plan(key, shift)
                shapes[shape] = c
                for d, k, e in owed:
                    later[d][k] = later[d].get(k, 0) + c * e
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
    of product shape, binomial trees among them, are counted, never built.
    """
    sizes: list[int] = []
    for step in _birth_levels(seeds, max_states, max_depth):
        if step is None:
            return sizes, True
        sizes.append(step[0])
    return sizes, False
