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
negative; the walk compares stored births only, with top = L + offset.
A byte string is copied in one block, at about a quarter of a tuple's
memory, and slices, concatenates, repeats and indexes as a tuple does.
Once a newborn's stored birth would pass _BYTE_MAX, the walk turns its
live level into tuples, and a cycle whose largest pile is _BYTE_MAX or
more starts on them.  _flip turns pile values into stored births and back.

States of product shape are counted, never built.  Births 2 or less
apart chain into runs.  When a state's births to undo, those up to its
room, fall into runs and the birth after the last run lies more than 2
past it (past the state's end, T + 1 at top T: its empty piles), the
states below it count by level as a product of one factor per run.
Undoing a birth u keeps the runs before it and leaves its own run's
births before and after it, one run or two, the later with its births
up to u + 2 to undo, and no later birth to undo.  So with P_i the
product over the first i runs, the predecessors that undo a birth of run
i give x g_i P_(i-1) = P_i - P_(i-1), where 1 + x g_i depends on the run
alone: _run_levels finds it by this recursion.  A single birth's factor
is 1 + x, so a state of a single births only roots a binomial tree B_a,
with C(a, i) states i levels down: a leaf, with no birth to undo, is
B_0, a stub B_1 and a fork B_2.

This is the paper's factoring of a reverse-move tree by the segments of
its board, whose entries are the birth gaps and whose bars the births to
undo.  Its fuse lemma, in finite form: a run of k births, all to undo,
whose gaps are 1s and 2s with no two 1s adjacent and whose next birth
lies more than 2 past it, is a k-fuse, with factor u_k = sum_i
w(i, k - i) x^i, w(n, z) the weak compositions of n with z zeros.  A
close pair's 1 + 2x + 2x^2 is u_2.  Other runs have factors of their
own: 1 + x + x^2 for two equal births or a pair whose second birth is
past the room, 1 + 3x + 6x^2 + 6x^3 for the gaps (1, 1).  The walk counts
the runs with at most _PAST births past the room and builds the others:
with no bound _run_levels meets ever more runs, and B W^55 takes 3.8 s.

The walk counts each state it meets and does not build by its shape
(a, runs), a its single births and runs the codes of its longer runs.
At the level end it adds each shape's level counts below the root, times
its states, to one list owed, an int per level ahead.  They join a
level's count, and its budget check, when that level is generated, so
every walk caps at the level where it would cap if it built them.

Undoing pile j of a state at top T and room R, born at u <= R (it can
have been stacked last; of equal births only the first, as they give
equal predecessors), gives p: the state's births without pile j, then
R - u newborns at T + 1.  p keeps the runs of the births before pile j,
which the walk carries as j advances: a0 single births and the codes
runs0 closed, and the code rc of the open run's births up to j - 1.  x,
the birth after u, says whether p undoes births after u, those up to
u + 2; the walk reads them, the births past p's room that join its last
run, up to _PAST, and z, the next birth, reading a newborn past the
state's end when R > u and T + 2, past p's end, when not.  p is counted
when z lies more than 2 past its last run.  A p with newborns to undo
(R > u >= T - 1) has 2 piles: (t, T + 1), a fork, when u = T - 1 is the
state's second birth, and a cycle state else.  No level needs a rule of
its own: a cycle state's one predecessor on the cycle undoes its first
birth, and as a recurrent partition's piles lie at most 2 apart, its
smallest 1 or 2, that run reaches the empty piles, so the walk builds it
and the cycle check drops it.  The walk builds about a seventy-first of
the states it counts on the benchmark's growth rows.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence

__all__ = ["census_levels"]

Partition = tuple[int, ...]
State = bytes | Partition  # stored births, a byte string until they pass _BYTE_MAX
# (a, runs): a single births and the codes of the longer runs, a code being the run's
# gaps as base-6 digits after a leading 1, each plus 3 when the birth after it is past the room
Shape = tuple[int, tuple[int, ...]]
Step = tuple[int, list[State], dict[Shape, int]]  # size, the states to expand, the roots met by shape

_BYTE_MAX = 255  # the largest stored birth a byte string holds
_PAST = 4  # the most births past the room that a counted run holds
_BITS = 64  # the bits of a level's count in owed, before it is widened


def _flip(states: Iterable[Sequence[int]], off: int, depth: int, box: type = tuple) -> list:
    # pile values <-> stored births at level depth of a walk with offset off:
    # value v is stored as off + depth + 1 - v.  Its own inverse
    c = off + depth + 1
    return [box([c - x for x in s]) for s in states]


def _times(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for k, b in enumerate(q):
            out[i + k] += a * b
    return out


@functools.lru_cache(maxsize=1 << 13)
def _run_levels(gaps: tuple[int, ...], r: int) -> tuple[int, ...]:
    # the level counts of a run: births 0, gaps[0], gaps[0] + gaps[1], ...,
    # the first r to undo, the next more than 2 past the last.  Undoing birth
    # i leaves the births before it, to undo, and those after it, those within
    # 2 of it to undo: one run when the births beside it lie 2 apart or less
    out = [1]
    for i in range(r):
        if i and not gaps[i - 1]:
            continue  # equal births give equal predecessors
        if i == len(gaps):
            below = _run_levels(gaps[: i - 1], i) if i else (1,)
        else:
            d, k = gaps[i], i + 1
            while k < len(gaps) and d + gaps[k] <= 2:
                d += gaps[k]
                k += 1
            if i and gaps[i - 1] + gaps[i] <= 2:
                below = _run_levels((*gaps[: i - 1], gaps[i - 1] + gaps[i], *gaps[i + 1 :]), k)
            else:
                below = _run_levels(gaps[i + 1 :], k - i)
                if i:
                    below = _times(below, _run_levels(gaps[: i - 1], i))
        out += [0] * (len(below) + 1 - len(out))
        for k, m in enumerate(below, 1):
            out[k] += m
    return tuple(out)


def _run(code: int) -> tuple[tuple[int, ...], int]:
    # the run with this code: its gaps and how many of its births are to undo
    digits = []
    while code > 1:
        code, g = divmod(code, 6)
        digits.append(g)
    return tuple(g % 3 for g in reversed(digits)), len(digits) + 1 - sum(g > 2 for g in digits)


def _shape_levels(a: int, runs: tuple[int, ...]) -> list[int]:
    # the level counts of a root of shape (a, runs), the root first: what the level end sums packed
    out = [1]
    for factor in [(1, 1)] * a + [_run_levels(*_run(code)) for code in runs]:
        out = _times(out, factor)
    return out


def _birth_levels(
    seeds: Iterable[Partition], max_states: int, max_depth: int | None = None
) -> Iterator[Step | None]:
    # each level as (its size, the states to expand, and the states it met
    # and counted by shape, B_k as (k, ())); None when the budget runs out.
    # The walk stops after level max_depth
    cycle = list(dict.fromkeys(seeds))
    off = max([v for s in cycle for v in s], default=0)
    box = bytes if off < _BYTE_MAX else tuple
    on_cycle = set(_flip(cycle, off, 1, box))  # the cycle as level-1 births
    level = _flip(cycle, off, 0, box)
    size = total = len(level)
    depth = 0
    met: dict[Shape, int] = {}
    owed: list[int] = []  # owed[i]: states below counted ones, i + 1 levels past the last
    bits = _BITS
    packs: dict[int, tuple[int, int]] = {}  # a run's code: its level counts packed, their sum
    ones = [1]  # ones[k]: (1 + x)^k packed
    while size:
        yield size, level, met
        if depth == max_depth:
            if total > max_states:  # only the cycle is not checked below
                yield None
            return
        top = off + depth  # the level's depth as a stored birth
        due = owed.pop(0) if owed else 0
        # a state has at most (top + 5) // 4 runs: their first births, 3
        # apart, lie within its room, and it has at least as many births
        orders = [0] * (top // 4 + 3)
        shapes = {}
        nxt: list[State] = []
        push = nxt.append
        if box is bytes and top >= _BYTE_MAX:
            # a newborn's stored birth, top + 1, would not fit a byte
            box = tuple
            level = [tuple(s) for s in level]
        born = box((top + 1,))
        left = max_states - total
        # counts only grow within a level, so a check every 256 states and
        # at its end caps at the same level as a check after every state
        for i in range(0, len(level), 256):
            if i and len(nxt) + sum(orders) + sum(shapes.values()) + due > left:
                yield None
                return
            for state in level[i : i + 256]:
                n = len(state)
                room = top + 2 - n
                plain = n > 2  # no newborn to undo
                a0, runs0, rc = 0, (), 0
                for j in range(n):
                    u = state[j]
                    if u > room:
                        break
                    x = state[j + 1] if j + 1 < n else top + 3
                    if x > u + 2:
                        # p undoes only the births before u, in the runs they form
                        if not rc and plain:  # u is a single birth
                            if runs0:
                                shapes[a0, runs0] = shapes.get((a0, runs0), 0) + 1
                            else:
                                orders[a0] += 1
                            a0 += 1
                            continue
                        if j and u == state[j - 1]:
                            pass
                        elif j + 1 == n and room > u >= top - 1:
                            # newborns to undo: n = 2, and p = (t, T + 1) is a fork
                            if j:
                                orders[2] += 1
                            else:
                                push(state[:j] + born * (room - u))
                        elif rc > 1:
                            key = a0, (*runs0, rc)
                            shapes[key] = shapes.get(key, 0) + 1
                        elif runs0:
                            shapes[a0 + rc, runs0] = shapes.get((a0 + rc, runs0), 0) + 1
                        else:
                            orders[a0 + rc] += 1
                        # and u closes its run
                        if rc:
                            runs0 += (rc * 6 + u - state[j - 1],)
                            rc = 0
                        else:
                            a0 += 1
                        continue
                    if not j or u != state[j - 1]:
                        # p undoes births after u too: in one run with the open one, or a run after it
                        a, runs = a0, runs0
                        if rc and x <= state[j - 1] + 2:
                            w = rc * 6 + x - state[j - 1]
                        else:
                            if rc == 1:
                                a += 1
                            elif rc:
                                runs += (rc,)
                            w = 1
                        k = j + 2
                        while k < n and state[k] <= u + 2:
                            w = w * 6 + state[k] - state[k - 1]
                            k += 1
                        last = state[k - 1]
                        z = state[k] if k < n else top + 1 if room > u else top + 2
                        past = 0  # the births past p's room that join its last run
                        while z <= last + 2 and past < _PAST and k < n:
                            w = w * 6 + 3 + z - last
                            last = z
                            past += 1
                            k += 1
                            z = state[k] if k < n else top + 1 if room > u else top + 2
                        if z <= last + 2:
                            push(state[:j] + state[j + 1 :] + born * (room - u))
                        elif w > 1:
                            runs += (w,)
                            shapes[a, runs] = shapes.get((a, runs), 0) + 1
                        elif runs:
                            shapes[a + 1, runs] = shapes.get((a + 1, runs), 0) + 1
                        else:
                            orders[a + 1] += 1
                    rc = rc * 6 + u - state[j - 1] if rc else 1
            if depth == 0:
                # each cycle state is also its cycle neighbour's predecessor
                nxt[:] = [p for p in nxt if p not in on_cycle]
        size = len(nxt) + sum(orders) + sum(shapes.values()) + due
        if size > left:
            yield None
            return
        # each counted state owes the levels below it its shape's counts, summed
        # packed, bits to a level, widened until no level's sum can pass them
        met = {**{(k, ()): c for k, c in enumerate(orders) if c}, **shapes}
        while True:
            while len(ones) < len(orders):
                ones.append(ones[-1] * ((1 << bits) + 1))
            add = sums = 0
            for (a, runs), c in met.items():
                p, t = ones[a], 1 << a
                for code in runs:
                    if code not in packs:
                        levels = _run_levels(*_run(code))
                        packs[code] = sum(m << bits * i for i, m in enumerate(levels)), sum(levels)
                    q, m = packs[code]
                    p, t = p * q, t * m
                add += c * p
                sums += c * t
            if sums < 1 << bits:
                break
            bits, packs, ones = 2 * bits, {}, [1]
        add >>= bits  # less the roots themselves
        for d in range((add.bit_length() + bits - 1) // bits):
            if d == len(owed):
                owed.append(0)
            owed[d] += add >> d * bits & (1 << bits) - 1
        total, level, depth = total + size, nxt, depth + 1


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
