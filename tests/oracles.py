"""Independent oracles that the tests check bsol against.

No bs command runs any of this.  Each definition is a second route to a
result the package computes another way, or a small helper the tests
build inputs with:

- the fuse play census by exhaustive play, the closed form of the weak
  composition counts, the bijection between play sequences and weak
  compositions, and the prefuse scan;
- the reverse move on finite barred difference sequences, the finite
  form of the infinite-board move;
- forward trajectories, partition enumeration, the staircase and a
  partition's predecessors;
- the census walk's levels by a plain predecessors search, each state
  classified by the runs of the piles it can undo, and the level counts
  of each run, by a predecessors search on a partition that holds it;
- a necklace's chip count, the first anchor of the anchored reduction,
  a reference closed form by necklace, the two published series-level
  forms, and a parser for the polynomial text format.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterator, NamedTuple

from bsol import golden
from bsol.golden import h_table
from bsol.limits import assemble_system, reduce_system
from bsol.murep import BAR_WINDOW, InfSeq, inf_move, inf_seq, recurrent_elements, tail_from_word
from bsol.necklaces import canonical, check_word
from bsol.partitions import forward_move
from bsol.polyrat import IntPoly, RatFn

# --- fuse: weak compositions and play census ------------------------------------


def weak_comp_count_binom(n: int, i: int) -> int:
    """Closed-form check: choose the positive parts, then place the zeros."""
    if n == 0:
        return 1
    return sum(comb(n - 1, j - 1) * comb(j + i, i) for j in range(1, n + 1))


def weak_compositions(n: int, i: int) -> list[tuple[int, ...]]:
    """All weak compositions of n with exactly i zero parts."""
    if n == 0 and i == 0:
        return [()]
    out = []
    if i > 0:
        out += [c + (0,) for c in weak_compositions(n, i - 1)]
    for p in range(1, n + 1):
        out += [c + (p,) for c in weak_compositions(n - p, i)]
    return out


def _fuse_board(k: int, tail: InfSeq) -> InfSeq:
    """A board opening with a canonical length-k fuse, continuing as tail.

    The fuse values alternate 2, 1, 2, ... and close with a 3; the tail is
    attached unbarred.
    """
    if k < 1:
        raise ValueError(k)
    vals = [2 if t % 2 == 0 else 1 for t in range(k - 1)] + [3]
    prefix = tuple((v, True) for v in vals)
    prefix += tuple((v, False) for v, _ in tail.prefix)
    return inf_seq(prefix, tail.period)


def fuse_plays(k: int, tail: InfSeq | None = None) -> list[tuple[int, ...]]:
    """Every complete-or-partial play sequence inside a length-k fuse.

    Builds a board whose first k positions form a fuse and plays every
    sequence of reverse moves at barred positions <= k.  A sequence longer
    than k means the fuse did not burn down, an ArithmeticError.
    """
    if tail is None:
        tail = recurrent_elements("BWW")["BWW"]
    out: list[tuple[int, ...]] = []

    def walk(s: InfSeq, plays: tuple[int, ...]) -> None:
        if len(plays) > k:
            raise ArithmeticError("fuse survived too many moves")
        out.append(plays)
        for j in s.bars():
            if j <= k:
                walk(inf_move(s, j), plays + (j,))

    walk(_fuse_board(k, tail), ())
    return out


def u_tree_oracle(k: int, tail: InfSeq | None = None) -> IntPoly:
    """Census of play sequences inside a fuse, by exhaustive play.

    Counts the sequences of fuse_plays by length.  The result must not
    depend on the tail; pass one to check that.
    """
    return IntPoly(Counter(len(plays) for plays in fuse_plays(k, tail)))


def prefuse_length(s: InfSeq) -> int:
    """Length k of a prefuse the board starts with, 0 when it has none.

    A prefuse has a fuse's barred run of 1s and 2s, no two 1s adjacent,
    but the run ends at an unbarred position instead of a barred entry
    >= 3; fuse.detect_fuse gives 0 for it.
    """
    prev_one = False
    i = 1
    while s.barred_at(i):
        v = s.value_at(i)
        if v >= 3 or (v == 1 and prev_one):
            return 0
        prev_one = v == 1
        i += 1
    return i - 1


# --- fuse: play sequences <-> weak compositions ---------------------------------

# A play sequence inside a length-k fuse is weakly decreasing.  Group it
# into runs (i_1^a_1, ..., i_s^a_s) with i_1 > ... > i_s.  Each run burns
# the current fuse down to length i_j - 1 and contributes a block
# (a_j, 0^{m_j}) on the left of the composition, where m_j counts the
# positions skipped over:  m_j = f_j - i_j - a_j + 1 with f_1 = k and
# f_{j+1} = i_j - 1.  Runs with m_j < 0 overplay the fuse and are invalid.


def _runs(plays: tuple[int, ...]) -> list[tuple[int, int]]:
    runs: list[tuple[int, int]] = []
    for p in plays:
        if runs and runs[-1][0] == p:
            runs[-1] = (p, runs[-1][1] + 1)
        else:
            runs.append((p, 1))
    return runs


def composition_of_play(k: int, plays: tuple[int, ...]) -> tuple[int, ...]:
    """The weak composition encoding a play sequence inside a length-k fuse."""
    if any(a < b for a, b in zip(plays, plays[1:])):
        raise ValueError(f"play sequence {plays} has increasing indices")
    comp: list[int] = []
    f = k
    for i, a in _runs(plays):
        if not 1 <= i <= f:
            raise ValueError(f"play at {i} outside the live fuse of length {f}")
        m = f - i - a + 1
        if m < 0:
            raise ValueError(f"{a} plays at {i} overrun a fuse of length {f}")
        comp = [a] + [0] * m + comp
        f = i - 1
    return tuple([0] * f + comp)


def play_of_composition(k: int, comp: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of composition_of_play.

    comp must be a weak composition of some i with exactly k - i zeros.
    """
    if any(c < 0 for c in comp):
        raise ValueError("composition parts must be >= 0")
    zeros = sum(1 for c in comp if c == 0)
    if sum(comp) + zeros != k:
        raise ValueError(f"{comp} does not encode a play in a length-{k} fuse")
    parts = list(comp)
    plays: list[int] = []
    f = k
    while any(parts):
        m = 0
        while parts[-1] == 0:
            parts.pop()
            m += 1
        v = parts.pop()
        i = f - m - v + 1
        plays += [i] * v
        f = i - 1
    return tuple(plays)


# --- murep: finite boards and the tail inverse ----------------------------------


@dataclass(frozen=True)
class BarredSeq:
    """Difference sequence of a partition plus barred (playable) positions."""

    values: tuple[int, ...]
    bars: frozenset[int]

    def __post_init__(self):
        for i in self.bars:
            if not 1 <= i <= len(self.values) or self.values[i - 1] == 0:
                raise ValueError(f"bar at {i} is out of range or on a zero entry")

    def __str__(self) -> str:
        return " ".join(
            f"{v}*" if i in self.bars else str(v)
            for i, v in enumerate(self.values, start=1)
        )


def from_partition(parts: tuple[int, ...]) -> BarredSeq:
    k = len(parts)
    ext = tuple(parts) + (0,)
    values = tuple(ext[i] - ext[i + 1] for i in range(k))
    bars = frozenset(
        i for i in range(1, k + 1) if values[i - 1] != 0 and parts[i - 1] >= k - 1
    )
    return BarredSeq(values, bars)


def to_partition(seq: BarredSeq) -> tuple[int, ...]:
    total = 0
    out = []
    for v in reversed(seq.values):
        total += v
        out.append(total)
    out.reverse()
    return tuple(out)


def move(seq: BarredSeq, j: int) -> BarredSeq:
    """Reverse move at barred position j, all in difference coordinates."""
    if j not in seq.bars:
        raise ValueError(f"position {j} of {seq} is not barred")
    mu = seq.values
    k = len(mu)
    v = sum(mu[j - 1 :])  # size of the row being redistributed
    if j == 1:
        sigma = list(mu[1:])
    else:
        sigma = list(mu[: j - 2]) + [mu[j - 2] + mu[j - 1]] + list(mu[j:])
    while len(sigma) < v:
        sigma.append(0)
    sigma[v - 1] += 1
    bars = set()
    for i in range(1, j):
        if sigma[i - 1] != 0:
            bars.add(i)
    acc = 0
    for i in range(j, len(sigma) + 1):
        if i <= k:
            acc += mu[i - 1]
        if acc < BAR_WINDOW and sigma[i - 1] != 0:
            bars.add(i)
    return BarredSeq(tuple(sigma), frozenset(bars))


def word_from_tail(tail: tuple[int, ...]) -> tuple[str, bool]:
    """Invert tail_from_word.

    Returns (word, ambiguous).  The all-ones tail is shared by the all-W and
    all-B words; the all-W one is returned with ambiguous=True.  Raises
    ValueError when no word fits.
    """
    m = len(tail)
    if m == 0 or any(t not in (0, 1, 2) for t in tail):
        raise ValueError(f"tail entries must be 0, 1 or 2, got {tail!r}")
    if all(t == 1 for t in tail):
        return "W" * m, True
    letters: list[str | None] = [None] * m
    i0 = next(i for i, t in enumerate(tail) if t != 1)
    cur = letters[i0] = "B" if tail[i0] == 2 else "W"
    for step in range(m):
        j = (i0 + step) % m
        t = tail[j]
        if t == 2 and cur != "B":
            raise ValueError(f"tail {tail!r} is not realizable (position {j + 1})")
        if t == 0 and cur != "W":
            raise ValueError(f"tail {tail!r} is not realizable (position {j + 1})")
        nxt = {2: "W", 0: "B"}.get(t, cur)
        jj = (j + 1) % m
        if letters[jj] is None:
            letters[jj] = nxt
        elif letters[jj] != nxt:
            raise ValueError(f"tail {tail!r} is not realizable (wraparound)")
        cur = nxt
    word = "".join(letters)  # type: ignore[arg-type]
    if tail_from_word(word) != tuple(tail):
        raise ValueError(f"tail {tail!r} is not realizable")
    return word, False


def is_proper_tail(tail: tuple[int, ...]) -> bool:
    try:
        word_from_tail(tail)
        return True
    except ValueError:
        return False


# --- partitions ---------------------------------------------------------------


def level_and_cycle(parts: tuple[int, ...]) -> tuple[int, int]:
    """(steps until some state repeats for the first time, cycle length)."""
    seen: dict[tuple[int, ...], int] = {}
    cur = tuple(parts)
    step = 0
    while cur not in seen:
        seen[cur] = step
        cur = forward_move(cur)
        step += 1
    return seen[cur], step - seen[cur]


def trajectory(parts: tuple[int, ...], steps: int) -> list[tuple[int, ...]]:
    out = [tuple(parts)]
    for _ in range(steps):
        out.append(forward_move(out[-1]))
    return out


def all_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n, each a weakly decreasing tuple."""
    if n == 0:
        yield ()
        return

    def rec(remaining: int, cap: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            yield from rec(remaining - p, p, prefix)
            prefix.pop()

    yield from rec(n, n, [])


def staircase(k: int) -> tuple[int, ...]:
    """(k, k-1, ..., 1), the fixed point of the forward move on k(k+1)/2 chips."""
    return tuple(range(k, 0, -1))


def reverse_moves(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The partitions the forward move sends to parts, by undoing it at each pile it allows.

    A pile of v >= len(parts) - 1 chips can be the one the forward move
    stacked: the other piles lost a chip each and v - len(parts) + 1 piles
    of one chip went away, so giving back a chip to the first v of them,
    zeros included, undoes it.  Equal piles give equal partitions, so of
    each run of them only the first is undone.  The empty board maps to
    itself.  A second route to partitions.predecessors, without its checks.
    """
    k = len(parts)
    out = [] if k else [()]
    plus = tuple([x + 1 for x in parts])  # every pile given back its chip
    for j, v in enumerate(parts):
        if v < k - 1:
            break
        if not j or parts[j - 1] != v:
            out.append(plus[:j] + plus[j + 1 :] + (1,) * (v - k + 1))
    return out


# the predecessors of a state, each computed once; the oracles below and
# the tests that classify states share it.  It holds every state that one
# run of the census tests meets
cached_predecessors = functools.lru_cache(maxsize=1 << 19)(reverse_moves)


def level_counts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The states 0, 1, 2, ... reverse moves below parts, by a plain predecessors search.

    The states below one are a tree, met once each, so nothing is cached.
    """
    counts, level = [], [parts]
    while level:
        counts.append(len(level))
        level = [p for s in level for p in reverse_moves(s)]
    return tuple(counts)


def times(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two polynomials, as coefficient tuples lowest first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, m in enumerate(p):
        for k, f in enumerate(q):
            out[i + k] += m * f
    return tuple(out)


Run = tuple[tuple[int, ...], int]  # a run's gaps, largest pile first, and its piles past the room
Shape = tuple[int, tuple[Run, ...]]  # (a, runs): a single piles, and the longer runs, sorted


def run_shape(parts: tuple[int, ...]) -> Shape | None:
    """The runs of the piles parts can undo, (a, runs), or None when the last reaches the empty piles.

    A pile can be undone when it holds at least len(parts) - 1 chips.
    Piles 2 chips or less apart chain into runs, from the largest down, and
    an empty pile lies past the smallest.  A run starts at a pile to undo
    and takes in the piles that chain to it, to undo or not, those its
    piles past the room.  a counts the runs of one pile, and runs holds
    each longer one as (its gaps, its piles past the room).  When a run
    chains to the empty piles the shape is None, but in (v, 1): undoing
    its pile of one chip uses no empty pile, and undoing v leaves that
    pile past every room below, so it is a single pile.  The level counts
    under parts are then shape_levels(shape): a leaf is (0, ()), and a
    state with no longer run roots a binomial tree B_a.
    """
    n = len(parts)
    values = (*parts, 0)
    a, runs, i = 0, [], 0
    while i < n and parts[i] >= n - 1:
        start = i
        while values[i] - values[i + 1] <= 2:
            if i + 1 == n:
                if parts[start:] == (1,) and n == 2:
                    break  # undoing (v, 1)'s last pile uses no empty pile
                return None
            i += 1
        gaps = tuple(values[k] - values[k + 1] for k in range(start, i))
        if gaps:
            runs.append((gaps, sum(v < n - 1 for v in parts[start : i + 1])))
        else:
            a += 1
        i += 1
    return a, tuple(sorted(runs))


@functools.lru_cache(maxsize=None)
def run_levels(run: Run) -> tuple[int, ...]:
    """A run's factor: the level counts under a partition whose piles to undo form that run alone.

    Its piles are the run's, from base = len + 3 chips up, and then ones,
    so that its first len - past piles are to undo and no other pile is,
    and its smallest lies more than 2 chips above the ones.
    """
    gaps, past = run
    m = len(gaps) + 1
    values = [m + 3 + sum(gaps[i:]) for i in range(m)]
    parts = (*values, *[1] * (values[m - 1 - past] + 1 - m))
    if run_shape(parts) != (0, (run,)):
        raise ValueError(f"no partition holds the run {run}")
    return level_counts(parts)


def shape_levels(shape: Shape) -> tuple[int, ...]:
    """The level counts of a shape: (1 + x)^a times the factor of each run."""
    a, runs = shape
    out: tuple[int, ...] = (1,)
    for factor in [(1, 1)] * a + [run_levels(run) for run in runs]:
        out = times(out, factor)
    return out


def is_counted(shape: Shape | None, past: int) -> bool:
    """Whether the census walk counts a state of this shape that it meets, at any level:
    when its runs hold at most past piles past the room."""
    return shape is not None and all(b <= past for _, b in shape[1])


@functools.lru_cache(maxsize=1 << 16)
def binomial_order(parts: tuple[int, ...]) -> int | None:
    """k when parts roots a binomial tree B_k, its predecessors roots of B_0, ..., B_(k-1); else None.

    A predecessors search that stops at the first predecessor rooting no
    binomial tree.
    """
    orders = []
    for p in cached_predecessors(parts):
        k = binomial_order(p)
        if k is None:
            return None
        orders.append(k)
    return len(orders) if sorted(orders) == list(range(len(orders))) else None


class LevelShapes(NamedTuple):
    """One orbit level split as the census walk splits it, in value form."""

    expand: list[tuple[int, ...]]
    counted: dict[Shape, list[tuple[int, ...]]]  # the states it does not build, by shape
    roots: dict[Shape, list[tuple[int, ...]]]  # those of them it meets and counts on this level

    def states(self) -> list[tuple[int, ...]]:
        return self.expand + [s for part in self.counted.values() for s in part]

    def order(self, k: int) -> list[tuple[int, ...]]:
        """The states it does not build that root a binomial tree B_k."""
        return self.counted.get((k, ()), [])


def shaped_levels(seeds: list[tuple[int, ...]], past: int) -> Iterator[LevelShapes]:
    """The levels of the orbit hanging off the cycle seeds, by a predecessors search.

    Each state is classified by run_shape as the census walk classifies
    it, by one rule at every level: the seeds are expanded, and from level
    1 on a state whose runs hold at most past piles past the room, a leaf,
    B_0, among them, is one the walk does not build; every other state is
    one the walk expands.  roots holds by shape the states the walk counts
    where it meets them, as predecessors of states it built; the others
    lie below a counted state, and the walk owes them as the levels of its
    shape.  Levels are made one at a time, so a caller that stops early
    builds none past it.
    """
    cycle = set(seeds)
    built = list(dict.fromkeys(seeds))  # level 0: the cycle, expanded
    owed: list[tuple[int, ...]] = []
    depth = 0
    while built or owed:
        split = LevelShapes([], {}, {})
        for met, states in ((True, built), (False, owed)):
            for state in states:
                shape = run_shape(state) if depth else None
                if met and not is_counted(shape, past):
                    split.expand.append(state)
                    continue
                if met:
                    split.roots.setdefault(shape, []).append(state)
                split.counted.setdefault(shape, []).append(state)
        yield split
        built = [p for s in split.expand for p in cached_predecessors(s) if p not in cycle]
        owed = [p for part in split.counted.values() for s in part for p in cached_predecessors(s)]
        depth += 1


# --- necklaces, limits and golden ---------------------------------------------


def weight(word: str) -> int:
    """Chips in the partitions of this necklace's cycle."""
    m = len(check_word(word))
    return m * (m - 1) // 2 + word.count("B")


def anchored_self_coeff(word: str) -> tuple[IntPoly, int]:
    """Self-coefficient f with g_a = const + f g_a, first anchor that works.

    Anchors are tried in rotation order from the word as given.  1 - f is
    the denominator of the solved system up to sign.
    """
    sys = assemble_system(word)
    for a in range(sys.n):
        red = reduce_system(sys, a)
        if red is not None:
            return red[2], a
    raise ArithmeticError(f"no anchor makes the {word} system triangular")


def h_for(word: str) -> RatFn | None:
    want = canonical(word)
    for e in h_table():
        if canonical(e.necklace) == want:
            return e.ratfn()
    return None


def h_series_forms() -> dict[str, RatFn]:
    """The two families without a closing forest, as plain num/den."""
    data = golden._load("appendix_h.json")
    return {
        r["necklace"]: RatFn(golden._poly(r["num"]), golden._poly(r["den"]))
        for r in data["series_forms"]
    }


# --- polyrat: the text format, read back ----------------------------------------
#
# The parser reads what format_poly writes, and also accepts an optional
# "*" between coefficient and x, arbitrary term order, repeated terms
# (summed), and a unicode minus.


class PolyParseError(ValueError):
    def __init__(self, text: str, pos: int, msg: str):
        super().__init__(f"cannot parse {text!r} at position {pos}: {msg}")
        self.pos = pos


def _parse_terms(text: str) -> dict[int, int]:
    s = text.replace("−", "-")
    i, n = 0, len(s)
    coeffs: dict[int, int] = {}

    def skip_ws(i: int) -> int:
        while i < n and s[i].isspace():
            i += 1
        return i

    def read_int(i: int, signed: bool) -> tuple[int, int]:
        j = i
        if signed and j < n and s[j] in "+-":
            j += 1
        k = j
        while k < n and s[k].isdigit():
            k += 1
        if k == j:
            raise PolyParseError(text, i, "expected an integer")
        return int(s[i:k]), k

    i = skip_ws(i)
    if i == n:
        raise PolyParseError(text, i, "empty input")
    first = True
    while i < n:
        sign = 1
        i = skip_ws(i)
        if not first or (i < n and s[i] in "+-"):
            if i >= n or s[i] not in "+-":
                raise PolyParseError(text, i, "expected '+' or '-'")
            sign = -1 if s[i] == "-" else 1
            i = skip_ws(i + 1)
        first = False
        c = 1
        have_coeff = False
        if i < n and s[i].isdigit():
            c, i = read_int(i, signed=False)
            have_coeff = True
            i = skip_ws(i)
            if i < n and s[i] == "*":
                i = skip_ws(i + 1)
        if i < n and s[i] == "x":
            i += 1
            e = 1
            if i < n and s[i] == "^":
                e, i = read_int(i + 1, signed=True)
        else:
            if not have_coeff:
                raise PolyParseError(text, i, "expected a coefficient or 'x'")
            e = 0
        if e < 0:
            raise PolyParseError(text, i, f"negative exponent {e} not allowed here")
        coeffs[e] = coeffs.get(e, 0) + sign * c
        i = skip_ws(i)
    return coeffs


def parse_poly(text: str) -> IntPoly:
    return IntPoly(_parse_terms(text))
