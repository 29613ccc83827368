"""Fuse segments of infinite boards and their play-counting polynomials.

A length-k fuse is a barred initial run whose first k-1 entries are 1s and
2s with no two 1s adjacent and whose k-th entry is at least 3.  Every play
sequence inside such a run dies after at most k moves, and the number of
sequences that take exactly i moves is the number of weak compositions of
i with exactly k-i zero parts.  This module detects fuses, computes those
counts, and carries the explicit bijection between play sequences and
compositions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .murep import InfSeq, inf_move, inf_seq, recurrent_element
from .polyrat import IntPoly, LaurentPoly

# --- detection ----------------------------------------------------------------


@dataclass(frozen=True)
class FuseInfo:
    """Classification of the initial barred run of a board.

    kind is "fuse" (run of 1s and 2s closed off by an entry >= 3, all
    barred), "prefuse" (the same run shape but the next position is
    unbarred instead of large), or "none".  k is the run length, 0 when
    kind is "none".
    """

    kind: str
    k: int


NO_FUSE = FuseInfo("none", 0)


def detect_fuse(s: InfSeq) -> FuseInfo:
    """Classify the start of the board.

    Two adjacent 1s inside the barred run disqualify the whole board, even
    if a large entry follows.
    """
    prev_one = False
    i = 1
    # bars live only in the prefix, so the scan is bounded
    while s.barred_at(i):
        v = s.value_at(i)
        if v >= 3:
            return FuseInfo("fuse", i)
        if v == 1 and prev_one:
            return NO_FUSE
        prev_one = v == 1
        i += 1
    return FuseInfo("prefuse", i - 1) if i > 1 else NO_FUSE


# --- weak composition counts and the level polynomials ------------------------


@lru_cache(maxsize=None)
def weak_comp_count(n: int, i: int) -> int:
    """Number of weak compositions of n with exactly i parts equal to zero.

    Classify by the last part: zero, or some positive p.  Only the empty
    composition has n = 0 and i = 0.
    """
    if n < 0 or i < 0:
        return 0
    if n == 0 and i == 0:
        return 1
    total = weak_comp_count(n, i - 1)
    for p in range(1, n + 1):
        total += weak_comp_count(n - p, i)
    return total


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


def u_poly(k: int) -> IntPoly:
    """Level census of a length-k fuse: coefficient of x^i counts the play
    sequences that make exactly i moves before the fuse is spent."""
    if k < 0:
        raise ValueError(k)
    return IntPoly({i: weak_comp_count(i, k - i) for i in range(k + 1)})


def u_norm(k: int) -> LaurentPoly:
    """u_poly(k) divided by x^k, the form the limit systems consume."""
    return u_poly(k).to_laurent().shift(-k)


def v_norm(k: int) -> LaurentPoly:
    """Partial sums of the normalized census polynomials."""
    total = LaurentPoly()
    for t in range(k + 1):
        total = total + u_norm(t)
    return total


# --- play census on actual boards ---------------------------------------------


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
        tail = recurrent_element("BWW")
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


# --- play sequences <-> weak compositions --------------------------------------

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
