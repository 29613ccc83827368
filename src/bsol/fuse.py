"""Fuse segments of infinite boards and their play-counting polynomials.

A length-k fuse is a barred initial run whose first k-1 entries are 1s and
2s with no two 1s adjacent and whose k-th entry is at least 3.  Every play
sequence inside such a run dies after at most k moves, and the number of
sequences that take exactly i moves is the number of weak compositions of
i with exactly k-i zero parts.  This module detects fuses and computes
those counts and the level polynomials built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .murep import InfSeq
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
