"""Play-counting polynomials of the fuse segments of infinite boards.

A length-k fuse is a barred initial run whose first k-1 entries are 1s and
2s with no two 1s adjacent and whose k-th entry is at least 3.  Every play
sequence inside such a run dies after at most k moves, and the number of
sequences that take exactly i moves is the number of weak compositions of
i with exactly k-i zero parts.  This module computes those counts and
the level polynomials built from them; limits finds a board's fuses as
runs in front of a wall, whose factor _census_py.run_levels gives.
"""

from __future__ import annotations

from functools import lru_cache

from .polyrat import IntPoly, X, ZERO

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


def v_norm(k: int) -> IntPoly:
    """x^k v_k, where v_k = sum_{t <= k} u_poly(t) x^-t is the partial sum of
    the normalized census polynomials: sum_t u_poly(t) x^(k - t).

    v_k itself has exponents down to -k, so it carries the factor x^k to
    stay in Z[x]; the recurrences in limits multiply the powers of x back
    in, and bs ufuse subtracts k from each exponent when it prints v_k.
    """
    total = ZERO
    for t in range(k + 1):
        total = total + u_poly(t) * X ** (k - t)
    return total
