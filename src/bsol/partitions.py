"""The pile-splitting move on integer partitions and its reversal.

A partition is a tuple of positive ints in weakly decreasing order.  The
forward move takes one chip from every pile and stacks the removed chips
into a new pile.  Reverse moves undo it: pick a pile that could have been
the stacked one, redistribute it one chip per pile from the left.
"""

from __future__ import annotations

from typing import Iterator


def is_partition(parts: tuple[int, ...]) -> bool:
    return all(isinstance(p, int) and p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def forward_move(parts: tuple[int, ...]) -> tuple[int, ...]:
    """One chip off every pile, the removed chips become a new pile."""
    new = [p - 1 for p in parts if p > 1]
    if parts:
        new.append(len(parts))
    new.sort(reverse=True)
    return tuple(new)


def playable_parts(parts: tuple[int, ...]) -> list[int]:
    """1-based indices of piles that a reverse move may redistribute.

    A pile qualifies when it holds at least len(parts) - 1 chips; out of a
    run of equal piles only the last index is kept, the others would give
    the same predecessor.
    """
    k = len(parts)
    out = []
    for j in range(1, k + 1):
        v = parts[j - 1]
        if v < k - 1:
            break
        if j < k and parts[j] == v:
            continue
        out.append(j)
    return out


def reverse_move(parts: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Undo the forward move assuming pile j (1-based) was the stacked one."""
    if j not in playable_parts(parts):
        raise ValueError(f"pile {j} of {parts!r} is not playable")
    v = parts[j - 1]
    rest = list(parts[: j - 1] + parts[j:])
    while len(rest) < v:
        rest.append(0)
    for i in range(v):
        rest[i] += 1
    result = tuple(rest)
    if not is_partition(result):
        raise ValueError(f"not a partition: {parts!r}")
    return result


def predecessors(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All partitions that the forward move sends to this one."""
    if not parts:
        return [()]  # the empty board maps only to itself
    return [reverse_move(parts, j) for j in playable_parts(parts)]


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
