"""The pile-splitting move on integer partitions and its reversal.

A partition is a tuple of positive ints in weakly decreasing order.  The
forward move takes one chip from every pile and stacks the removed chips
into a new pile.  Reverse moves undo it: pick a pile that could have been
the stacked one, redistribute it one chip per pile from the left.  This
module holds the forward move, the reverse moves and a partition's
predecessors, the results of every reverse move it allows.
"""

from __future__ import annotations


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
