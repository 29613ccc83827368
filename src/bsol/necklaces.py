"""Binary necklaces and their recurrent partitions.

A cyclic word over {B, W} of length m names one recurrent cycle of the
pile-splitting move on m(m-1)/2 + #B chips.  Reading the word at a fixed
rotation gives a concrete partition: a staircase with one extra chip on
every B row.  Rotating the word one step to the right is the same as
applying the forward move to that partition.
"""

from __future__ import annotations

from .partitions import forward_move

ALPHABET = {"B", "W"}


def check_word(word: str) -> str:
    if not word or any(ch not in ALPHABET for ch in word):
        raise ValueError(f"necklace word must be a nonempty string over B/W, got {word!r}")
    return word


def rotate_right(word: str, k: int = 1) -> str:
    k %= len(word)
    return word[-k:] + word[:-k] if k else word


def rotate_left(word: str, k: int = 1) -> str:
    k %= len(word)
    return word[k:] + word[:k] if k else word


def distinct_rotations(word: str) -> list[str]:
    """Successive right rotations, deduplicated, starting from the word itself."""
    out = []
    w = word
    while w not in out:
        out.append(w)
        w = rotate_right(w)
    return out


def canonical(word: str) -> str:
    """Lexicographically least rotation; identifies the necklace."""
    return min(distinct_rotations(check_word(word)))


def is_primitive(word: str) -> bool:
    """True when the word is not a proper power of a shorter word."""
    return cycle_length(check_word(word)) == len(word)


def primitive_word(word: str) -> str:
    """The word itself when it is a primitive necklace word; ValueError otherwise."""
    if not is_primitive(word):
        raise ValueError(f"necklace {word} is not primitive")
    return word


def dual(word: str) -> str:
    """Canonical form of the reversed word with B and W swapped."""
    flipped = "".join("W" if ch == "B" else "B" for ch in check_word(word))
    return canonical(flipped[::-1])


def word_partition(word: str) -> tuple[int, ...]:
    """The recurrent partition read off one rotation of the word.

    Row i (from 1) gets m - i chips plus one more when letter i is B.  A
    final zero row (last letter W) is dropped; no other row can vanish.
    """
    m = len(check_word(word))
    parts = tuple(m - i + (1 if word[i - 1] == "B" else 0) for i in range(1, m + 1))
    if parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def cycle_partitions(word: str) -> list[tuple[int, ...]]:
    """The cycle's partitions in forward-move order, starting at this rotation."""
    return [word_partition(w) for w in distinct_rotations(word)]


def cycle_length(word: str) -> int:
    return len(distinct_rotations(word))


def necklace_representatives(m: int) -> list[str]:
    """Canonical words, one per binary necklace of length m, sorted."""
    if m <= 0:
        raise ValueError("necklace length must be positive")
    seen = set()
    for bits in range(2**m):
        w = "".join("BW"[(bits >> i) & 1] for i in range(m))
        seen.add(canonical(w))
    return sorted(seen)


def brandt_mismatches(max_size: int) -> list[str]:
    """Necklaces of size 1..max_size whose rotations do not read off their cycle.

    Brandt's description of the recurrent partitions: the partitions read
    off a word's distinct rotations are exactly the forward-move cycle
    through any one of them.  An empty list means it held for every
    necklace up to max_size.
    """
    mismatches = []
    for m in range(1, max_size + 1):
        for word in necklace_representatives(m):
            cycle: list[tuple[int, ...]] = []
            lam = word_partition(word)
            while lam not in cycle:
                cycle.append(lam)
                lam = forward_move(lam)
            if set(cycle_partitions(word)) != set(cycle):
                mismatches.append(word)
    return mismatches
