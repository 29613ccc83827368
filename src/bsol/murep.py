"""Gap coordinates for the reverse game on infinite boards.

A partition turns into its sequence of consecutive differences, barred
where a reverse move may act.  A pile may be undone when it holds at
least len - 1 chips, a threshold on weakly decreasing piles, so the
playable piles are a leading run and the bars are exactly the nonzero
entries up to one bound.  Written in these coordinates the reverse move
becomes local: merge two entries, move the rest left, drop one chip
marker at a finite depth, and re-derive the bound from a bounded window.
That locality is what lets the rule run on infinite, eventually periodic
sequences, where the board itself has no partition anymore; this module
holds those boards and the recurrent ones of each necklace, read off the
word: a recurrent board's values are its rotation's tail, and one cycle
move fixes its bound from those values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .necklaces import check_word, distinct_rotations, rotate_left

# a reverse move can re-expose a bar only while the chips pulled so far
# stay under this many rows
BAR_WINDOW = 3


# --- infinite boards ---------------------------------------------------------


@dataclass(frozen=True)
class InfSeq:
    """Eventually periodic difference sequence, barred up to a bound.

    prefix holds the values at positions 1..p; period gives the values
    from position p+1 on, repeating forever.  The bars are the nonzero
    entries at positions 1..bound, which is exact: see the module
    docstring.  Stored canonically: primitive period, bound 0 or on a
    nonzero entry, prefix trimmed only past the bound.  Equality of
    canonical forms is equality of boards.
    """

    prefix: tuple[int, ...]
    bound: int
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period or any(v < 0 for v in self.period):
            raise ValueError("period must be nonempty with entries >= 0")
        if sum(self.period) == 0:
            raise ValueError("period must have positive sum")
        if any(v < 0 for v in self.prefix) or not 0 <= self.bound <= len(self.prefix):
            raise ValueError("bad prefix entry or bound")

    def value_at(self, i: int) -> int:
        p = len(self.prefix)
        if i < 1:
            raise IndexError(i)
        if i <= p:
            return self.prefix[i - 1]
        return self.period[(i - p - 1) % len(self.period)]

    def barred_at(self, i: int) -> bool:
        return 1 <= i <= self.bound and self.prefix[i - 1] != 0

    def bars(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.bound + 1) if self.prefix[i - 1])

    def __str__(self) -> str:
        head = " ".join(
            f"{v}*" if self.barred_at(i) else str(v)
            for i, v in enumerate(self.prefix, start=1)
        )
        tail = " ".join(str(v) for v in self.period)
        return f"[{head} | {tail}]" if head else f"[| {tail}]"


def _primitive(period: tuple[int, ...]) -> tuple[int, ...]:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


def inf_seq(values: tuple[int, ...], bound: int, period: tuple[int, ...]) -> InfSeq:
    """Canonical constructor: values barred where nonzero up to bound."""
    if not 0 <= bound <= len(values):
        raise ValueError(f"bound {bound} is outside the values {values}")
    period = _primitive(tuple(period))
    prefix = list(values)
    while bound and not prefix[bound - 1]:
        bound -= 1
    while len(prefix) > bound and prefix[-1] == period[-1]:
        prefix.pop()
        period = (period[-1],) + period[:-1]
    return InfSeq(tuple(prefix), bound, period)


def inf_move(s: InfSeq, j: int) -> InfSeq:
    """Reverse move at position j on an infinite board."""
    if not s.barred_at(j):
        raise ValueError(f"position {j} of {s} is not barred")

    p, per, n = len(s.prefix), s.period, len(s.period)

    # last position whose cumulative pulled chips stay under the window;
    # it is the new bound, and never below j - 1
    h, acc = j - 1, s.value_at(j)
    while acc < BAR_WINDOW:
        h += 1
        acc += s.value_at(h + 1)

    # merge entries j - 1 and j, and move the rest left
    q = max(p - 1, h)
    values = [s.value_at(i) for i in range(1, q + 2)]
    del values[j - 1]
    if j > 1:
        values[j - 2] += s.value_at(j)
    new_per = per[(q + 1 - p) % n :] + per[: (q + 1 - p) % n]
    return inf_seq(tuple(values), h, new_per)


def drop_head(s: InfSeq, k: int) -> InfSeq:
    """The board seen from position k+1 onward, reindexed to start at 1."""
    if k < 0:
        raise ValueError(k)
    p, per, n = len(s.prefix), s.period, len(s.period)
    if k <= p:
        return inf_seq(s.prefix[k:], max(s.bound - k, 0), per)
    r = (k - p) % n
    return inf_seq((), 0, per[r:] + per[:r])


# --- necklace tails and recurrent boards -------------------------------------

_PAIR_GAP = {("B", "W"): 2, ("W", "B"): 0, ("B", "B"): 1, ("W", "W"): 1}


def tail_from_word(word: str) -> tuple[int, ...]:
    """Difference sequence of a necklace's recurrent boards, one full turn."""
    check_word(word)
    m = len(word)
    return tuple(_PAIR_GAP[(word[i], word[(i + 1) % m])] for i in range(m))


def recurrent_board(rot: str) -> InfSeq:
    """The recurrent board of one rotation, read off the word.

    It is the cycle move of the board of rotate_right(rot) at that board's
    first nonzero entry.  The move shifts the values one place left, so
    they become rot's tail repeated, and it bars exactly the nonzero
    entries read while the tail's last entry (the one the move pulls)
    plus the entries before them stays under BAR_WINDOW.  Neither depends
    on the bars of the board moved.
    """
    tail = tail_from_word(rot)
    prefix = []
    pulled = tail[-1]
    while pulled < BAR_WINDOW:
        v = tail[len(prefix) % len(tail)]
        prefix.append(v)
        pulled += v
    r = len(prefix) % len(tail)
    return inf_seq(tuple(prefix), len(prefix), tail[r:] + tail[:r])


def recurrent_elements(word: str) -> dict[str, InfSeq]:
    """The recurrent infinite boards of a necklace, keyed by rotation.

    Each board comes from recurrent_board.  The move rule cross-checks
    them: a reverse move at its first bar sends the board of rotation r
    to the board of rotate_left(r), and distinct rotations give distinct
    boards.
    """
    rots = distinct_rotations(check_word(word))
    boards = {rot: recurrent_board(rot) for rot in rots}
    for rot, board in boards.items():
        nxt = rotate_left(rot)
        bars = board.bars()
        if not bars or inf_move(board, bars[0]) != boards.get(nxt):
            raise ArithmeticError(f"cycle move of {board} is not the {nxt} board")
    if len(set(boards.values())) != len(boards):
        raise ArithmeticError(f"rotations of {word} gave duplicate boards")
    return boards
