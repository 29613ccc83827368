"""Gap coordinates for the reverse game on infinite boards.

A partition turns into its sequence of consecutive differences plus a set
of bars marking where a reverse move may act.  Written in these
coordinates the reverse move becomes local: merge two entries, move the
rest left, drop one chip marker at a finite depth, and re-derive bars from
a bounded window.  That locality is what lets the rule run on infinite,
eventually periodic sequences, where the board itself has no partition
anymore; this module holds those boards and the recurrent ones of each
necklace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .necklaces import check_word, distinct_rotations, rotate_left

# a reverse move can re-expose a bar only while the chips pulled so far
# stay under this many rows
BAR_WINDOW = 3


# --- infinite boards ---------------------------------------------------------


@dataclass(frozen=True)
class InfSeq:
    """Eventually periodic difference sequence with finitely many bars.

    prefix holds (value, barred) pairs for positions 1..p; period gives the
    values from position p+1 on, repeating forever, never barred.  Stored
    canonically: primitive period, prefix trimmed as short as the bars and
    the phase allow.  Equality of canonical forms is equality of boards.
    """

    prefix: tuple[tuple[int, bool], ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period or any(v < 0 for v in self.period):
            raise ValueError("period must be nonempty with entries >= 0")
        if sum(self.period) == 0:
            raise ValueError("period must have positive sum")
        for v, b in self.prefix:
            if v < 0 or (b and v == 0):
                raise ValueError("bad prefix entry")

    def value_at(self, i: int) -> int:
        p = len(self.prefix)
        if i < 1:
            raise IndexError(i)
        if i <= p:
            return self.prefix[i - 1][0]
        return self.period[(i - p - 1) % len(self.period)]

    def barred_at(self, i: int) -> bool:
        return i <= len(self.prefix) and self.prefix[i - 1][1]

    def bars(self) -> tuple[int, ...]:
        return tuple(i for i, (_, b) in enumerate(self.prefix, start=1) if b)

    def first_nonzero(self) -> int:
        for i in count(1):
            if self.value_at(i) != 0:
                return i
        raise ArithmeticError("unreachable, period has positive sum")

    def values_upto(self, m: int) -> tuple[int, ...]:
        return tuple(self.value_at(i) for i in range(1, m + 1))

    def __str__(self) -> str:
        head = " ".join(f"{v}*" if b else str(v) for v, b in self.prefix)
        tail = " ".join(str(v) for v in self.period)
        return f"[{head} | {tail}]" if head else f"[| {tail}]"


def _primitive(period: tuple[int, ...]) -> tuple[int, ...]:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


def inf_seq(
    prefix: tuple[tuple[int, bool], ...], period: tuple[int, ...]
) -> InfSeq:
    """Canonical constructor: primitive period, maximally trimmed prefix."""
    period = _primitive(tuple(period))
    prefix = list(prefix)
    while prefix and prefix[-1] == (period[-1], False):
        prefix.pop()
        period = (period[-1],) + period[:-1]
    return InfSeq(tuple(prefix), period)


def inf_move(s: InfSeq, j: int, *, force: bool = False) -> InfSeq:
    """Reverse move at position j on an infinite board.

    With force=True the bar check is skipped (used to bootstrap recurrent
    elements, where bars are the unknown being computed); the value at j
    must still be nonzero.
    """
    if force:
        if s.value_at(j) == 0:
            raise ValueError(f"cannot force a move on the zero entry {j}")
    elif not s.barred_at(j):
        raise ValueError(f"position {j} of {s} is not barred")

    p, per, n = len(s.prefix), s.period, len(s.period)

    # last position whose cumulative pulled chips stay under the window
    h = j - 1
    acc = 0
    i = j
    while True:
        acc += s.value_at(i)
        if acc >= BAR_WINDOW:
            break
        h = i
        i += 1

    q = max(p - 1, h, j - 1, 0)

    def new_val(i: int) -> int:
        if i < j - 1:
            return s.value_at(i)
        if i == j - 1:
            return s.value_at(j - 1) + s.value_at(j)
        return s.value_at(i + 1)

    new_prefix = []
    for i in range(1, q + 1):
        v = new_val(i)
        barred = v != 0 and (i <= j - 1 or i <= h)
        new_prefix.append((v, barred))
    new_per = per[(q + 1 - p) % n :] + per[: (q + 1 - p) % n]
    return inf_seq(tuple(new_prefix), new_per)


def drop_head(s: InfSeq, k: int) -> InfSeq:
    """The board seen from position k+1 onward, reindexed to start at 1."""
    if k < 0:
        raise ValueError(k)
    p, per, n = len(s.prefix), s.period, len(s.period)
    if k <= p:
        return inf_seq(s.prefix[k:], per)
    r = (k - p) % n
    return inf_seq((), per[r:] + per[:r])


# --- necklace tails and recurrent boards -------------------------------------

_PAIR_GAP = {("B", "W"): 2, ("W", "B"): 0, ("B", "B"): 1, ("W", "W"): 1}


def tail_from_word(word: str) -> tuple[int, ...]:
    """Difference sequence of a necklace's recurrent boards, one full turn."""
    check_word(word)
    m = len(word)
    return tuple(_PAIR_GAP[(word[i], word[(i + 1) % m])] for i in range(m))


def recurrent_elements(word: str) -> dict[str, InfSeq]:
    """The recurrent infinite boards of a necklace, keyed by rotation.

    The values of each board are forced (the rotation's tail); its bars are
    pinned down by running the move rule around the cycle until it
    reproduces itself.  A reverse move sends the board of rotation r to the
    board of rotate_left(r); the warm-up pass plays the first nonzero
    position with the bar check suspended, the validation pass replays the
    full cycle with real bars and must come back to the start.
    """
    check_word(word)
    rots = distinct_rotations(word)
    s = inf_seq((), tail_from_word(word))
    for _ in rots:
        s = inf_move(s, s.first_nonzero(), force=True)
    start = s
    out: dict[str, InfSeq] = {}
    cur = start
    for t in range(len(rots)):
        rot = rotate_left(word, t)
        out[rot] = cur
        bars = cur.bars()
        if not bars or bars[0] != cur.first_nonzero():
            raise ArithmeticError(f"cycle move of {cur} is not its first bar")
        nxt = inf_move(cur, bars[0])
        if cur.values_upto(len(word)) != tail_from_word(rot):
            raise ArithmeticError(f"values of {cur} drifted off the {rot} tail")
        cur = nxt
    if cur != start:
        raise ArithmeticError(f"cycle of {word} did not close")
    if len(set(out.values())) != len(rots):
        raise ArithmeticError(f"rotations of {word} gave duplicate boards")
    return out
