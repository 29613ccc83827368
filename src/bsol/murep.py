"""Gap coordinates for the reverse game, on finite boards and in the limit.

A partition turns into its sequence of consecutive differences plus a set
of bars marking where a reverse move may act.  Written in these
coordinates the reverse move becomes local: merge two entries, shift the
rest left, drop one chip marker at a finite depth, and re-derive bars from
a bounded window.  That locality is what lets the same rule run on
infinite, eventually periodic sequences, where the board itself has no
partition anymore.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .necklaces import check_word, distinct_rotations, rotate_left

# a reverse move can re-expose a bar only while the chips pulled so far
# stay under this many rows
BAR_WINDOW = 3


# --- finite boards -----------------------------------------------------------


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


def inf_moves(s: InfSeq) -> list[tuple[int, InfSeq]]:
    """(position, result) for every barred position."""
    return [(j, inf_move(s, j)) for j in s.bars()]


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


def recurrent_element(word: str) -> InfSeq:
    return recurrent_elements(word)[word]
