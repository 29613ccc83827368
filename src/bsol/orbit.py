"""Finite orbits by reverse search from the recurrent cycle.

The whole orbit of a necklace hangs, via reverse moves, off its cycle of
recurrent partitions.  Walking that digraph level by level yields the
level sizes (level_sizes), and from them the level census polynomial,
orbit sizes for the geometric-ratio probe, and the truncated limit series
once the low coefficients stop changing.  Only d_series builds a
polynomial, so it alone loads polyrat: bs orbit and bs dseries print
level_sizes and never load the polynomial layer.

Every census is one walk, _census_py.census_levels; see that module for
why it needs no visited set.  It holds each pile as its birth depth, the
level at which the pile appeared; a reverse move grows every surviving
pile by one, so birth depths never change and a predecessor is two
slices and a pad of newborn piles.  A state is a byte string, one byte a
pile, holding its birth depth plus an offset, the cycle's largest pile,
so no byte is negative; a walk whose births would pass 255 turns its
states into tuples and goes on with them.  States that root binomial
trees B_k (leaves, nearly half of every orbit, are B_0; a state whose
predecessors are B_0 ... B_(k-1), one each, is B_k) and pair trees
(B_0 ... B_(e-2), one each, and one or two B_e under the state) are told
apart before they are built, so the walk only counts them, as plain
ints, and builds about a fourteenth of the states.  A caller that
reads only the first levels bounds the walk's depth.  Nothing here stores an orbit's states:
the lemma 2.16 check counts its paths with partitions.predecessors,
apart from the walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from . import OrbitCapped, _census_py
from .necklaces import cycle_partitions, primitive_word
from .partitions import predecessors

if TYPE_CHECKING:
    from .polyrat import IntPoly

DEFAULT_MAX_STATES = 10**7
DEFAULT_MAX_POWER = 8


_KERNEL = _census_py  # the counting kernel, called through this name so a tracer can wrap it


def kernel_name() -> str:
    """The census kernel's name, reported by bs orbit: always "py"."""
    return "py"


def _budget(max_states: int | None) -> int:
    # the one check on a state budget: None means the default
    if max_states is None:
        return DEFAULT_MAX_STATES
    if max_states <= 0:
        raise ValueError(f"max_states must be positive, got {max_states}")
    return max_states


def _orbit_args(word: str, power: int, max_states: int | None) -> tuple[str, int]:
    word = primitive_word(word)
    if power < 1:
        raise ValueError("power must be positive")
    return word, _budget(max_states)


def _level_sizes(
    word: str, power: int, max_states: int, max_depth: int | None = None
) -> list[int]:
    sizes, capped = _KERNEL.census_levels(cycle_partitions(word * power), max_states, max_depth)
    if capped:
        raise OrbitCapped(word, power, max_states, sizes)
    return sizes


def level_sizes(word: str, power: int = 1, max_states: int | None = None) -> list[int]:
    """States at each level of the orbit of word^power, the cycle (level 0) first.

    Every level up to the orbit's depth is nonempty, so the list is as
    long as the depth plus one.  Raises OrbitCapped past max_states states.
    """
    word, max_states = _orbit_args(word, power, max_states)
    return _level_sizes(word, power, max_states)


def d_series(word: str, power: int = 1, max_states: int | None = None) -> IntPoly:
    """Level census polynomial: coefficient of x^i counts level-i states."""
    from .polyrat import IntPoly

    return IntPoly({i: c for i, c in enumerate(level_sizes(word, power, max_states)) if c})


def orbit_size(word: str, power: int = 1, max_states: int | None = None) -> int:
    return sum(level_sizes(word, power, max_states))


class StabilizedSeries(NamedTuple):
    """Truncated limit series with the power that pinned it down.

    coeffs are the low level-census counts once two consecutive powers
    agree on all of them; power_used is the first power of the agreeing
    pair.  stabilized=False flags a cap (reason "power-cap" or
    "state-cap") and then coeffs hold the last complete census instead.
    """

    coeffs: tuple[int, ...]
    power_used: int
    stabilized: bool
    reason: str | None = None


def stabilized_h_series(
    word: str,
    m: int,
    max_power: int = DEFAULT_MAX_POWER,
    max_states: int | None = None,
) -> StabilizedSeries:
    """First m+1 limit-series coefficients by consecutive-power agreement.

    Censuses word^power for power = 1, 2, ... and stops when two in a row
    agree on coefficients 0..m.  A census is only comparable once it is
    deeper than m: a shallow orbit pads the window with zeros that the
    limit never contains, so those powers are skipped.  Each census stops
    after level m + 1, the first level past the window, so the state
    budget only limits the states at levels 0..m+1.  There is no
    a-priori bound for how deep the agreement has to go; the power cap is
    policy, not mathematics, and a capped result says so rather than
    guessing.
    """
    word = primitive_word(word)
    if m < 0:
        raise ValueError("coefficient count must be nonnegative")
    if max_power < 1:
        raise ValueError("max_power must be positive")
    max_states = _budget(max_states)
    prev: tuple[int, ...] | None = None
    prev_power = 0
    for power in range(1, max_power + 1):
        try:
            sizes = _level_sizes(word, power, max_states, m + 1)
        except OrbitCapped:
            if prev is None:
                raise
            return StabilizedSeries(prev, prev_power, False, "state-cap")
        if len(sizes) <= m + 1:
            continue
        window = tuple(sizes[: m + 1])
        if window == prev:
            return StabilizedSeries(window, prev_power, True)
        prev = window
        prev_power = power
    if prev is None:
        return StabilizedSeries((), max_power, False, "power-cap")
    return StabilizedSeries(prev, prev_power, False, "power-cap")


def c_ratio_probe(
    word: str,
    max_power: int,
    max_states: int | None = None,
) -> dict:
    """Orbit sizes of word^k for k = 1..max_power and their common ratio.

    The ratio is reported only when the sizes form an exact geometric
    progression with an integer ratio, and is evidence, not a theorem.
    Powers abandoned at the state budget are listed under "skipped".
    """
    word = primitive_word(word)
    if len(word) < 3:
        raise ValueError("the ratio probe needs a necklace of length at least 3")
    if max_power < 1:
        raise ValueError("max_power must be positive")
    sizes: list[int] = []
    skipped: list[int] = []
    for power in range(1, max_power + 1):
        try:
            sizes.append(orbit_size(word, power, max_states))
        except OrbitCapped:
            skipped = list(range(power, max_power + 1))
            break
    ratio: int | None = None
    if len(sizes) >= 2 and sizes[0] > 0 and sizes[1] % sizes[0] == 0:
        q = sizes[1] // sizes[0]
        if all(sizes[i + 1] == sizes[i] * q for i in range(len(sizes) - 1)):
            ratio = q
    return {"sizes": sizes, "ratio": ratio, "skipped": skipped}


def forest_identity_check(
    word: str,
    power: int = 1,
    m: int = 4,
    max_states: int | None = None,
) -> bool:
    """Count cycle-rooted directed paths by length against level sums.

    For each j <= m the number of directed reverse-move paths of length j
    starting on the cycle must equal the number of states at level <= j.
    The paths are counted by endpoint, extended one reverse move at a
    time with partitions.predecessors, so only states at levels 0..m are
    ever held; the level sums come from the census walk to level m, which
    shares no code with predecessors.
    """
    word, max_states = _orbit_args(word, power, max_states)
    if m < 0:
        raise ValueError("coefficient count must be nonnegative")
    sizes = _level_sizes(word, power, max_states, m)
    paths = dict.fromkeys(cycle_partitions(word * power), 1)
    for j in range(m + 1):
        if j:
            longer: dict[tuple[int, ...], int] = {}
            for state, count in paths.items():
                for p in predecessors(state):
                    longer[p] = longer.get(p, 0) + count
            paths = longer
        if sum(paths.values()) != sum(sizes[: j + 1]):
            return False
    return True
