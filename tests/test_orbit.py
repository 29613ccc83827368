import contextlib
import functools
import itertools
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bsol
from bsol import _census_py, fuse, orbit
from bsol.golden import size_rows
from bsol.necklaces import cycle_partitions, is_primitive, necklace_representatives
from bsol.orbit import (
    OrbitCapped,
    StabilizedSeries,
    c_ratio_probe,
    d_series,
    forest_identity_check,
    kernel_name,
    level_sizes,
    orbit_size,
    stabilized_h_series,
)
from bsol.partitions import forward_move, predecessors
from bsol.polyrat import ONE, IntPoly, series_coeffs
from oracles import (
    all_partitions,
    binomial_order,
    cached_predecessors,
    h_series_forms,
    level_counts,
    parse_poly,
    run_levels,
    run_shape,
    shape_levels,
    shaped_levels,
    weight,
)


class TestDSeries:
    def test_smallest_orbits(self):
        # a budget above each orbit (1, 2 and 5 states): a walk that loops
        # on W's one-state cycle caps at once instead of walking 10^7 levels
        assert d_series("W", max_states=10) == ONE
        assert d_series("BW", max_states=10) == IntPoly({0: 2})
        assert d_series("BWW", max_states=10) == parse_poly("x^2 + x + 3")

    def test_second_power(self):
        assert d_series("BWW", 2, max_states=100) == parse_poly(
            "x^8 + 2x^7 + 3x^6 + 5x^5 + 5x^4 + 3x^3 + 2x^2 + x + 3"
        )

    @pytest.mark.parametrize("word,power", [("BWW", 1), ("BBW", 2), ("BWWW", 2), ("BBWW", 1)])
    def test_total_is_orbit_size(self, word, power):
        # orbits of at most 225 states
        got = d_series(word, power, max_states=1000)
        assert sum(got.coeffs.values()) == orbit_size(word, power, max_states=1000)

    @pytest.mark.parametrize(
        "word,sizes",
        [
            ("BWW", [5, 25, 125, 625]),
            ("BBW", [7, 35, 175]),
            ("BWWW", [15, 225]),
            ("BBBW", [30, 450]),
            ("BBWW", [15, 150]),
        ],
    )
    def test_size_formulas(self, word, sizes):
        for k, expected in enumerate(sizes, start=1):
            assert orbit_size(word, k, max_states=2 * expected) == expected

    def test_rejects_nonprimitive(self):
        with pytest.raises(ValueError):
            d_series("BWBW")

    def test_rejects_power_zero(self):
        with pytest.raises(ValueError):
            d_series("BWW", 0)

    def test_cap_raises(self):
        with pytest.raises(OrbitCapped) as e:
            d_series("BWW", 3, max_states=10)
        assert e.value.word == "BWW"
        assert e.value.power == 3
        assert e.value.max_states == 10


# each case with a budget above its orbit: a census that re-adds its cycle caps at once
LEVEL_BUDGET = {
    ("BWW", 1): 10,
    ("BWW", 2): 50,
    ("BWW", 3): 250,
    ("BBWW", 2): 300,
    ("BBBBBW", 2): 200_000,
}
LEVEL_CASES = list(LEVEL_BUDGET)


@functools.cache
def full_levels(word, power):
    return level_sizes(word, power, LEVEL_BUDGET[word, power])


class TestLevelSizes:
    @pytest.mark.parametrize("word,power", LEVEL_CASES)
    def test_matches_d_series_and_orbit_size(self, word, power):
        sizes = full_levels(word, power)
        series = d_series(word, power, LEVEL_BUDGET[word, power])
        assert sizes == [series.coeff(e) for e in range(series.degree + 1)]
        assert all(sizes)  # every level is nonempty, so len - 1 is the depth
        assert sum(sizes) == orbit_size(word, power, LEVEL_BUDGET[word, power])

    @pytest.mark.parametrize("word,power", LEVEL_CASES)
    def test_rejects_what_d_series_rejects(self, word, power):
        for kwargs in ({"power": 0}, {"power": power, "max_states": 0}):
            with pytest.raises(ValueError) as want:
                d_series(word, **kwargs)
            with pytest.raises(ValueError) as got:
                level_sizes(word, **kwargs)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("word,power", LEVEL_CASES)
    def test_capped_sizes_match_d_series(self, word, power):
        full = full_levels(word, power)
        budget = sum(full) // 2
        with pytest.raises(OrbitCapped) as want:
            d_series(word, power, budget)
        with pytest.raises(OrbitCapped) as got:
            level_sizes(word, power, budget)
        assert got.value.sizes == want.value.sizes
        assert got.value.sizes == full[: len(got.value.sizes)]
        assert (got.value.word, got.value.power, got.value.max_states) == (word, power, budget)

    def test_one_capped_class(self):
        # bs maps the package's OrbitCapped to a report; orbit must raise that class
        assert orbit.OrbitCapped is bsol.OrbitCapped


def offset(seeds):
    """The walk's offset: the largest pile of its cycle, added to every stored birth."""
    return max([v for s in seeds for v in s], default=0)


def walked(seeds, budget):
    """The census walk's steps, checked level by level against oracles.shaped_levels.

    Each step's states to expand, decoded with _flip, must be the oracle's
    as a sorted list, and its size the oracle level's.  Each step reports
    the states it met and counted there by shape, B_k as (k, ()), which
    decoded must be the oracle's roots by shape, and the level
    counts the walk owes for each shape must be the oracle's, found by a
    predecessors search.  The states below a counted one are checked
    through the level sizes.  The oracle counts runs with as many births
    past the room as the walk, _census_py._PAST.  Returns (levels,
    capped): the oracle's split of each level the walk completed.
    """
    off = offset(seeds)
    oracle = shaped_levels(seeds, _census_py._PAST)
    levels = []
    for depth, step in enumerate(_census_py._birth_levels(seeds, budget)):
        if step is None:
            return levels, True
        size, level, met = step
        split = next(oracle)
        assert sorted(_census_py._flip(level, off, depth)) == sorted(split.expand)
        assert size == len(split.states()) and None not in split.counted
        roots = Counter()  # by the oracle's shape, which lists runs sorted
        for shape, n in met.items():
            assert n > 0 and _census_py._shape_levels(*shape) == list(shape_levels(decoded(shape)))
            roots[decoded(shape)] += n
        assert roots == {shape: len(part) for shape, part in split.roots.items()}
        levels.append(split)
    assert next(oracle, None) is None  # the walk ends where the orbit does
    return levels, False


def decoded(shape):
    """A shape of the walk, (a, run codes), as the oracle writes it: (a, sorted (gaps, past))."""
    a, codes = shape
    runs = [(gaps, len(gaps) + 1 - undo) for gaps, undo in map(_census_py._run, codes)]
    return a, tuple(sorted(runs))


def met_counts(levels):
    """The states the walk meets and counts over levels, by the oracle's shape."""
    counts = Counter()
    for split in levels:
        counts.update({shape: len(part) for shape, part in split.roots.items()})
    return counts


def walk_met(steps):
    """The states the walk's steps met and counted, by the oracle's shape."""
    counts = Counter()
    for _, _, met in steps:
        for shape, n in met.items():
            counts[decoded(shape)] += n
    return counts


def is_stub(state):
    """Whether state's one predecessor is a leaf, a state with no predecessor."""
    preds = cached_predecessors(state)
    return len(preds) == 1 and not cached_predecessors(preds[0])


def is_fork(state):
    """Whether state's two predecessors are a leaf and a stub."""
    preds = cached_predecessors(state)
    leaf = any(not cached_predecessors(p) for p in preds)
    return len(preds) == 2 and leaf and any(map(is_stub, preds))


def recurrent(state):
    """Whether the forward move brings state back to itself."""
    seen, s = set(), forward_move(state)
    while s != state and s not in seen:
        seen.add(s)
        s = forward_move(s)
    return s == state


def depths(levels):
    """Each state of levels with its level."""
    return {s: depth for depth, split in enumerate(levels) for s in split.states()}


class TestBuildOrbit:
    """The orbit as the census walk builds and counts it, against a predecessors search."""

    @pytest.mark.parametrize("word,power", [("BWW", 1), ("BWW", 2), ("BBW", 1), ("BBWW", 1)])
    def test_census_matches_kernel(self, word, power):
        levels, capped = walked(cycle_partitions(word * power), 10**6)
        assert not capped
        sizes = [len(split.states()) for split in levels]
        assert IntPoly(dict(enumerate(sizes))) == d_series(word, power)
        assert sum(sizes) == orbit_size(word, power)

    def test_roots_are_the_cycle(self):
        levels, _ = walked(cycle_partitions("BWW"), 10**6)
        assert sorted(levels[0].expand) == sorted(set(cycle_partitions("BWW")))
        assert levels[0].counted == {}

    def test_depth_is_max_level(self):
        levels, _ = walked(cycle_partitions("BBW"), 10**6)
        assert max(depths(levels).values()) == d_series("BBW").degree

    @pytest.mark.parametrize("word", ["BWW", "BBW", "BBWW"])
    def test_forward_move_descends_one_level(self, word):
        levels, _ = walked(cycle_partitions(word), 10**6)
        at = depths(levels)
        for state, lvl in at.items():
            assert at[forward_move(state)] == max(lvl - 1, 0)
        # the walk expands only what it built: a built state's image was built
        for split, above in zip(levels[1:], levels):
            assert {forward_move(s) for s in split.expand} <= set(above.expand)

    @given(parts=st.lists(st.integers(1, 10), min_size=1, max_size=5))
    @example(parts=[3, 3])  # its first pile's predecessor is a stub
    @example(parts=[6, 3, 2])  # its third pile's predecessor is a fork
    @settings(max_examples=60, deadline=None)
    def test_walk_from_any_state_off_the_cycles(self, parts):
        # a state off every cycle with a predecessor hangs a tree of them as
        # well, and its first piles can lie more than two apart, as no cycle
        # state's do: no predecessor of it is on a cycle, so the walk counts
        # from level 1 on by the one rule it uses at every level
        state = tuple(sorted(parts, reverse=True))
        assume(predecessors(state) and not recurrent(state))
        walked([state], 2000)

    def test_all_states_share_the_weight(self):
        n = weight("BWWW" * 2)
        levels, _ = walked(cycle_partitions("BWWW" * 2), 10**6)
        assert all(sum(s) == n for s in depths(levels))


# every primitive necklace of size <= 5 at each small power whose board
# has at most 30 chips, so a census over all partitions stays cheap
DIFFERENTIAL_CASES = [
    (word, power)
    for size in range(1, 6)
    for word in necklace_representatives(size)
    if is_primitive(word)
    for power in range(1, 4)
    if weight(word * power) <= 30
]


@functools.lru_cache(maxsize=None)
def basin_levels(word, power):
    """Each orbit state of word^power with its distance to the cycle.

    Walks every partition of the board forward until it meets the cycle of
    word^power (its level is the number of moves taken) or repeats a state
    on some other cycle.  No reverse move is involved.
    """
    cycle = set(cycle_partitions(word * power))
    levels = {}
    for start in all_partitions(weight(word * power)):
        state, seen, steps = start, set(), 0
        while state not in cycle and state not in seen:
            seen.add(state)
            state = forward_move(state)
            steps += 1
        if state in cycle:
            levels[start] = steps
    return levels


def basin_census(word, power):
    """Level sizes of word^power by the forward move alone."""
    levels = basin_levels(word, power).values()
    counts = [0] * (max(levels) + 1)
    for steps in levels:
        counts[steps] += 1
    return counts


def capped_prefix(sizes, budget):
    """The levels a census reports when it stops at budget.

    It stops while generating the level after the last one reported, the
    first time more than budget states have been counted.
    """
    i = next(i for i in range(len(sizes)) if sum(sizes[: i + 2]) > budget)
    return sizes[: i + 1]


def check_kernel(census_levels, seeds, word, power):
    full = basin_census(word, power)
    total = sum(full)
    assert census_levels(seeds, total) == (full, False)
    for budget in range(1, total):
        assert census_levels(seeds, budget) == (capped_prefix(full, budget), True)
    # bounded to a depth, a census caps only while levels 0..depth pass the budget
    for depth in range(len(full) + 1):
        fits = sum(full[: depth + 1])
        assert census_levels(seeds, fits, depth) == (full[: depth + 1], False)
        if fits > 1:
            assert census_levels(seeds, fits - 1, depth) == (capped_prefix(full, fits - 1), True)


# the walk holds its states as byte strings, as tuples from the start, or as
# byte strings that it turns into tuples when it expands level 2
CONTAINERS = ("bytes", "tuples", "switch")


@contextlib.contextmanager
def holding(container, seeds):
    """Make the walk of seeds hold the container, through its byte limit."""
    with pytest.MonkeyPatch.context() as mp:
        if container != "bytes":
            limit = 0 if container == "tuples" else offset(seeds) + 2
            mp.setattr(_census_py, "_BYTE_MAX", limit)
        yield


def case_id(case):
    return f"{case[0]}-{case[1]}"


class TestKernels:
    def test_a_kernel_is_loaded(self):
        assert kernel_name() == "py"
        assert orbit.DEFAULT_MAX_STATES >= 10**5

    @pytest.mark.parametrize("word,power", DIFFERENTIAL_CASES, ids=map(case_id, DIFFERENTIAL_CASES))
    def test_python_kernel_agrees(self, word, power):
        # the pure walk against the forward-move census, in full, capped at
        # every budget below the orbit size and bounded to each depth, in
        # each container; the states it builds and the shapes it counts
        # must also be the predecessors search's, level by level, and that
        # search must put every state at its forward distance
        seeds = cycle_partitions(word * power)
        for container in CONTAINERS:
            with holding(container, seeds):
                check_kernel(_census_py.census_levels, seeds, word, power)
                levels, capped = walked(seeds, 10**6)
            assert not capped and depths(levels) == basin_levels(word, power)

    @pytest.mark.parametrize("word", ["W", "B", "WW"])
    def test_smallest_cycles_in_every_container(self, word):
        # W's cycle is the empty partition, and B's and W^2's are one pile,
        # so the walk reads past the end of each state there: each cycle
        # is its whole orbit, with no tree counted, in each container
        seeds = cycle_partitions(word)
        box = {"bytes": bytes, "tuples": tuple, "switch": bytes}
        for container in CONTAINERS:
            with holding(container, seeds):
                assert _census_py.census_levels(seeds, 1) == ([1], False)
                ((size, level, met),) = _census_py._birth_levels(seeds, 1)
            assert size == 1 and not met
            assert type(level[0]) is box[container]

    @pytest.mark.parametrize("m", range(6, 13))
    def test_level_one_is_exact(self, m):
        # past DIFFERENTIAL_CASES' 30 chips: bounded to level 1, a census of
        # every necklace of size m is its cycle and the cycle's predecessors
        # off it, by partitions.predecessors, at a budget of exactly those
        for word in necklace_representatives(m):
            seeds = cycle_partitions(word)
            cycle = set(seeds)
            want = [len(cycle), sum(p not in cycle for s in cycle for p in predecessors(s))]
            assert _census_py.census_levels(seeds, sum(want), 1) == (want, False)

    def test_big_board_honors_the_budget(self):
        # a 277-chip board stops at its budget with its whole cycle counted
        word = "B" + "W" * 23
        assert weight(word) == 277
        with pytest.raises(OrbitCapped) as e:
            d_series(word, max_states=5000)
        assert e.value.sizes[0] == len(set(cycle_partitions(word)))


class TestBirthDepths:
    """The walk holds each pile as the level it was born at; pin that encoding."""

    @given(word=st.text(alphabet="BW", min_size=1, max_size=6), power=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_each_level_is_the_predecessors_of_the_last(self, word, power):
        seeds = cycle_partitions(word * power)
        cycle = set(seeds)
        splits, capped = walked(seeds, 2000)
        levels = [split.states() for split in splits]
        if not capped:
            levels.append([])  # the walk ends where no state has a predecessor
        assert sorted(levels[0]) == sorted(cycle)
        for depth, (level, nxt) in enumerate(zip(levels, levels[1:])):
            preds = [p for s in level for p in cached_predecessors(s) if depth or p not in cycle]
            assert sorted(nxt) == sorted(preds)
        # and each state the walk builds is a predecessor of one it built
        for depth, (split, below) in enumerate(zip(splits, splits[1:])):
            preds = {p for s in split.expand for p in cached_predecessors(s) if depth or p not in cycle}
            assert set(below.expand) <= preds

    @given(
        parts=st.lists(st.integers(1, 30), max_size=12),
        off=st.integers(30, 60),
        depth=st.integers(0, 40),
    )
    def test_encoding_round_trips(self, parts, off, depth):
        # a pile of value v at level depth is stored as its birth depth,
        # depth + 1 - v, plus the offset, which is at least the largest
        # cycle pile, so no stored birth is negative
        state = tuple(sorted(parts, reverse=True))
        (births,) = _census_py._flip([state], off, depth, bytes)
        assert births == bytes([off + depth + 1 - v for v in state])
        assert list(births) == sorted(births)
        assert _census_py._flip([births], off, depth) == [state]

    @pytest.mark.parametrize("word,power", [("W", 3), ("BWW", 2), ("BBBWBWWW", 2)])
    def test_cycle_is_offset_by_its_largest_pile(self, word, power):
        seeds = cycle_partitions(word * power)
        _, level, *_ = next(_census_py._birth_levels(seeds, 10))
        assert level == _census_py._flip(seeds, offset(seeds), 0, bytes)

    def test_switch_to_tuples(self):
        # the live level turns into tuples once a newborn's stored birth
        # would pass the byte limit; the levels before it stay byte strings
        seeds = cycle_partitions("BWW" * 3)
        want = {"bytes": [bytes] * 3, "tuples": [tuple] * 3, "switch": [bytes, bytes, tuple]}
        for container, boxes in want.items():
            with holding(container, seeds):
                steps = list(_census_py._birth_levels(seeds, 10**6))
                walked(seeds, 10**6)  # and each container builds and counts the same
            expanded = [{type(s) for s in step[1]} for step in steps[1:4]]
            assert expanded == [{box} for box in boxes]

    @pytest.mark.parametrize("m,boxes", [(253, [bytes, bytes, bytes, tuple]), (256, [tuple] * 4)])
    def test_piles_past_a_byte(self, m, boxes):
        # the largest cycle pile of B W^(m-1) is m: at 253 the walk turns to
        # tuples when it expands level 2, at 256 it starts on them
        seeds = cycle_partitions("B" + "W" * (m - 1))
        assert offset(seeds) == m
        steps = list(_census_py._birth_levels(seeds, 5000))
        assert [type(step[1][0]) for step in steps[:4]] == boxes
        assert _census_py.census_levels(seeds, 5000) == predecessor_census(seeds, 5000)


def predecessor_census(seeds, budget):
    """census_levels' result from a plain search with partitions.predecessors.

    Level by level over value partitions, with the same cap rule; it shares
    no code with the birth-depth walk and knows nothing of leaves.
    """
    cycle = set(seeds)
    level = list(dict.fromkeys(seeds))
    sizes, total = [], len(level)
    while level:
        sizes.append(len(level))
        nxt = []
        for state in level:
            nxt.extend(p for p in predecessors(state) if p not in cycle)
            if total + len(nxt) > budget:
                return sizes, True
        total += len(nxt)
        level = nxt
    return sizes, False


class TestLeafCounting:
    """census_levels counts leaves without building them; a plain search builds all."""

    @given(
        word=st.text(alphabet="BW", min_size=1, max_size=7),
        power=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_counts_match_the_built_levels(self, word, power, data):
        seeds = cycle_partitions(word * power)
        full, capped = predecessor_census(seeds, 5000)
        top = 5000 if capped else sum(full)
        budget = data.draw(st.integers(1, top), label="budget")
        got = _census_py.census_levels(seeds, budget)
        assert got == predecessor_census(seeds, budget)
        if not capped:
            assert got == ((full, False) if budget == top else (capped_prefix(full, budget), True))

    @pytest.mark.parametrize("word,power", [("BWW", 6), ("BWBWB", 3), ("BBBBBBBW", 1)])
    def test_growth_rows_at_every_97th_budget(self, word, power):
        seeds = cycle_partitions(word * power)
        full, capped = predecessor_census(seeds, 20_000)
        row = next(row for row in size_rows() if row.necklace == word)
        assert not capped and sum(full) == row.count_at(power)
        assert _census_py.census_levels(seeds, sum(full)) == (full, False)
        for budget in range(1, sum(full), 97):
            assert _census_py.census_levels(seeds, budget) == (capped_prefix(full, budget), True)


class TestDepthBound:
    """census_levels to a depth: the first levels of the full census."""

    @given(
        word=st.text(alphabet="BW", min_size=1, max_size=7),
        power=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_levels_up_to_the_bound(self, word, power, data):
        seeds = cycle_partitions(word * power)
        full, capped = predecessor_census(seeds, 5000)
        if capped:
            return
        depth = data.draw(st.integers(0, len(full)), label="depth")
        budget = data.draw(st.integers(1, sum(full)), label="budget")
        if sum(full[: depth + 1]) > budget:
            want = (capped_prefix(full, budget), True)
        else:
            want = (full[: depth + 1], False)
        for container in CONTAINERS:
            with holding(container, seeds):
                assert _census_py.census_levels(seeds, budget, depth) == want

    def test_stops_after_the_bound(self):
        # no level past the bound is generated, so none is counted
        seeds = cycle_partitions("BWW" * 4)
        want = predecessor_census(seeds, 10**6)[0][:4]
        for container in CONTAINERS:
            with holding(container, seeds):
                steps = list(_census_py._birth_levels(seeds, 10**6, 3))
            assert [step[0] for step in steps] == want


class TestBinomialCounting:
    """census_levels counts the states that root binomial trees B_k, of every order k."""

    @given(
        word=st.text(alphabet="BW", min_size=1, max_size=7),
        power=st.integers(1, 3),
        container=st.sampled_from(CONTAINERS),
    )
    @settings(max_examples=80, deadline=None)
    def test_each_counted_state_roots_a_binomial_tree(self, word, power, container):
        # walked checks that each level's count of order k is as many as
        # the states the walk meets there whose births to undo are k single
        # births, roots of B_k, and that from level 1 on it builds none
        seeds = cycle_partitions(word * power)
        with holding(container, seeds):
            walked(seeds, 5000)

    def test_orders_three_to_five_in_every_container(self):
        # BWW^4 has states of every order up to 5; a B_5 counted at level
        # 9 puts 5, 10, 10, 5 and 1 of its states on the five levels below
        seeds = cycle_partitions("BWW" * 4)
        for container in CONTAINERS:
            with holding(container, seeds):
                levels, capped = walked(seeds, 10**6)
            assert not capped
            assert [len(levels[9].order(k)) for k in range(7)] == [15, 9, 5, 1, 0, 1, 0]
            assert {a for split in levels for a, runs in split.counted if not runs} == set(range(6))


class TestStubCounting:
    """census_levels counts stubs, B_1, states whose one predecessor is a leaf."""

    @given(word=st.text(alphabet="BW", min_size=1, max_size=7), power=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_each_stub_has_one_predecessor_a_leaf(self, word, power):
        # walked checks each level's count of order 1 against the oracle;
        # here, from level 1 on, the states of order 1 are exactly those
        # whose one predecessor is a leaf, and the walk builds none of them
        levels, _ = walked(cycle_partitions(word * power), 5000)
        for split in levels[1:]:
            stubs = split.order(1)
            assert set(stubs) == {s for s in split.states() if is_stub(s)}
            assert not any(is_stub(s) for s in split.expand)

    def test_stubs_are_counted_ahead(self):
        # BWW's level 1 is one stub, by the oracle: no state is left to
        # expand there, yet its leaf, one level down, must join the cap check
        seeds = cycle_partitions("BWW")
        split = list(shaped_levels(seeds, _census_py._PAST))[1]
        assert split.roots == {(1, ()): split.states()} and not split.expand
        steps = list(_census_py._birth_levels(seeds, 100))
        assert any(met.get((1, ())) and not level for _, level, met in steps)
        full = basin_census("BWW", 1)
        for budget in range(1, sum(full) + 1):
            want = (full, False) if budget == sum(full) else (capped_prefix(full, budget), True)
            assert _census_py.census_levels(seeds, budget) == want

    def test_stub_at_level_one(self):
        # BWW's one level-1 state has one predecessor, a leaf, by a
        # predecessors search: the walk counts it where it meets it, as a
        # stub at any level, and builds no state past the cycle
        seeds = cycle_partitions("BWW")
        (stub,) = [p for s in seeds for p in cached_predecessors(s) if p not in seeds]
        assert is_stub(stub) and run_shape(stub) == (1, ())
        steps = list(_census_py._birth_levels(seeds, 100))
        assert [size for size, *_ in steps] == [3, 1, 1]
        assert steps[1][2] == {(1, ()): 1} and not any(level for _, level, _ in steps[1:])


class TestForkCounting:
    """census_levels counts forks, B_2, states whose two predecessors are a leaf and a stub."""

    @given(word=st.text(alphabet="BW", min_size=1, max_size=7), power=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_each_fork_has_a_leaf_and_a_stub(self, word, power):
        # walked checks each level's count of order 2 against the oracle;
        # here, from level 1 on, the states of order 2 are exactly those
        # whose two predecessors are a leaf and a stub, and the walk builds
        # none of them
        levels, _ = walked(cycle_partitions(word * power), 5000)
        for split in levels[1:]:
            forks = split.order(2)
            assert set(forks) == {s for s in split.states() if is_fork(s)}
            assert not any(is_fork(s) for s in split.expand)

    @pytest.mark.parametrize("word,depth", [("BWWW", 3), ("BBWW", 4)])
    def test_forks_are_counted_ahead(self, word, depth):
        # a fork at level depth - 1 puts its leaf and stub at depth, where
        # no state is left to expand, and the stub's leaf one level further
        # down: at every budget each must join the cap check at its level
        seeds = cycle_partitions(word)
        steps = list(_census_py._birth_levels(seeds, 100))
        assert steps[depth - 1][2].get((2, ())) and not steps[depth][1]
        full = basin_census(word, 1)
        for budget in range(1, sum(full) + 1):
            want = (full, False) if budget == sum(full) else (capped_prefix(full, budget), True)
            assert _census_py.census_levels(seeds, budget) == want

    def test_built_states_are_pinned(self):
        # BWW^4 (625 states): the predecessors search of oracles.shaped_levels
        # leaves 36 states to build, 311, 147, 58, 21, 11 and 2 states of
        # binomial shape B_0 to B_5, and 39 below runs of two births or
        # more, which the walk meets at the 9 states below; the walk builds
        # and meets exactly these, and a rule turned off builds more
        seeds = cycle_partitions("BWW" * 4)
        pinned = [36, 311, 147, 58, 21, 11, 2, 0]
        runs = {
            (1, (((0, 2, 1, 0), 3),)): 1,
            (2, (((0, 2, 1, 0), 3),)): 2,
            (2, (((0, 2, 1, 0, 2), 4),)): 1,
            (2, (((0, 2, 2, 1, 0), 4),)): 1,
            (3, (((0, 2, 2), 2),)): 1,
            (3, (((1, 0, 2), 3),)): 1,
            (3, (((2, 1, 0), 3),)): 1,
            (4, (((2,), 1),)): 1,
        }
        levels = list(shaped_levels(seeds, _census_py._PAST))
        built = sum(len(split.expand) for split in levels)
        assert [built, *(sum(len(split.order(k)) for split in levels) for k in range(7))] == pinned
        assert {k: n for k, n in met_counts(levels).items() if k[1]} == runs
        steps = list(_census_py._birth_levels(seeds, 10**6))
        met = {k: n for k, n in walk_met(steps).items() if k[1]}
        assert sum(len(step[1]) for step in steps) == pinned[0] and met == runs
        assert sum(len(split.states()) for split in levels) == 625

    def test_fork_at_level_one(self):
        # BBW's one level-1 state has two predecessors, a leaf and a stub,
        # by a predecessors search: the walk counts it where it meets it,
        # as a fork at any level, and builds no state past the cycle
        seeds = cycle_partitions("BBW")
        (fork,) = [p for s in seeds for p in cached_predecessors(s) if p not in seeds]
        assert is_fork(fork) and run_shape(fork) == (2, ())
        steps = list(_census_py._birth_levels(seeds, 100))
        assert [size for size, *_ in steps] == [3, 1, 2, 1]
        assert steps[1][2] == {(2, ()): 1} and not any(level for _, level, _ in steps[1:])


class TestPairCounting:
    """census_levels counts the states whose births to undo fall into runs, by their product."""

    @given(
        word=st.text(alphabet="BW", min_size=1, max_size=7),
        power=st.integers(1, 3),
        container=st.sampled_from(CONTAINERS),
    )
    @example(word="BWBWBWW", power=1, container="switch")  # runs of 3 and 4 births, a 4-fuse
    @example(word="BWW", power=3, container="bytes")  # runs with 1 to 3 births past the room
    @settings(max_examples=80, deadline=None)
    def test_each_counted_state_has_its_product_levels(self, word, power, container):
        # walked checks each level's counted states by shape against the
        # oracle; here, from level 1 on, the level counts under each of
        # them, found by a plain search, are its shape's product, and by a
        # search the walk builds no state that roots a binomial tree but
        # the three piles (u, v, 2): undoing its pile of 2 adds no pile, but
        # it chains to the empty piles, so the walk builds it, a B_3
        seeds = cycle_partitions(word * power)
        with holding(container, seeds):
            levels, _ = walked(seeds, 5000)
        for split in levels[1:]:
            for shape, part in split.roots.items():
                for state in part:
                    assert level_counts(state) == shape_levels(shape)
            for state in split.expand:
                k = binomial_order(state)
                assert k is None or (len(state), state[-1], k) == (3, 2, 3), state

    def test_ends_one_to_three_in_every_container(self):
        # BBWBWWW (189 states) has states with one run of two births after
        # a B_0, a B_1 and a B_2: equal births, whose factor is 1 + x + x^2,
        # and births 1 apart, u_2, by the oracle
        seeds = cycle_partitions("BBWBWWW")
        want = {
            (0, (((0,), 0),)): 4,
            (0, (((1,), 0),)): 1,
            (1, (((0,), 0),)): 5,
            (1, (((1,), 0),)): 4,
            (1, (((2,), 0),)): 1,
            (2, (((0,), 0),)): 1,
            (2, (((1,), 0),)): 1,
        }
        for container in CONTAINERS:
            with holding(container, seeds):
                levels, capped = walked(seeds, 10**6)
            assert not capped
            assert {k: n for k, n in counted_shapes(levels).items() if pairs_only(k, 1)} == want

    def test_two_and_three_pairs_in_every_container(self):
        # BBWW^3 (1,500 states): 30 of the states the walk does not build
        # have two or three runs of two births, some with their second
        # birth past the room, by the oracle, and it builds 75 states;
        # walked checks the walk's shapes against the oracle's level by level
        seeds = cycle_partitions("BBWW" * 3)
        want = {
            (0, (((0,), 0), ((0,), 0))): 4,
            (0, (((0,), 0), ((0,), 0), ((0,), 0))): 1,
            (0, (((0,), 0), ((0,), 0), ((1,), 0))): 1,
            (0, (((0,), 0), ((1,), 0))): 1,
            (1, (((0,), 0), ((0,), 0))): 9,
            (1, (((0,), 0), ((0,), 0), ((1,), 1))): 1,
            (1, (((0,), 0), ((1,), 0))): 4,
            (1, (((0,), 0), ((1,), 1))): 1,
            (1, (((0,), 0), ((2,), 1))): 1,
            (2, (((0,), 0), ((0,), 0))): 2,
            (2, (((0,), 0), ((1,), 1))): 4,
            (2, (((0,), 0), ((2,), 1))): 2,
        }
        for container in CONTAINERS:
            with holding(container, seeds):
                levels, capped = walked(seeds, 10**6)
            assert not capped
            shapes = counted_shapes(levels)
            assert {k: n for k, n in shapes.items() if len(k[1]) > 1 and pairs_only(k, 3)} == want
            assert sum(len(split.expand) for split in levels) == 75


def counted_shapes(levels):
    """The states the walk does not build over levels, by the oracle's shape."""
    counts = Counter()
    for split in levels:
        counts.update({shape: len(part) for shape, part in split.counted.items()})
    return counts


def pairs_only(shape, most):
    """Whether shape has 1 to most runs, each of two births."""
    return 0 < len(shape[1]) <= most and all(len(gaps) == 1 for gaps, _ in shape[1])


def with_long_runs(counts):
    """The counts of the shapes with a run of three births or more."""
    return {k: n for k, n in counts.items() if any(len(gaps) > 1 for gaps, _ in k[1])}


@contextlib.contextmanager
def past_the_room(bound):
    """Make the walk count runs with up to bound births past the room."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_census_py, "_PAST", bound)
        yield


class TestRunCounting:
    """The runs the walk counts: fuses by u_k, others by their own factors, at any bound."""

    def test_three_and_four_runs_in_every_container(self):
        # BWBWBWW (148 states): the walk meets a 4-fuse, whose factor is
        # u_4, a run of three births with none past the room, runs of four
        # and five births with two past it, and a run of six births with
        # four, by the oracle; it builds 14 states, in bytes, in tuples and
        # across the switch between them
        seeds = cycle_partitions("BWBWBWW")
        want = {
            (0, (((2, 2, 0, 0, 0), 4),)): 1,
            (0, (((2, 2, 1, 0), 2),)): 1,
            (0, (((2, 2, 2), 0),)): 1,
            (1, (((0, 2, 0), 2),)): 1,
            (1, (((2, 0), 0),)): 1,
        }
        assert shape_levels((0, (((2, 2, 2), 0),))) == (1, 4, 9, 12, 8)
        for container in CONTAINERS:
            with holding(container, seeds):
                levels, capped = walked(seeds, 10**6)
                steps = list(_census_py._birth_levels(seeds, 10**6))
            assert not capped
            assert with_long_runs(met_counts(levels)) == want
            assert with_long_runs(walk_met(steps)) == want
            assert sum(len(step[1]) for step in steps) == 14

    @pytest.mark.parametrize("k", range(2, 13))
    def test_fuse_runs_count_by_u_k(self, k):
        # every run of k births, all to undo, whose gaps are 1s and 2s with
        # no two 1s adjacent is a k-fuse: the walk's factor for it is u_k
        want = tuple(fuse.u_poly(k).coeff(i) for i in range(k + 1))
        fuses = [g for g in itertools.product((1, 2), repeat=k - 1) if (1, 1) not in zip(g, g[1:])]
        for gaps in fuses:
            assert _census_py.run_levels(gaps, k) == want
        # and the gaps (1, 1), two adjacent 1s, are no fuse
        if k == 3:
            assert _census_py.run_levels((1, 1), 3) == (1, 3, 6, 6) != want

    def test_run_factors_match_the_oracle(self):
        # every run of 2 to 6 births, with any gaps of 0, 1 or 2 and any
        # births past the room: the walk's factor by its recursion is the
        # oracle's, by a predecessors search on a partition that holds it
        runs = 0
        for m in range(2, 7):
            for gaps in itertools.product((0, 1, 2), repeat=m - 1):
                for r in range(1, m + 1):
                    if r == m or gaps[r - 1]:  # equal births are both to undo or neither
                        assert _census_py.run_levels(gaps, r) == run_levels((gaps, m - r))
                        runs += 1
        assert runs == 1457

    @pytest.mark.parametrize("bound", [0, 1, 2, 4, 9])
    def test_every_bound_on_births_past_the_room(self, bound):
        # the walk at any bound builds and counts as the oracle does at it,
        # and its census is a plain search's
        for word, power in [("BWW", 4), ("BBWW", 3), ("BWBWBWW", 1), ("BBBBW", 1)]:
            seeds = cycle_partitions(word * power)
            with past_the_room(bound):
                _, capped = walked(seeds, 10**6)
                assert _census_py.census_levels(seeds, 10**6) == predecessor_census(seeds, 10**6)
            assert not capped

    @pytest.mark.parametrize("bits", [1, 3])
    def test_narrow_packing_widens(self, bits):
        # the walk sums the counts it owes packed, _BITS bits to a level,
        # and widens them until no level's sum can pass them: from 1 or 3
        # bits it must widen, and count as it does from 64
        for word, power in [("BWW", 4), ("BBWBWWW", 1), ("BBBBBW", 2)]:
            seeds = cycle_partitions(word * power)
            want = _census_py.census_levels(seeds, 10**6)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_census_py, "_BITS", bits)
                assert _census_py.census_levels(seeds, 10**6) == want

    def test_each_birth_past_the_room_builds_fewer(self):
        # BWW^4 (625 states) by the oracle: a walk that counts runs with up
        # to 0, 1, ..., 5 births past the room builds these many states
        built = []
        for bound in range(6):
            with past_the_room(bound):
                levels, _ = walked(cycle_partitions("BWW" * 4), 10**6)
            built.append(sum(len(split.expand) for split in levels))
        assert built == [63, 57, 47, 38, 36, 33]


def test_run_shapes_have_their_product_levels():
    # every partition of up to 24 chips off its cycle, with a predecessor,
    # whose runs end more than 2 chips above the next pile: its level counts
    # by a plain search, the whole subtree with no pruning, are its shape's
    # product
    shapes = 0
    for chips in range(1, 25):
        for parts in all_partitions(chips):
            shape = run_shape(parts)
            if shape is not None and not recurrent(parts) and cached_predecessors(parts):
                assert level_counts(parts) == shape_levels(shape)
                shapes += 1
    assert shapes == 3417


class TestStateBudget:
    @pytest.mark.parametrize("budget", [0, -5])
    def test_nonpositive_rejected(self, budget):
        for call in (
            lambda: d_series("BWW", max_states=budget),
            lambda: orbit_size("BWW", max_states=budget),
            lambda: stabilized_h_series("BWW", 4, max_states=budget),
            lambda: c_ratio_probe("BWW", 2, max_states=budget),
            lambda: forest_identity_check("BWW", max_states=budget),
        ):
            with pytest.raises(ValueError, match="max_states must be positive"):
                call()


class TestStabilized:
    def test_three_rotations(self):
        s = stabilized_h_series("BWW", 4)
        assert s.stabilized
        assert s.coeffs == (3, 1, 2, 3, 5)
        assert s.power_used == 2
        assert s.reason is None

    def test_two_pile_needs_depth(self):
        s = stabilized_h_series("BW", 5)
        assert s.stabilized
        assert s.coeffs == (2, 1, 3, 7, 15, 33)
        assert s.power_used == 6

    def test_power_cap_reported(self):
        s = stabilized_h_series("BW", 3, max_power=4)
        assert not s.stabilized
        assert s.reason == "power-cap"

    def test_state_cap_reported(self):
        # BWW^2 has 19 states at levels 0..5, BWW^3 more than 20
        s = stabilized_h_series("BWW", 4, max_states=20)
        assert not s.stabilized
        assert s.reason == "state-cap"
        assert s.coeffs == (3, 1, 2, 3, 5)

    def test_budget_counts_only_the_window(self):
        # each census stops after level m + 1: the whole orbit of BWW^3
        # (125 states) is past a budget of 50, its levels 0..5 are not
        s = stabilized_h_series("BWW", 4, max_states=50)
        assert s == StabilizedSeries((3, 1, 2, 3, 5), 2, True)

    def test_matches_series_references(self):
        # the single-pile family settles slowly: the m=5 window first
        # repeats at powers 11 and 12
        forms = h_series_forms()
        for word, cap in (("W", 12), ("BW", 8)):
            want = tuple(int(c) for c in series_coeffs(forms[word], 5))
            s = stabilized_h_series(word, 5, max_power=cap)
            assert s.stabilized
            assert s.coeffs == want

    def test_honest_default_cap_for_single_pile(self):
        s = stabilized_h_series("W", 5)
        assert not s.stabilized
        assert s.reason == "power-cap"


class TestCRatio:
    def test_geometric_families(self):
        # budgets above the largest orbits, 625 and 150 states
        assert c_ratio_probe("BWW", 4, max_states=1000) == {
            "sizes": [5, 25, 125, 625],
            "ratio": 5,
            "skipped": [],
        }
        assert c_ratio_probe("BBWW", 2, max_states=300) == {
            "sizes": [15, 150],
            "ratio": 10,
            "skipped": [],
        }

    def test_skipped_powers_are_listed(self):
        probe = c_ratio_probe("BWW", 6, max_states=1000)
        assert probe["sizes"] == [5, 25, 125, 625]
        assert probe["ratio"] == 5
        assert probe["skipped"] == [5, 6]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            c_ratio_probe("BW", 3)


class TestForestIdentity:
    @pytest.mark.parametrize(
        "word,power,m",
        [("BWW", 1, 4), ("BWW", 2, 5), ("BBWW", 1, 4), ("BBW", 1, 6)],
    )
    def test_path_counts_match_levels(self, word, power, m):
        assert forest_identity_check(word, power, m)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            forest_identity_check("BWW", 1, -1)

    def test_cap_reports_the_census_levels(self):
        # the check censuses levels 0..m only (m = 4), so it caps only
        # while those pass the budget
        full = basin_census("BWW", 2)
        for budget in range(1, sum(full)):
            if budget < sum(full[:5]):
                with pytest.raises(OrbitCapped) as e:
                    forest_identity_check("BWW", 2, max_states=budget)
                assert e.value.sizes == capped_prefix(full, budget)
            else:
                assert forest_identity_check("BWW", 2, max_states=budget)

    def test_fails_on_a_miscounted_level(self, monkeypatch):
        # BWW's levels are 3, 1, 1: counting one state too many at level 2
        # must fail the check from path length 2 on, and only there
        census_levels = orbit._KERNEL.census_levels

        def miscount(seeds, max_states, max_depth):
            sizes, capped = census_levels(seeds, max_states, max_depth)
            if len(sizes) > 2:
                sizes[2] += 1
            return sizes, capped

        monkeypatch.setattr(orbit._KERNEL, "census_levels", miscount)
        assert forest_identity_check("BWW", 1, 1)
        assert not forest_identity_check("BWW", 1, 2)
        assert not forest_identity_check("BWW", 1, 4)
