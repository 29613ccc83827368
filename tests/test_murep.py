import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsol.murep import (
    drop_head,
    inf_move,
    inf_seq,
    recurrent_board,
    recurrent_elements,
    tail_from_word,
)
from bsol.necklaces import (
    cycle_length,
    distinct_rotations,
    necklace_representatives,
    rotate_left,
    rotate_right,
    word_partition,
)
from bsol.partitions import playable_parts, reverse_move
from oracles import (
    BarredSeq,
    all_partitions,
    from_partition,
    is_proper_tail,
    move,
    to_partition,
    word_from_tail,
)


def bs(values, bars):
    return BarredSeq(tuple(values), frozenset(bars))


def values_upto(s, m):
    return tuple(s.value_at(i) for i in range(1, m + 1))


class TestFiniteSeq:
    def test_from_partition_example(self):
        assert from_partition((5, 3, 3, 2)) == bs((2, 0, 1, 2), {1, 3})

    def test_round_trip(self):
        for n in range(0, 19):
            for lam in all_partitions(n):
                assert to_partition(from_partition(lam)) == lam

    def test_bars_are_playable_positions(self):
        # the bars are also the nonzero entries up to the largest bar: the
        # one bound an infinite board stores
        for n in range(0, 19):
            for lam in all_partitions(n):
                s = from_partition(lam)
                assert s.bars == frozenset(playable_parts(lam))
                top = max(s.bars, default=0)
                assert s.bars == {i for i in range(1, top + 1) if s.values[i - 1]}

    def test_move_examples(self):
        s = from_partition((5, 3, 3, 2))
        assert move(s, 1) == bs((0, 1, 2, 0, 1), {2})
        assert move(s, 3) == bs((2, 1, 3), {1, 2, 3})

    def test_move_rejects_unbarred(self):
        s = from_partition((5, 3, 3, 2))
        with pytest.raises(ValueError):
            move(s, 2)

    def test_move_commutes_with_reverse_move(self):
        # same game in both coordinate systems, bars included
        for n in range(1, 19):
            for lam in all_partitions(n):
                s = from_partition(lam)
                for j in s.bars:
                    assert move(s, j) == from_partition(reverse_move(lam, j))

    def test_bar_on_zero_rejected(self):
        with pytest.raises(ValueError):
            bs((0, 1), {1})


# small random eventually periodic boards
periods = st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(
    lambda p: sum(p) > 0
)
# values with a bound anywhere from 0 to their length
prefixes = st.lists(st.integers(0, 3), max_size=5).flatmap(
    lambda pre: st.tuples(st.just(tuple(pre)), st.integers(0, len(pre)))
)


class TestInfSeqCanonical:
    def test_trim(self):
        # entries past the bound matching the period fold into it
        s = inf_seq((2, 1, 0), 1, (2, 1, 0))
        t = inf_seq((2,), 1, (1, 0, 2))
        assert s == t
        assert values_upto(s, 7) == (2, 1, 0, 2, 1, 0, 2)

    def test_primitive_period(self):
        assert inf_seq((), 0, (2, 0, 2, 0)) == inf_seq((), 0, (2, 0))

    def test_same_values_different_bars_differ(self):
        a = inf_seq((1, 1), 2, (1,))
        b = inf_seq((1,), 1, (1,))
        assert a != b
        assert values_upto(a, 5) == values_upto(b, 5)

    def test_rejects_zero_period(self):
        with pytest.raises(ValueError):
            inf_seq((), 0, (0, 0))

    def test_bound_outside_the_values_rejected(self):
        for bound in (-1, 2):
            with pytest.raises(ValueError):
                inf_seq((1,), bound, (1,))

    def test_bound_falls_to_the_last_bar(self):
        # zeros at the end of the barred run carry no bar
        s = inf_seq((1, 0, 0), 3, (1,))
        assert s == inf_seq((1, 0, 0), 1, (1,))
        assert s.bound == 1
        assert s.bars() == (1,)
        assert inf_seq((0, 0), 2, (1,)).bars() == ()

    @given(prefixes, periods)
    def test_canonical_idempotent(self, pre, per):
        s = inf_seq(*pre, tuple(per))
        assert inf_seq(s.prefix, s.bound, s.period) == s

    @given(prefixes, periods)
    def test_unrolling_period_changes_nothing(self, pre, per):
        s = inf_seq(*pre, tuple(per))
        ext = s.prefix + (s.period[0],)
        rolled = s.period[1:] + s.period[:1]
        t = inf_seq(ext, s.bound, rolled)
        assert t == s

    @given(prefixes, periods)
    def test_values_survive_canonicalization(self, pre, per):
        values, bound = pre
        s = inf_seq(values, bound, tuple(per))
        m = len(values) + 2 * len(per)
        expect = [
            values[i] if i < len(values) else per[(i - len(values)) % len(per)]
            for i in range(m)
        ]
        assert list(values_upto(s, m)) == expect
        assert s.bars() == tuple(i for i in range(1, bound + 1) if values[i - 1])


class TestTails:
    def test_tail_values(self):
        assert tail_from_word("BWW") == (2, 1, 0)
        assert tail_from_word("WBW") == (0, 2, 1)
        assert tail_from_word("WBBB") == (0, 1, 1, 2)
        assert tail_from_word("W") == (1,)
        assert tail_from_word("B") == (1,)

    def test_word_round_trip(self):
        for m in range(1, 8):
            for w in necklace_representatives(m):
                tail = tail_from_word(w)
                word, ambiguous = word_from_tail(tail)
                if ambiguous:
                    assert set(w) in ({"B"}, {"W"})
                    assert word == "W" * len(w)
                else:
                    assert word == w

    def test_improper_tails(self):
        assert not is_proper_tail((2, 1, 0, 2))
        assert not is_proper_tail((2, 2, 0, 0))  # adjacent rise without fall
        assert not is_proper_tail((3,))
        assert is_proper_tail((2, 0))
        assert is_proper_tail((1, 1, 1))

    def test_proper_tail_counts_match_words(self):
        # every proper tail of length m comes from a word of length m
        from itertools import product

        for m in range(1, 7):
            tails = {tail_from_word("".join(w)) for w in product("BW", repeat=m)}
            proper = {t for t in product((0, 1, 2), repeat=m) if is_proper_tail(t)}
            assert proper == tails


def elem(word):
    return recurrent_elements(word)[word]


class TestRecurrentElements:
    def test_staircase_board(self):
        assert elem("W") == inf_seq((1, 1), 2, (1,))
        # all-B necklaces share the same board
        assert elem("B") == elem("W")
        assert elem("BB") == elem("W")

    def test_three_cycle_boards(self):
        xs = recurrent_elements("BWW")
        assert xs["BWW"] == inf_seq((2, 1), 2, (0, 2, 1))
        assert xs["WWB"] == inf_seq((1,), 1, (0, 2, 1))
        assert xs["WBW"] == inf_seq((0, 2), 2, (1, 0, 2))

    def test_four_cycle_bars(self):
        for w, bars in {
            "BWWW": (1, 2),
            "WWWB": (1,),
            "WWBW": (1, 3),
            "WBWW": (2,),
        }.items():
            assert recurrent_elements("BWWW")[w].bars() == bars

    def test_wbbb_bars(self):
        expect = {"WBBB": (2,), "BBBW": (1, 2, 3), "BBWB": (1, 2), "BWBB": (1,)}
        xs = recurrent_elements("WBBB")
        for w, bars in expect.items():
            assert xs[w].bars() == bars
            assert values_upto(xs[w], 4) == tail_from_word(w)

    def test_bbbbw_bars(self):
        assert recurrent_elements("WBBBB")["BBBBW"].bars() == (1, 2, 3)

    def test_alternating_bars(self):
        xs = recurrent_elements("BWBW")
        assert xs["BWBW"] == inf_seq((2, 0, 2), 3, (0, 2))
        assert xs["WBWB"] == inf_seq((0, 2), 2, (0, 2))

    def test_cycle_structure_all_small_necklaces(self):
        # one board per distinct rotation, moves walk the cycle leftward
        for m in range(1, 7):
            for w in necklace_representatives(m):
                xs = recurrent_elements(w)
                for rot, s in xs.items():
                    nxt = inf_move(s, s.bars()[0])
                    assert nxt == xs[rotate_left(rot)]

    def test_board_is_the_cycle_move_of_any_bars(self):
        # the move at the first nonzero entry of rotate_right(rot)'s values
        # fixes every bar from the values alone, whatever the bound moved
        for m in range(1, 13):
            for w in necklace_representatives(m):
                for rot in distinct_rotations(w):
                    expect = recurrent_board(rot)
                    tail = tail_from_word(rotate_right(rot))
                    values = tail * 2
                    j = next(i for i, v in enumerate(values, start=1) if v)
                    for bound in (j, (j + len(values)) // 2, len(values)):
                        assert inf_move(inf_seq(values, bound, tail), j) == expect

    def test_matches_finite_cycle_boards(self):
        # the finite recurrent board agrees with the infinite one on the
        # first m-1 entries, bars included
        for m in range(2, 7):
            for w in necklace_representatives(m):
                xs = recurrent_elements(w)
                for rot, s in xs.items():
                    fin = from_partition(word_partition(rot))
                    cut = m - 1
                    assert fin.values[:cut] == values_upto(s, cut)
                    assert {i for i in fin.bars if i <= cut} == {
                        i for i in s.bars() if i <= cut
                    }


class TestInfMoves:
    def test_staircase_tree_levels(self):
        root = elem("W")
        assert inf_move(root, 1) == root  # the cycle is a fixed point
        lvl1 = inf_move(root, 2)
        assert lvl1 == inf_seq((2, 1, 1), 3, (1,))
        kids = [inf_move(lvl1, j) for j in lvl1.bars()]
        assert kids == [
            inf_seq((1,), 1, (1,)),
            inf_seq((3, 1, 1), 3, (1,)),
            inf_seq((2, 2, 1, 1), 4, (1,)),
        ]

    def test_matches_finite_boards_beyond_the_cycle(self):
        # every node to depth 4 above each recurrent board agrees with the
        # same moves on a finite board of twelve turns, on the first four
        # turns of entries, bars included
        nodes = 0

        def walk(s, fin, cut, depth):
            nonlocal nodes
            nodes += 1
            assert fin.values[:cut] == values_upto(s, cut)
            assert {i for i in fin.bars if i <= cut} == {
                i for i in s.bars() if i <= cut
            }
            if depth < 4:
                for j in s.bars():
                    walk(inf_move(s, j), move(fin, j), cut, depth + 1)

        for m in range(1, 7):
            for w in necklace_representatives(m):
                if cycle_length(w) != m:
                    continue
                for rot, s in recurrent_elements(w).items():
                    walk(s, from_partition(word_partition(rot * 12)), 4 * m, 0)
        assert nodes == 2644

    def test_unbarred_move_rejected(self):
        with pytest.raises(ValueError):
            inf_move(elem("W"), 3)

    def test_dead_end_board(self):
        s = inf_seq((5,), 1, (1,))
        t = inf_move(s, 1)
        assert t.bars() == ()
        assert t == inf_seq((), 0, (1,))


class TestDropHead:
    def test_within_prefix(self):
        s = inf_seq((2, 1), 2, (0, 2, 1))
        assert drop_head(s, 1) == inf_seq((1,), 1, (0, 2, 1))
        assert drop_head(s, 0) == s

    def test_past_prefix(self):
        s = inf_seq((2, 1), 2, (0, 2, 1))
        t = drop_head(s, 3)
        assert values_upto(t, 6) == (2, 1, 0, 2, 1, 0)
        assert t.bars() == ()
