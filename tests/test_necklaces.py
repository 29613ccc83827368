import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsol.necklaces import (
    canonical,
    check_word,
    cycle_length,
    cycle_partitions,
    distinct_rotations,
    dual,
    is_primitive,
    necklace_representatives,
    primitive_word,
    rotate_left,
    rotate_right,
    word_partition,
)
from bsol.partitions import forward_move, is_partition
from oracles import level_and_cycle, weight

words = st.text(alphabet="BW", min_size=1, max_size=10)


class TestWords:
    def test_check(self):
        with pytest.raises(ValueError):
            check_word("")
        with pytest.raises(ValueError):
            check_word("BWX")
        assert check_word("BWW") == "BWW"

    @given(words, st.integers(0, 20))
    def test_rotations_inverse(self, w, k):
        assert rotate_left(rotate_right(w, k), k) == w

    def test_distinct_rotations(self):
        assert distinct_rotations("BW") == ["BW", "WB"]
        assert distinct_rotations("BB") == ["BB"]
        assert distinct_rotations("BWBW") == ["BWBW", "WBWB"]

    @given(words)
    def test_canonical_is_rotation_invariant(self, w):
        assert canonical(w) == canonical(rotate_right(w))
        assert canonical(w) in distinct_rotations(w)


class TestWordPartition:
    def test_small(self):
        assert word_partition("W") == ()
        assert word_partition("B") == (1,)
        assert word_partition("BW") == (2,)
        assert word_partition("WB") == (1, 1)
        assert word_partition("BWW") == (3, 1)
        assert word_partition("WBW") == (2, 2)
        assert word_partition("WWB") == (2, 1, 1)

    @given(words)
    def test_is_partition_of_weight(self, w):
        lam = word_partition(w)
        assert is_partition(lam)
        assert sum(lam) == weight(w)

    @given(words)
    def test_rotation_matches_forward_move(self, w):
        assert forward_move(word_partition(w)) == word_partition(rotate_right(w))


class TestCycles:
    @given(words)
    def test_cycle_is_recurrent(self, w):
        lams = cycle_partitions(w)
        assert len(lams) == cycle_length(w)
        assert len(set(lams)) == len(lams)
        for lam in lams:
            assert level_and_cycle(lam) == (0, cycle_length(w))
        for a, b in zip(lams, lams[1:] + lams[:1]):
            assert forward_move(a) == b

    def test_all_cycles_of_n_chips_covered(self):
        # every recurrent partition with up to 12 chips comes from some word
        from oracles import all_partitions

        by_weight: dict[int, set[tuple[int, ...]]] = {}
        for m in range(1, 7):
            for w in necklace_representatives(m):
                for lam in cycle_partitions(w):
                    by_weight.setdefault(weight(w), set()).add(lam)
        for n in range(1, 13):
            recurrent = {
                lam for lam in all_partitions(n) if level_and_cycle(lam)[0] == 0
            }
            assert recurrent == by_weight.get(n, set())


class TestRepresentatives:
    def test_counts(self):
        # binary necklaces of length 1..8
        expect = [2, 3, 4, 6, 8, 14, 20, 36]
        for m, e in zip(range(1, 9), expect):
            reps = necklace_representatives(m)
            assert len(reps) == e
            assert all(canonical(w) == w for w in reps)


class TestPrimitivity:
    @pytest.mark.parametrize("word", ["B", "BW", "BBWW", "BWW", "BWBWW"])
    def test_primitive(self, word):
        assert is_primitive(word)

    @pytest.mark.parametrize("word", ["BWBW", "BBBB", "WW", "BWWBWW"])
    def test_proper_powers(self, word):
        assert not is_primitive(word)

    @given(words, st.integers(2, 4))
    def test_powers_never_primitive(self, word, k):
        assert not is_primitive(word * k)

    def test_primitive_word_raises(self):
        assert primitive_word("BWW") == "BWW"
        with pytest.raises(ValueError, match="necklace BWBW is not primitive"):
            primitive_word("BWBW")
        with pytest.raises(ValueError, match="nonempty string over B/W"):
            primitive_word("BXW")


class TestDual:
    def test_examples(self):
        assert dual("BWW") == canonical("BBW")
        assert dual("BWWW") == canonical("BBBW")
        assert dual("BWBWB") == canonical("WBWBW")

    @given(words)
    def test_involution(self, word):
        assert dual(dual(word)) == canonical(word)

    @given(words)
    def test_length_preserved(self, word):
        assert len(dual(word)) == len(word)

    @given(words, st.integers(0, 8))
    def test_rotation_invariant(self, word, k):
        assert dual(rotate_left(word, k)) == dual(word)
