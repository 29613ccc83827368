import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsol.partitions import (
    forward_move,
    is_partition,
    playable_parts,
    predecessors,
    reverse_move,
)
from oracles import all_partitions, level_and_cycle, staircase, trajectory

partitions_20 = st.integers(1, 20).flatmap(
    lambda n: st.sampled_from(sorted(all_partitions(n)))
)


class TestForwardMove:
    def test_examples(self):
        assert forward_move((5, 3, 3, 2)) == (4, 4, 2, 2, 1)
        assert forward_move((3,)) == (2, 1)
        assert forward_move((2, 1)) == (2, 1)
        assert forward_move((1, 1, 1)) == (3,)
        assert forward_move(()) == ()

    def test_preserves_total(self):
        for n in range(1, 15):
            for lam in all_partitions(n):
                assert sum(forward_move(lam)) == n
                assert is_partition(forward_move(lam))

    def test_staircase_fixed(self):
        for k in range(1, 8):
            assert forward_move(staircase(k)) == staircase(k)


class TestReverseMove:
    def test_playable_example(self):
        assert playable_parts((5, 3, 3, 2)) == [1, 3]

    def test_reverse_examples(self):
        assert reverse_move((5, 3, 3, 2), 1) == (4, 4, 3, 1, 1)
        assert reverse_move((5, 3, 3, 2), 3) == (6, 4, 3)

    def test_unplayable_rejected(self):
        with pytest.raises(ValueError):
            reverse_move((5, 3, 3, 2), 2)
        with pytest.raises(ValueError):
            reverse_move((5, 3, 3, 2), 4)

    def test_non_partition_rejected(self):
        # (2, 1, 3) is not descending; its pile 1 "undoes" to (2, 4)
        with pytest.raises(ValueError, match="not a partition"):
            reverse_move((2, 1, 3), 1)

    @given(partitions_20)
    def test_reverse_then_forward_is_identity(self, lam):
        for j in playable_parts(lam):
            assert forward_move(reverse_move(lam, j)) == lam

    def test_predecessors_complete(self):
        # brute force: preimages found by scanning every partition of n
        for n in range(0, 16):
            everything = list(all_partitions(n))
            by_image: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
            for lam in everything:
                by_image.setdefault(forward_move(lam), set()).add(lam)
            for lam in everything:
                assert set(predecessors(lam)) == by_image.get(lam, set())

    def test_predecessors_distinct(self):
        for n in range(1, 16):
            for lam in all_partitions(n):
                pre = predecessors(lam)
                assert len(pre) == len(set(pre))


class TestLevels:
    def test_staircase_level_zero(self):
        assert level_and_cycle(staircase(4)) == (0, 1)

    def test_known_cycle(self):
        # 5 chips: (3,1,1) -> (3,2) -> (2,2,1) -> (3,1,1), a 3-cycle
        assert level_and_cycle((3, 1, 1)) == (0, 3)
        assert level_and_cycle((5,)) == (2, 3)

    def test_trajectory(self):
        assert trajectory((5,), 3) == [(5,), (4, 1), (3, 2), (2, 2, 1)]

    @given(partitions_20)
    def test_every_orbit_reaches_a_cycle(self, lam):
        level, cyc = level_and_cycle(lam)
        cur = lam
        for _ in range(level):
            cur = forward_move(cur)
        first = cur
        for _ in range(cyc):
            cur = forward_move(cur)
        assert cur == first


class TestAllPartitions:
    def test_counts(self):
        # partition numbers p(0)..p(10)
        expect = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, e in enumerate(expect):
            assert sum(1 for _ in all_partitions(n)) == e

    def test_valid_and_distinct(self):
        for n in range(0, 12):
            seen = set()
            for lam in all_partitions(n):
                assert is_partition(lam)
                assert sum(lam) == n
                assert lam not in seen
                seen.add(lam)
