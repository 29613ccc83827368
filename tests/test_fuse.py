import pytest
from fractions import Fraction

import oracles
from bsol.fuse import u_poly, v_norm, weak_comp_count
from bsol.limits import _run_factor, _wall_head
from bsol.murep import inf_move, inf_seq, recurrent_elements
from bsol.polyrat import X, IntPoly, RatFn, series_coeffs
from oracles import (
    composition_of_play,
    detect_fuse,
    fuse_plays,
    parse_poly,
    play_of_composition,
    prefuse_length,
    u_tree_oracle,
    weak_comp_count_binom,
    weak_compositions,
)

def board(values, period):
    # barred at every entry
    return inf_seq(tuple(values), len(values), tuple(period))


def recurrent(word):
    return recurrent_elements(word)[word]


class TestDetect:
    def test_fuse_closed_by_three(self):
        s = board([2, 1, 3, 1, 2], (1,))
        assert detect_fuse(s) == 3

    def test_fuse_other_order(self):
        s = board([1, 2, 3, 2, 2], (1,))
        assert detect_fuse(s) == 3

    def test_adjacent_ones_disqualify(self):
        s = board([1, 1], (1,))
        assert detect_fuse(s) == 0
        assert prefuse_length(s) == 0

    def test_adjacent_ones_before_cap_disqualify(self):
        s = board([2, 1, 1, 3], (1,))
        assert detect_fuse(s) == 0

    def test_recurrent_board_is_prefuse(self):
        # [2* 1* | 0 2 1] has a barred 2, 1 run and then an unbarred 0
        s = recurrent("BWW")
        assert detect_fuse(s) == 0
        assert prefuse_length(s) == 2

    def test_unbarred_start_is_nothing(self):
        s = recurrent("WBW")
        assert detect_fuse(s) == 0
        assert prefuse_length(s) == 0

    def test_large_entry_must_be_barred(self):
        s = board([2, 1], (3, 1, 1))
        assert detect_fuse(s) == 0
        assert prefuse_length(s) == 2


class TestWeakCompCounts:
    def test_small_values(self):
        assert weak_comp_count(0, 0) == 1
        assert weak_comp_count(0, 3) == 1
        assert weak_comp_count(3, 0) == 4
        assert weak_comp_count(2, 1) == 5

    def test_against_enumeration(self):
        for n in range(0, 7):
            for i in range(0, 7 - n):
                comps = weak_compositions(n, i)
                assert len(comps) == len(set(comps))
                assert all(sum(c) == n for c in comps)
                assert all(list(c).count(0) == i for c in comps)
                assert weak_comp_count(n, i) == len(comps)

    def test_against_binomial_form(self):
        for n in range(0, 13):
            for i in range(0, 9):
                assert weak_comp_count(n, i) == weak_comp_count_binom(n, i)

    def test_zero_generating_function(self):
        # sum_n weak_comp_count(n, i) x^n = ((1 - x)/(1 - 2x))^(i + 1)
        one_minus = parse_poly("1 - x")
        one_minus2 = parse_poly("1 - 2x")
        for i in range(0, 7):
            f = RatFn(one_minus ** (i + 1), one_minus2 ** (i + 1))
            coeffs = series_coeffs(f, 13)
            for n in range(13):
                assert coeffs[n] == Fraction(weak_comp_count(n, i))


class TestCensusPolynomials:
    def test_frozen_values(self):
        assert u_poly(0) == parse_poly("1")
        assert u_poly(1) == parse_poly("1 + x")
        assert u_poly(2) == parse_poly("1 + 2x + 2x^2")
        assert u_poly(3) == parse_poly("1 + 3x + 5x^2 + 4x^3")
        assert u_poly(4) == parse_poly("1 + 4x + 9x^2 + 12x^3 + 8x^4")

    def test_shape(self):
        for k in range(13):
            p = u_poly(k)
            assert p.coeff(0) == 1
            assert p.degree == k
            assert all(c >= 1 for c in p.coeffs.values())

    def test_total_play_count(self):
        assert sum(u_poly(4).coeffs.values()) == 34

    def test_normalized(self):
        # v_norm(k) is x^k v_k, v_k = sum_{t <= k} u_t x^-t
        assert v_norm(0) == IntPoly({0: 1})
        assert v_norm(1) == IntPoly({1: 2, 0: 1})
        assert v_norm(2) == IntPoly({2: 4, 1: 3, 0: 1})
        for k in range(9):
            # x v_k - v_(k+1) = -u_(k+1) x^-(k+1), so x (x^k v_k) + u_(k+1) = x^(k+1) v_(k+1)
            assert X * v_norm(k) + u_poly(k + 1) == v_norm(k + 1)
            # the top term sums the leading terms of u_0..u_k, 1 + 1 + 2 + ... + 2^(k-1)
            assert v_norm(k).degree == k and v_norm(k).coeff(k) == 2**k

    def test_v_shifted_combinations(self):
        # x^3 v_1 and x^4 (v_1 + v_2), the f_2 and f_3 of theorem 1.3
        x3v1 = X**2 * v_norm(1)
        assert x3v1 == parse_poly("2x^3 + x^2")
        x4v12 = X**3 * v_norm(1) + X**2 * v_norm(2)
        assert x4v12 == parse_poly("6x^4 + 4x^3 + x^2")


class TestTreeOracle:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_counts(self, k):
        assert u_tree_oracle(k) == u_poly(k)

    @pytest.mark.parametrize("word", ["W", "BBW", "BWWW"])
    def test_tail_independent(self, word):
        for k in range(1, 6):
            assert u_tree_oracle(k, tail=recurrent(word)) == u_poly(k)

    def test_fuse_that_never_burns_is_a_fault(self, monkeypatch):
        # a move that leaves the board alone keeps the fuse alive forever
        monkeypatch.setattr(oracles, "inf_move", lambda s, j: s)
        with pytest.raises(ArithmeticError, match="fuse survived too many moves"):
            fuse_plays(2)
        with pytest.raises(ArithmeticError, match="fuse survived too many moves"):
            u_tree_oracle(2)


class TestFuseIsARun:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_fuse_factors_as_a_head(self, k):
        # the fuse lemma as a case of the one head rule: a k-fuse is a head of
        # length k - 1 in front of a wall, whatever the tail, and its run
        # factor is u_k
        for word in ["W", "BBW", "BWW", "BWWW"]:
            s = oracles._fuse_board(k, recurrent(word))
            assert detect_fuse(s) == k
            assert _wall_head(s) == k - 1
            assert _run_factor(s.prefix[: k - 1]) == u_poly(k)


class TestBijection:
    def test_known_pair(self):
        assert play_of_composition(3, (2, 1)) == (3, 1, 1)
        assert composition_of_play(3, (3, 1, 1)) == (2, 1)

    def test_empty_play(self):
        assert composition_of_play(3, ()) == (0, 0, 0)
        assert play_of_composition(3, (0, 0, 0)) == ()

    def test_overrun_rejected(self):
        with pytest.raises(ValueError):
            composition_of_play(3, (3, 3))

    def test_increasing_rejected(self):
        with pytest.raises(ValueError):
            composition_of_play(3, (1, 2))

    def test_wrong_zero_count_rejected(self):
        with pytest.raises(ValueError):
            play_of_composition(3, (2, 1, 0))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_round_trip_and_census(self, k):
        for i in range(k + 1):
            comps = weak_compositions(i, k - i)
            plays = [play_of_composition(k, c) for c in comps]
            assert len(set(plays)) == len(comps)
            assert all(len(p) == i for p in plays)
            for c, p in zip(comps, plays):
                assert composition_of_play(k, p) == c

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_actual_play(self, k):
        # the play sequences realizable on a board are exactly the images
        # of the weak compositions
        actual = set(fuse_plays(k))
        encoded = {
            play_of_composition(k, c)
            for i in range(k + 1)
            for c in weak_compositions(i, k - i)
        }
        assert actual == encoded


class TestPrefuseBurn:
    @pytest.mark.parametrize("word", ["BWW", "BWWW", "BBWW", "BWBWW"])
    def test_play_on_prefuse_leaves_fuse(self, word):
        # playing position i of a prefuse of length k >= i >= 2 merges two
        # entries into something >= 3 and leaves an (i - 1)-fuse
        for s in (recurrent(w) for w in [word]):
            k = prefuse_length(s)
            if not k:
                pytest.skip(f"{word} gives no prefuse")
            for i in range(2, k + 1):
                assert detect_fuse(inf_move(s, i)) == i - 1
