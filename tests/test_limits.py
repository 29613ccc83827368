import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsol.fuse import u_poly
from bsol.golden import h_table
from bsol.limits import (
    LinearSystem,
    NonClosingError,
    _head_factor,
    _wall_head,
    assemble_system,
    default_depth_cap,
    f_poly,
    family_roots,
    family_words,
    h_limit,
    h_poly,
    p_poly,
    reduce_system,
    solve_system,
    verify_same_denominator,
    verify_tree_isomorphism,
)
from bsol.murep import drop_head, inf_move, inf_seq, recurrent_elements
from bsol.necklaces import cycle_length, distinct_rotations, necklace_representatives
from bsol.polyrat import ONE, ZERO, IntPoly, RatFn, X, series_coeffs
from oracles import anchored_self_coeff, parse_poly

B = True
U = False


def g_trunc(s, depth):
    """Exact level census of the reverse-move tree above s, to `depth`."""
    total = {0: 1}

    def rec(s, lvl):
        if lvl >= depth:
            return
        for j in s.bars():
            total[lvl + 1] = total.get(lvl + 1, 0) + 1
            rec(inf_move(s, j), lvl + 1)

    rec(s, 0)
    return IntPoly(total)


class TestFamilyWords:
    def test_rotation_order(self):
        assert family_words("BWW") == ["BWW", "WWB", "WBW"]
        assert family_words("WBBB") == ["WBBB", "BBBW", "BBWB", "BWBB"]

    def test_nonprimitive_collapses(self):
        assert family_words("BWBW") == ["BWBW", "WBWB"]


class TestFamilyRoots:
    def test_boards_match_each_rotation(self):
        # one pass around the cycle gives each rotation its own board
        for m in range(1, 9):
            for rep in necklace_representatives(m):
                if cycle_length(rep) != m:
                    continue
                for word in distinct_rotations(rep):
                    words, boards = family_roots(word)
                    assert words == family_words(word)
                    assert boards == [recurrent_elements(w)[w] for w in words]

    def test_one_cycle_pass_per_family(self, monkeypatch):
        from bsol import murep

        calls = []
        original = murep.recurrent_elements
        monkeypatch.setattr(
            murep, "recurrent_elements", lambda w: calls.append(w) or original(w)
        )
        assemble_system("WBBWW")
        verify_tree_isomorphism("BWWW", "BBBW", 1)
        assert calls == ["WBBWW", "BWWW", "BBBW"]


class TestWallHead:
    def test_zero_head(self):
        s = inf_seq(((0, U), (4, B), (1, B)), (1,))
        assert _wall_head(s) == 1

    def test_mixed_head(self):
        s = inf_seq(((1, B), (0, U), (2, B), (5, B), (1, U)), (2, 0, 1))
        assert _wall_head(s) == 3

    def test_unbarred_nonzero_disqualifies(self):
        # a later move behind the wall can re-bar this entry
        s = inf_seq(((1, U), (4, B), (1, B)), (1,))
        assert _wall_head(s) is None

    def test_unbarred_wall_disqualifies(self):
        s = inf_seq(((0, U), (4, U), (1, B)), (1,))
        assert _wall_head(s) is None

    def test_wall_at_front_is_not_a_head(self):
        s = inf_seq(((4, B), (1, B)), (1,))
        assert _wall_head(s) is None

    def test_no_wall(self):
        s = inf_seq(((0, U), (1, B), (2, B)), (1,))
        assert _wall_head(s) is None


class TestHeadFactor:
    def test_zeros_burn_chain(self):
        # a zeros in front of a wall contribute 1 + x + ... + x^(a+1)
        for a in range(1, 5):
            s = inf_seq(((0, U),) * a + ((3, B), (1, B)), (2, 0, 1))
            assert _wall_head(s) == a
            assert _head_factor(s, a) == IntPoly({e: 1 for e in range(a + 2)})

    def test_barred_two_head_agrees_with_fuse(self):
        # [2* W ...] is both a 2-fuse and a wall head; the factors agree
        s = inf_seq(((2, B), (4, B), (0, U)), (1, 2))
        assert _head_factor(s, 1) == u_poly(2)

    def test_adjacent_barred_ones(self):
        # not a fuse, but still a valid head
        s = inf_seq(((1, B), (1, B), (3, B), (1, U)), (1,))
        t = _wall_head(s)
        assert t == 2
        phi = _head_factor(s, t)
        assert phi.coeff(0) == 1
        assert sum(phi.coeffs.values()) == 1 + 3 * sum(u_poly(2).coeffs.values())

    @given(
        head=st.lists(
            st.sampled_from([(0, U), (1, B), (2, B)]), min_size=1, max_size=3
        ),
        wall=st.integers(3, 8),
        tail=st.lists(
            st.tuples(st.integers(0, 5), st.booleans()), min_size=0, max_size=3
        ),
        period=st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(
            lambda p: sum(p) > 0
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_factorization_identity(self, head, wall, tail, period):
        entries = list(head) + [(wall, B)]
        entries += [(v, b and v > 0) for v, b in tail]
        s = inf_seq(tuple(entries), tuple(period))
        t = _wall_head(s)
        if t is None:
            return
        chi = drop_head(s, t + 1)
        depth = 6
        lhs = g_trunc(s, depth)
        rhs = _head_factor(s, t) * g_trunc(chi, depth)
        for e in range(depth + 1):
            assert lhs.coeff(e) == rhs.coeff(e)


class TestExpand:
    def test_depth_cap_default(self):
        assert default_depth_cap(3) == 20

    def test_depth_cap_never_binds(self, monkeypatch):
        # every small family closes by level len(word) - 1, far inside 4n + 8
        from bsol import limits

        words = [
            word
            for m in range(3, 10)
            for word in necklace_representatives(m)
            if cycle_length(word) == m
        ]
        default = [assemble_system(word) for word in words]
        monkeypatch.setattr(limits, "default_depth_cap", lambda n: n)
        assert [assemble_system(word) for word in words] == default


class TestAssemble:
    def test_three_rotation_system(self):
        sys = assemble_system("BWW")
        assert sys.words == ["BWW", "WWB", "WBW"]
        assert sys.aux == []
        x = parse_poly("x")
        xu1 = parse_poly("x^2 + x")
        assert sys.A == [ONE, ONE, ONE]
        assert sys.M[0] == [IntPoly({}), x, xu1]
        assert sys.M[1] == [IntPoly({}), IntPoly({}), x]
        assert sys.M[2] == [x, IntPoly({}), IntPoly({})]

    def test_one_black_row_fragments(self):
        sys = assemble_system("BWWW")
        assert sys.A[1] == ONE
        assert sys.M[1][2] == parse_poly("x")
        assert sys.A[3] == ONE
        assert sys.M[3][0] == parse_poly("x")

    def test_three_black_row(self):
        sys = assemble_system("BBBW")
        assert sys.A[1] == ONE
        assert sys.M[1][2] == parse_poly("x")
        assert sys.M[1][3] == parse_poly("x^2 + x")

    def test_entries_divisible_by_x(self):
        for word in ("BWW", "BBWW", "WBW"):
            sys = assemble_system(word)
            for row in sys.M:
                for e in row:
                    assert e.coeff(0) == 0

    def test_every_small_family_closes(self):
        # each row closes on the rotations' own classes, with no extra unknown
        for m in range(3, 10):
            for word in necklace_representatives(m):
                if cycle_length(word) != m:
                    continue
                sys = assemble_system(word)
                assert sys.aux == []
                assert sys.n == sys.n_roots == m

    def test_constants_positive(self):
        for word in ("BWW", "BBWW", "BWWWW"):
            sys = assemble_system(word)
            for a in sys.A:
                assert a.coeff(0) >= 1
                assert all(c >= 0 for c in a.coeffs.values())


class TestHandDerivedSystems:
    # independently derived equation sets for the same families; the solved
    # series must satisfy them no matter how the assembly chose to collapse
    def test_one_black_four(self):
        g = solve_system(assemble_system("BWWW"))
        u1, u2 = u_poly(1), u_poly(2)
        c1 = g[2]  # alternative derivation roots the family two steps in
        c2, c3, c4 = g[3], g[0], g[1]
        assert c1 == RatFn(IntPoly({0: 1, 1: 1, 2: 2, 3: 2})) + RatFn(X) * c2 + RatFn(
            X**4 + X**3 * u1 + X**2 * u2
        ) * c1
        assert c2 == RatFn(ONE) + RatFn(X) * c3
        assert c3 == RatFn(ONE) + RatFn(X) * c4 + RatFn(X * u1) * c1
        assert c4 == RatFn(ONE) + RatFn(X) * c1

    def test_one_white_four(self):
        g = solve_system(assemble_system("WBBB"))
        u1, u2 = u_poly(1), u_poly(2)
        c1, c2, c3, c4 = g[1], g[2], g[3], g[0]
        assert c1 == RatFn(IntPoly({0: 1, 1: 1, 2: 1})) + RatFn(X) * c2 + RatFn(
            X**3 + X**2 * u1 + X * u2
        ) * c4
        assert c2 == RatFn(ONE) + RatFn(X) * c3 + RatFn(X * u1) * c4
        assert c3 == RatFn(ONE) + RatFn(X) * c4
        assert c4 == RatFn(ONE) + RatFn(X) * c1

    def test_residual_small_families(self):
        # the solved g satisfy g = A + M g exactly, row by row
        for m in range(3, 8):
            for word in necklace_representatives(m):
                if cycle_length(word) != m:
                    continue
                sys = assemble_system(word)
                g = solve_system(sys)
                for i in range(sys.n):
                    rest = sum((RatFn(sys.M[i][j]) * g[j] for j in range(sys.n)), RatFn(ZERO))
                    assert RatFn(sys.A[i]) == g[i] - rest, (word, i)


class TestHLimit:
    @pytest.mark.parametrize("entry", h_table(), ids=lambda e: e.necklace)
    def test_reference_closed_forms(self, entry):
        assert h_limit(entry.necklace) == entry.ratfn()

    def test_rotation_invariant(self):
        assert h_limit("WBW") == h_limit("BWW")
        assert h_limit("WWB") == h_limit("BWW")

    def test_series_starts_at_rotation_count(self):
        h = h_limit("BBWW")
        assert series_coeffs(h, 0) == [4]

    def test_single_pile_never_closes(self):
        with pytest.raises(NonClosingError) as e:
            h_limit("W")
        assert e.value.word == "W"
        assert str(e.value) == (
            "forest of W does not close: root 1, branch R[2, 3, 4, 5, 6, 7, 1, 1, 1, 1, 1, 1]"
        )

    def test_two_pile_never_closes(self):
        with pytest.raises(NonClosingError) as e:
            h_limit("BW")
        assert str(e.value) == (
            "forest of BW does not close: root 1, "
            "branch R[3, 4, 5, 6, 7, 8, 9, 10, 1, 1, 1, 1, 1, 1, 1, 1]"
        )

    def test_nonprimitive_rejected_upstream(self):
        with pytest.raises(ValueError):
            h_limit("XY")

    def test_wrong_value_at_zero_raises(self, monkeypatch):
        # a solve that drifts must not pass silently, also under python -O
        from bsol import limits

        # an integral drift, and one that makes H(0) a proper fraction
        for drift in (RatFn(ONE), RatFn(ONE, IntPoly({0: 2}))):

            def drifted(sys, drift=drift):
                gs = solve_system(sys)
                return [gs[0] + drift] + gs[1:]

            monkeypatch.setattr(limits, "solve_system", drifted)
            with pytest.raises(ArithmeticError, match="H\\(0\\)"):
                h_limit("BWW")


class TestAnchored:
    def test_three_letter_anchor(self):
        f, anchor = anchored_self_coeff("BWW")
        assert f == parse_poly("2x^3 + x^2")
        assert anchor == 0

    def test_four_letter_anchor(self):
        f, _ = anchored_self_coeff("BWWW")
        assert f == parse_poly("6x^4 + 4x^3 + x^2")

    def test_five_letter_anchor(self):
        f, _ = anchored_self_coeff("BWWWW")
        assert f == parse_poly("12x^5 + 8x^4 + 2x^3")

    def test_reduce_requires_triangular(self):
        assert reduce_system(assemble_system("BWW"), 0) is not None
        # row 2 references itself, so only anchor 2 can absorb it
        assert reduce_system(assemble_system("BWWW"), 0) is None

    def test_alpha_beta_reconstruct(self):
        sys = assemble_system("BWWW")
        _, a = anchored_self_coeff("BWWW")
        red = reduce_system(sys, a)
        assert red is not None
        alpha, beta, self_coeff, const = red
        gs = solve_system(sys)
        ga = gs[a]
        for r in range(sys.n):
            assert gs[r] == RatFn(alpha[r]) + RatFn(beta[r]) * ga
        assert ga == RatFn(const) + RatFn(self_coeff) * ga


class TestDenominatorPolynomials:
    def test_frozen_small(self):
        assert f_poly(2) == parse_poly("2x^3 + x^2")
        assert f_poly(3) == parse_poly("6x^4 + 4x^3 + x^2")
        assert f_poly(4) == parse_poly("12x^5 + 8x^4 + 2x^3")

    def test_h_frozen_small(self):
        assert h_poly(2) == parse_poly("2x^3 + x^2")
        assert h_poly(3) == parse_poly("4x^4 + 2x^3")
        assert h_poly(4) == parse_poly("8x^5 + 5x^4 + x^3")

    @pytest.mark.parametrize("n", range(2, 11))
    def test_two_routes_agree(self, n):
        f, p = f_poly(n), p_poly(n)
        assert f == p
        assert f.degree == n + 1

    def test_self_coeff_route_matches(self):
        for n, word in ((2, "BWW"), (3, "BWWW"), (4, "BWWWW")):
            f, _ = anchored_self_coeff(word)
            assert f == f_poly(n)

    def test_denominator_connection(self):
        # 1 - f_n is the closed-form denominator up to sign
        for n, word in ((2, "BWW"), (3, "BWWW")):
            den = h_limit(word).den
            diff = f_poly(n) - ONE
            assert den == diff or den == -diff

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            f_poly(1)
        with pytest.raises(ValueError):
            p_poly(1)
        with pytest.raises(ValueError):
            h_poly(0)


class TestExactSolve:
    def test_recurrent_boards_hold_only_gaps_up_to_two(self):
        # assemble_system matches nodes against the roots exactly; that
        # equals matching on values capped at 3 only while this holds
        checked = 0
        for m in range(1, 13):
            for word in necklace_representatives(m):
                if cycle_length(word) != m:
                    continue
                checked += 1
                for w, board in recurrent_elements(word).items():
                    values = [v for v, _ in board.prefix] + list(board.period)
                    assert max(values) <= 2, (word, w, board)
        assert checked == 747

    @pytest.mark.parametrize(
        "m, pivot, lead",
        [
            ([[ONE + X]], 1, 0),
            ([[IntPoly({0: 2, 1: 1})]], 1, -1),
            ([[X, ZERO], [ZERO, ONE]], 2, 0),
        ],
        ids=["1+x", "2+x", "second-pivot"],
    )
    def test_constant_term_in_m_is_a_fault(self, m, pivot, lead):
        # M divisible by x makes every pivot 1 at x = 0; a system where that
        # fails is an internal fault, however solvable it may be
        sys = LinearSystem(["BWW"] * len(m), [], [ONE] * len(m), m)
        message = f"pivot {pivot} of the BWW system is {lead} at x = 0"
        with pytest.raises(ArithmeticError) as e:
            solve_system(sys)
        assert str(e.value) == message


class TestTreeIsomorphism:
    def test_alternating_pairs(self):
        assert verify_tree_isomorphism("BWB", "WBW", 6)
        assert verify_tree_isomorphism("BWBWB", "WBWBW", 6)

    def test_distinct_families_differ(self):
        assert not verify_tree_isomorphism("BWW", "BWB", 4)

    def test_size_mismatch(self):
        assert not verify_tree_isomorphism("BWW", "BWWW", 3)

    def test_negative_depth_rejected(self):
        # it used to recurse without end
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            verify_tree_isomorphism("BWB", "WBW", -1)

    def test_matching_limits(self):
        assert h_limit("BWB") == h_limit("WBW")
        assert h_limit("BWBWB") == h_limit("WBWBW")


class TestSameDenominator:
    def test_equal_function_pair(self):
        rep = verify_same_denominator("BWW", "BBW")
        assert rep == {"equal_denominator": True, "equal_function": True}

    def test_equal_denominator_only(self):
        rep = verify_same_denominator("BWWW", "BBBW")
        assert rep["equal_denominator"]
        assert not rep["equal_function"]

    def test_coincidental_equality(self):
        # distinct growth ratios, same limit function
        rep = verify_same_denominator("BWBWBWB", "BWBBWWW")
        assert rep["equal_function"]
