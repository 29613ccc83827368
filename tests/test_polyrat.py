import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsol.polyrat import (
    ONE,
    ZERO,
    IntPoly,
    RatFn,
    format_poly,
    poly_divexact,
    poly_gcd,
    poly_to_json,
    primitive_part,
    ratfn_to_json,
    series_coeffs,
)
from oracles import PolyParseError, parse_poly

# small random polynomials for property tests
coeff_dicts = st.dictionaries(st.integers(0, 6), st.integers(-9, 9), max_size=5)
polys = coeff_dicts.map(IntPoly)
# higher degrees and larger coefficients, for longer remainder sequences
wide_polys = st.dictionaries(st.integers(0, 9), st.integers(-10**6, 10**6), max_size=8).map(IntPoly)


def fraction_euclid_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """The reference gcd: Euclid over Fractions, then the primitive part."""
    fa = {e: Fraction(c) for e, c in a.coeffs.items()}
    fb = {e: Fraction(c) for e, c in b.coeffs.items()}
    while fb:
        dv = max(fb)
        r = dict(fa)
        while r and max(r) >= dv:
            du = max(r)
            q = r[du] / fb[dv]
            for e, c in fb.items():
                w = r.get(e + du - dv, Fraction(0)) - q * c
                if w:
                    r[e + du - dv] = w
                else:
                    r.pop(e + du - dv, None)
        fa, fb = fb, r
    if not fa:
        return ZERO
    scale = lcm(*(c.denominator for c in fa.values()))
    return primitive_part(IntPoly({e: int(c * scale) for e, c in fa.items()}))


class TestPolyBasics:
    def test_zero_and_degree(self):
        assert ZERO.is_zero()
        assert ZERO.degree == -1
        assert IntPoly({3: 2, 0: -1}).degree == 3
        assert IntPoly({3: 2, 0: -1}).leading == 2

    def test_zero_coeffs_dropped(self):
        p = IntPoly({2: 0, 1: 5})
        assert p.coeffs == {1: 5}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            IntPoly({-1: 1})

    def test_no_int_coercion(self):
        # an int is not a constant polynomial, in arithmetic or in comparisons
        p = parse_poly("x + 1")
        for op in (lambda: p + 1, lambda: 1 + p, lambda: p - 1, lambda: 1 - p, lambda: 3 * p):
            with pytest.raises(TypeError):
                op()
        assert IntPoly({0: 5}) != 5
        assert ZERO != 0
        assert RatFn(p) != p

    def test_to_intpoly_guard(self):
        # a coefficient dict goes back through the constructor, which
        # rejects a negative exponent among the others
        with pytest.raises(ValueError, match="negative exponent -1"):
            IntPoly({2: 3, -1: 1, 0: 4})
        p = IntPoly({2: 3, 0: 4})
        assert IntPoly(p.coeffs) == p


# tiny values, so that equal ones of different types come up often
tiny_dicts = st.dictionaries(st.integers(0, 1), st.integers(-1, 1), max_size=2)
tiny_values = st.one_of(
    tiny_dicts.map(IntPoly),
    tiny_dicts.map(lambda d: RatFn(IntPoly(d))),
    st.integers(-1, 1),
)


class TestHash:
    @given(tiny_values, tiny_values)
    def test_equal_values_hash_equal(self, a, b):
        if a == b:
            assert hash(a) == hash(b)


class TestPolyRingProperties:
    @given(polys, polys, polys)
    def test_add_mul_distribute(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(polys)
    def test_neg_cancels(self, a):
        assert (a + (-a)).is_zero()

    @given(polys, polys)
    def test_plain_operands_stay_plain(self, a, b):
        assert all(type(v) is IntPoly for v in (a + b, a - b, a * b))

    @given(polys, st.integers(0, 4))
    def test_pow_matches_repeated_mul(self, a, n):
        expect = ONE
        for _ in range(n):
            expect = expect * a
        assert a**n == expect


class TestDivisionAndGcd:
    def test_divexact(self):
        a = parse_poly("x^2 - 1")
        b = parse_poly("x - 1")
        assert poly_divexact(a, b) == parse_poly("x + 1")

    def test_divexact_rejects_remainder(self):
        with pytest.raises(ArithmeticError):
            poly_divexact(parse_poly("x^2 + 1"), parse_poly("x - 1"))

    def test_divexact_rejects_fractional(self):
        with pytest.raises(ArithmeticError):
            poly_divexact(parse_poly("x"), parse_poly("2x"))
        assert poly_divexact(parse_poly("2x"), parse_poly("2")) == parse_poly("x")

    def test_primitive_part(self):
        assert primitive_part(parse_poly("-4x^2 + 6")) == parse_poly("2x^2 - 3")
        assert primitive_part(ZERO) == ZERO

    def test_gcd_known(self):
        a = parse_poly("x^2 - 1")
        b = parse_poly("x^2 - 2x + 1")
        assert poly_gcd(a, b) == parse_poly("x - 1")
        assert poly_gcd(a, ZERO) == parse_poly("x^2 - 1")
        assert poly_gcd(ZERO, ZERO) == ZERO
        assert poly_gcd(parse_poly("2x^3 + 4x^2"), parse_poly("6x^2")) == parse_poly("x^2")
        # content is not part of the gcd: 2x + 2 and 4x + 4 share x + 1
        assert poly_gcd(parse_poly("2x + 2"), parse_poly("4x + 4")) == parse_poly("x + 1")

    def test_gcd_needs_several_remainders(self):
        # the Knuth example, coprime, whose remainders grow without the content step
        a = parse_poly("x^8 + x^6 - 3x^4 - 3x^3 + 8x^2 + 2x - 5")
        b = parse_poly("3x^6 + 5x^4 - 4x^2 - 9x + 21")
        assert poly_gcd(a, b) == ONE
        g = parse_poly("3x^2 - 2x + 7")
        assert poly_gcd(g * a, g * b) == g

    @given(wide_polys, wide_polys.filter(bool), wide_polys)
    def test_divexact_wide(self, a, b, r):
        # the exact quotient comes back, and a nonzero remainder is never dropped
        assert poly_divexact(a * b, b) == a
        r = IntPoly({e: c for e, c in r.coeffs.items() if e < b.degree})
        if not r.is_zero():
            with pytest.raises(ArithmeticError):
                poly_divexact(a * b + r, b)

    @given(polys, polys, polys)
    def test_gcd_divides_products(self, a, b, g):
        # primitive_part(g) divides gcd(g*a, g*b), which divides both
        d = poly_gcd(g * a, g * b)
        if not g.is_zero():
            poly_divexact(d, primitive_part(g))
        if not d.is_zero():
            poly_divexact(g * a, d)
            poly_divexact(g * b, d)

    @given(polys, polys, polys)
    def test_gcd_cofactors_coprime(self, a, b, g):
        d = poly_gcd(g * a, g * b)
        if d.is_zero():
            return
        assert poly_gcd(poly_divexact(g * a, d), poly_divexact(g * b, d)) == ONE

    @given(polys, polys, polys)
    def test_gcd_primitive_and_symmetric(self, a, b, g):
        d = poly_gcd(g * a, g * b)
        assert d == poly_gcd(g * b, g * a)
        if not d.is_zero():
            assert d.content() == 1
            assert d.leading > 0

    @given(polys, st.integers(-9, 9).filter(bool))
    def test_gcd_zero_and_constant(self, a, c):
        assert poly_gcd(a, ZERO) == primitive_part(a)
        assert poly_gcd(ZERO, a) == primitive_part(a)
        assert poly_gcd(IntPoly({0: c}), a) == ONE
        assert poly_gcd(a, IntPoly({0: c})) == ONE

    @given(polys, polys, polys)
    def test_gcd_matches_fraction_euclid(self, a, b, g):
        assert poly_gcd(g * a, g * b) == fraction_euclid_gcd(g * a, g * b)

    @given(wide_polys, wide_polys, wide_polys)
    def test_gcd_matches_fraction_euclid_wide(self, a, b, g):
        assert poly_gcd(g * a, g * b) == fraction_euclid_gcd(g * a, g * b)


class TestRatFn:
    def test_reduction(self):
        f = RatFn(parse_poly("x^2 - 1"), parse_poly("x - 1"))
        assert f.num == parse_poly("x + 1")
        assert f.den == ONE
        assert f.is_polynomial()

    def test_joint_primitivity(self):
        f = RatFn(parse_poly("2x + 2"), parse_poly("4"))
        assert f.num == parse_poly("x + 1")
        assert f.den == parse_poly("2")

    def test_den_sign(self):
        f = RatFn(parse_poly("x"), parse_poly("-x + 1"))
        assert f.den.leading > 0
        assert f == RatFn(parse_poly("-x"), parse_poly("x - 1"))

    def test_zero(self):
        f = RatFn(ZERO, parse_poly("x - 5"))
        assert f.num.is_zero()
        assert f.den == ONE

    def test_arith(self):
        x = RatFn(parse_poly("x"))
        one = RatFn(ONE)
        f = one / (one - x) - one / (one + x)
        # 2x / (1 - x^2)
        assert f == RatFn(parse_poly("2x"), parse_poly("-x^2 + 1"))
        assert f * (one - x * x) == RatFn(parse_poly("2x"))

    def test_operands_are_ratfn_only(self):
        # a polynomial takes part only once wrapped as RatFn(p), on either side
        f, p = RatFn(ONE), parse_poly("x + 1")
        for op in (
            lambda: f + p, lambda: p + f, lambda: f - p, lambda: p - f,
            lambda: f * p, lambda: p * f, lambda: f / p, lambda: p / f,
        ):
            with pytest.raises(TypeError):
                op()
        assert f + RatFn(p) == RatFn(parse_poly("x + 2"))

    @given(coeff_dicts, coeff_dicts, coeff_dicts)
    def test_field_identities(self, da, db, dc):
        a, b, c = RatFn(IntPoly(da)), RatFn(IntPoly(db)), RatFn(IntPoly(dc))
        assert a * (b + c) == a * b + a * c
        if not b.num.is_zero():
            assert (a / b) * b == a

    def test_immutable(self):
        f = RatFn(ONE)
        with pytest.raises(AttributeError):
            f.num = ZERO


class TestSeries:
    def test_geometric(self):
        f = RatFn(ONE, parse_poly("-x + 1"))
        cs = series_coeffs(f, 5)
        assert cs == [1, 1, 1, 1, 1, 1]
        assert all(type(c) is int for c in cs)

    def test_fractional_coefficient_rejected(self):
        # 1/(2 - x) = 1/2 + x/4 + ...: no integer series
        f = RatFn(ONE, parse_poly("2 - x"))
        message = r"coefficient 0 of the series of \(-1\) / \(x - 2\) is not"
        with pytest.raises(ArithmeticError, match=message):
            series_coeffs(f, 3)
        assert series_coeffs(RatFn(parse_poly("2"), parse_poly("2 - x")), 0) == [1]

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            series_coeffs(RatFn(ONE, parse_poly("x")), 3)

    def test_staircase_limit_series(self):
        # (1-x)^2 / (x^2 - 3x + 1) expands as 1 + x + 3x^2 + 8x^3 + 21x^4 + ...
        f = RatFn(parse_poly("x^2 - 2x + 1"), parse_poly("x^2 - 3x + 1"))
        assert series_coeffs(f, 4) == [1, 1, 3, 8, 21]

    def test_two_cycle_limit_series(self):
        f = RatFn(parse_poly("3x^3 - 4x^2 - x + 2"), parse_poly("x^3 - 3x^2 - x + 1"))
        assert series_coeffs(f, 3) == [2, 1, 3, 7]

    @given(coeff_dicts, st.integers(1, 9))
    def test_series_times_den_recovers_num(self, dn, d0):
        num = IntPoly(dn)
        den = IntPoly({0: d0, 1: -2, 3: 1})
        f = RatFn(num, den)
        m = max(8, f.num.degree + f.den.degree + 2)
        # d0^(m+1) clears every denominator of the first m + 1 coefficients
        f = RatFn(num * IntPoly({0: d0 ** (m + 1)}), den)
        cs = series_coeffs(f, m)
        assert all(type(c) is int for c in cs)
        # multiply the truncated series back by den and compare low terms
        for k in range(m - f.den.degree + 1):
            acc = 0
            for i, di in f.den.coeffs.items():
                if 0 <= k - i <= m:
                    acc += di * cs[k - i]
            assert acc == f.num.coeff(k)


class TestFormatParse:
    def test_format_examples(self):
        assert format_poly(parse_poly("6x^4 + 4x^3 + x^2 - 1")) == "6x^4 + 4x^3 + x^2 - 1"
        assert format_poly(ZERO) == "0"
        assert format_poly(IntPoly({1: -1})) == "-x"
        assert format_poly(IntPoly({0: 5})) == "5"

    def test_parse_variants(self):
        assert parse_poly("2*x^3") == IntPoly({3: 2})
        assert parse_poly("x^2+x^2") == IntPoly({2: 2})
        assert parse_poly("  -x + 1 ") == IntPoly({1: -1, 0: 1})
        assert parse_poly("x^2 − 1") == IntPoly({2: 1, 0: -1})

    def test_parse_errors(self):
        for bad in ["", "x +", "^2", "x^", "2 2", "y"]:
            with pytest.raises(PolyParseError):
                parse_poly(bad)
        with pytest.raises(PolyParseError):
            parse_poly("x^-1")

    @given(polys)
    def test_roundtrip_text(self, p):
        assert parse_poly(format_poly(p)) == p

    def test_json_pinned(self):
        # exponents and coefficients as strings, highest exponent first
        assert json.dumps(poly_to_json(ZERO)) == '{"coeffs": {}}'
        assert json.dumps(poly_to_json(IntPoly({1: 2, 3: -1}))) == (
            '{"coeffs": {"3": "-1", "1": "2"}}'
        )
        f = RatFn(parse_poly("-x^2 + 2x - 1"), parse_poly("x^2 - 3x + 1"))
        assert json.dumps(ratfn_to_json(f)) == (
            '{"num": {"coeffs": {"2": "-1", "1": "2", "0": "-1"}}, '
            '"den": {"coeffs": {"2": "1", "1": "-3", "0": "1"}}}'
        )
