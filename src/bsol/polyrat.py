"""Exact sparse polynomials and rational functions over the integers.

Coefficients are arbitrary-precision ints stored as {exponent: coefficient}
with no zero entries, exponents >= 0: IntPoly is the one polynomial type,
and a Laurent polynomial such as v_k = sum_t u_t x^-t is carried as
x^k v_k.  RatFn keeps a reduced num/den pair of IntPoly in a canonical
form, so equality is plain structural equality.

Values meet only values of their own kind: an int is not a constant
polynomial, and a polynomial is not a RatFn, neither as an arithmetic
operand nor in a comparison; RatFn(p) turns an IntPoly p into one.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd
from typing import Mapping


class IntPoly:
    """Polynomial in x with integer coefficients, exponents >= 0."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        d = {} if coeffs is None else {e: c for e, c in coeffs.items() if c != 0}
        for e, c in d.items():
            if not isinstance(e, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be int")
            if e < 0:
                raise ValueError(f"negative exponent {e} in a polynomial")
        self._c = d

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._c)

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    @property
    def degree(self) -> int:
        """Largest exponent; -1 for the zero polynomial (by convention)."""
        return max(self._c) if self._c else -1

    @property
    def leading(self) -> int:
        return self._c[max(self._c)] if self._c else 0

    def content(self) -> int:
        """gcd of the coefficients, 0 for the zero polynomial."""
        g = 0
        for c in self._c.values():
            g = gcd(g, abs(c))
        return g

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def _binop(self, other, fn):
        if not isinstance(other, IntPoly):
            return NotImplemented
        out = dict(self._c)
        for e, c in other._c.items():
            out[e] = fn(out.get(e, 0), c)
        return IntPoly(out)

    def __add__(self, other):
        return self._binop(other, operator.add)

    def __sub__(self, other):
        return self._binop(other, operator.sub)

    def __neg__(self):
        return IntPoly({e: -c for e, c in self._c.items()})

    def __mul__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return IntPoly(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly({0: 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        return f"IntPoly({self._c!r})"

    def __str__(self) -> str:
        return format_poly(self)


ONE = IntPoly({0: 1})
ZERO = IntPoly()
X = IntPoly({1: 1})


def poly_divexact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact division a / b in Z[x].

    Raises ArithmeticError when the division is not exact: every caller
    divides by a factor it has just computed, so a remainder is an
    internal fault, not bad input.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return ZERO
    rem = {e: Fraction(c) for e, c in a.coeffs.items()}
    quot: dict[int, Fraction] = {}
    bd = b.degree
    blead = b.coeff(bd)
    bitems = [(e, c) for e, c in b.coeffs.items()]
    while rem:
        d = max(rem)
        if d < bd:
            raise ArithmeticError("inexact polynomial division (remainder)")
        q = rem[d] / blead
        quot[d - bd] = q
        for e, c in bitems:
            e2 = e + d - bd
            v = rem.get(e2, Fraction(0)) - q * c
            if v:
                rem[e2] = v
            else:
                rem.pop(e2, None)
    out: dict[int, int] = {}
    for e, c in quot.items():
        if c.denominator != 1:
            raise ArithmeticError("inexact polynomial division (non-integer quotient)")
        out[e] = c.numerator
    return IntPoly(out)


def primitive_part(p: IntPoly) -> IntPoly:
    """p divided by its content, sign fixed so the leading coefficient is > 0."""
    if p.is_zero():
        return ZERO
    c = p.content()
    if p.leading < 0:
        c = -c
    return IntPoly({e: v // c for e, v in p.coeffs.items()})


def _dense(c: dict[int, int], low: int) -> list[int]:
    """Coefficients of c / x^low, highest exponent first, content removed."""
    u = [c.get(e, 0) for e in range(max(c), low - 1, -1)]
    k = gcd(*u)
    return [x // k for x in u]


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[x] (leading coefficient positive); gcd(0,0) = 0.

    gcd(a, 0) is primitive_part(a), and a nonzero constant argument gives
    ONE.  The power of x is split off first: x^min(low(a), low(b)) times
    the gcd of what is left, which x does not divide.  That gcd is a
    primitive PRS over Z[x] (Geddes, Czapor and Labahn, Algorithms for
    Computer Algebra, ch. 7): integer pseudo-remainders, each divided by
    its content, until one vanishes, or is a constant, when the gcd is 1.
    Each pseudo-division step multiplies u by lc(v)/k and subtracts
    u[0]/k times the shifted v, with k = gcd(lc(v), u[0]); the content
    step absorbs these scalars, so no Fraction is formed.
    """
    ca, cb = a._c, b._c
    if not ca or not cb:
        return primitive_part(a if ca else b)
    if max(ca) == 0 or max(cb) == 0:
        return ONE
    la, lb = min(ca), min(cb)
    u, v = _dense(ca, la), _dense(cb, lb)
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        lv, tail = v[0], v[1:]
        n = len(tail)
        while len(u) > n:
            k = gcd(lv, u[0])
            s, t = lv // k, u[0] // k
            u = [s * x - t * y for x, y in zip(u[1 : n + 1], tail)] + [s * x for x in u[n + 1 :]]
        while u and not u[0]:
            u = u[1:]
        if not u:
            break
        k = gcd(*u)
        u, v = v, [x // k for x in u]
    low = min(la, lb)
    if len(v) == 1:
        return IntPoly({low: 1})
    if v[0] < 0:
        v = [-x for x in v]
    top = low + len(v) - 1
    return IntPoly({top - i: x for i, x in enumerate(v) if x})


class RatFn:
    """Reduced fraction of integer polynomials.

    Canonical form: num/den coprime over the rationals, the pair jointly
    primitive (no common integer factor), den leading coefficient positive.
    On every value this package produces the denominator ends up with
    content 1 (its constant term is a unit).

    Every value is built reduced: num and den are divided by their
    poly_gcd (an integer primitive PRS) when it is not a constant, then by
    their common integer content.  + - * / take two RatFn and form the
    unreduced num/den from them, reduced the same way; any other operand
    gives NotImplemented, so wrap a polynomial p as RatFn(p) first.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly = ONE):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", ZERO)
            object.__setattr__(self, "den", ONE)
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        k = gcd(num.content(), den.content())
        if den.leading < 0:
            k = -k
        if k != 1:
            num = IntPoly({e: c // k for e, c in num.coeffs.items()})
            den = IntPoly({e: c // k for e, c in den.coeffs.items()})
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFn is immutable")

    def is_polynomial(self) -> bool:
        return self.den == ONE

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatFn):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other):
        if not isinstance(other, RatFn):
            return NotImplemented
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        if not isinstance(other, RatFn):
            return NotImplemented
        return RatFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        if not isinstance(other, RatFn):
            return NotImplemented
        return RatFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not isinstance(other, RatFn):
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __repr__(self) -> str:
        return f"RatFn({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.is_polynomial():
            return format_poly(self.num)
        return f"({format_poly(self.num)}) / ({format_poly(self.den)})"


def series_coeffs(f: RatFn, m: int) -> list[int]:
    """Taylor coefficients c_0..c_m of f at the origin, exact integers.

    Requires den(0) != 0, i.e. no pole at the origin.  Each step divides
    exactly by den(0); a coefficient that is not an integer raises
    ArithmeticError.  Every H has den(0) = +-1, so its series never does.
    """
    d0 = f.den.coeff(0)
    if d0 == 0:
        raise ValueError("pole at the origin, no Taylor series")
    out: list[int] = []
    for k in range(m + 1):
        acc = f.num.coeff(k)
        for i in range(1, k + 1):
            di = f.den.coeff(i)
            if di:
                acc -= di * out[k - i]
        c, r = divmod(acc, d0)
        if r:
            raise ArithmeticError(f"coefficient {k} of the series of {f} is not an integer")
        out.append(c)
    return out


# --- text format -------------------------------------------------------------
#
# How str() writes a polynomial: terms in descending exponent order,
# " + " / " - " separators, unit coefficients elided on x terms:
# "6x^4 + 4x^3 + x^2 - 1".  Only the tests read it back (tests/oracles.py).


def format_poly(p: IntPoly) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for e in sorted(p.coeffs, reverse=True):
        c = p.coeff(e)
        sign = "-" if c < 0 else "+"
        a = abs(c)
        if e == 0:
            body = str(a)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            body = xs if a == 1 else f"{a}{xs}"
        parts.append((sign, body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# --- JSON form ---------------------------------------------------------------


def poly_to_json(p: IntPoly) -> dict:
    return {"coeffs": {str(e): str(c) for e, c in sorted(p.coeffs.items(), reverse=True)}}


def ratfn_to_json(f: RatFn) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}

