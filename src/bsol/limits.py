"""Limiting forests over infinite boards and their generating functions.

Each primitive necklace has one recurrent board per distinct rotation.  The
reverse-move tree above each of those boards, with every run in front of
a wall collapsed to a single node weighted by its census factor
(_census_py.run_levels; a fuse's is u_k), is finite whenever the family
closes; the per-level counts g_i then satisfy a linear system over Z[x].
Solving it and summing gives the limit series of the orbit sizes,
H(x) = (1 - x) * sum_i g_i(x).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import NonClosingError, murep
from ._census_py import run_levels
from .fuse import v_norm
from .murep import BAR_WINDOW, InfSeq, drop_head, inf_move
from .necklaces import canonical, check_word, distinct_rotations, rotate_right
from .polyrat import ONE, RatFn, IntPoly, X, ZERO


def family_words(word: str) -> list[str]:
    """Distinct left rotations, starting from the word itself.

    The order matters: the cycle child of the board of rotation i is the
    board of rotation i+1, so rows come out as g_i = 1 + x g_{i+1} + ...
    Left rotations are the right ones taken backwards.
    """
    w = check_word(word)
    return [w] + distinct_rotations(w)[:0:-1]


def family_roots(word: str) -> tuple[list[str], list[InfSeq]]:
    """family_words(word) and the recurrent board of each, in that order.

    One murep.recurrent_elements call reads every rotation's board off the
    word and checks the cycle moves between them once for the family.
    """
    words = family_words(word)
    boards = murep.recurrent_elements(words[0])
    return words, [boards[w] for w in words]


def default_depth_cap(n: int) -> int:
    """Level at which a branch is non-closing; closing families of size 3-11 need n - 1."""
    return 4 * n + 8


def _wall_head(s: InfSeq) -> int | None:
    """Length t of the head in front of the board's first barred wall.

    A wall is a barred entry of value >= BAR_WINDOW.  The bars are the
    nonzero entries up to the board's bound, and the wall lies within
    it, so the head, positions 1..t, holds only zeros and barred
    sub-window values: no later move can re-bar a head entry.  Returns
    t >= 0, or None when no entry up to the bound is a wall; t = 0 is a
    wall at the front, a 1-fuse.
    """
    for t, v in enumerate(s.prefix[: s.bound]):
        if v >= BAR_WINDOW:
            return t
    return None


@functools.cache
def _run_factor(head: tuple[int, ...]) -> IntPoly:
    """g([head wall nu]) / g(nu), for the values head in front of a wall.

    The head and the wall are a census run (_census_py): the board's
    entries are birth gaps and its bars the births to undo, so the
    len(head) + 1 births up to the wall are all to undo, a zero gap
    joining two equal births, and the wall puts the next birth more than
    2 past them.  A move at or left of the wall kills every bar behind it,
    as the re-bar window cannot see past a wall, so the run burns
    independently of what follows.  A k-fuse's head is k - 1 ones and
    twos, no two ones adjacent, and its factor is u_k.
    """
    return IntPoly(dict(enumerate(run_levels(head, len(head) + 1))))


def _expand_row(
    word: str, i: int, roots: list[InfSeq], key_of: dict[InfSeq, int]
) -> tuple[IntPoly, list[IntPoly]]:
    """(A[i], M[i]): the reverse-move tree above roots[i], collapsed.

    A node equal to a root's board, bars included, is a match.  Other
    nodes are first head-reduced: a run up to a wall factors out per
    _run_factor and is dropped, which strictly shortens the board.
    """
    depth_cap = default_depth_cap(len(word))
    constant = ZERO
    row = [ZERO] * len(roots)

    def visit(s: InfSeq, level: int, w: IntPoly, branch: tuple[int, ...]) -> None:
        nonlocal constant
        # head reductions: each pass either matches a root and adds to its
        # row entry, or strips a factorable head and keeps going on
        # the shortened board, with the factor folded into the weight
        while level > 0:
            j = key_of.get(s)
            if j is not None:
                row[j] = row[j] + w * X**level
                return
            t = _wall_head(s)
            if t is None:
                break
            w = w * _run_factor(s.prefix[:t])
            s = drop_head(s, t + 1)
        constant = constant + w * X**level
        if level >= depth_cap:
            raise NonClosingError(word, i, branch)
        for j in s.bars():
            visit(inf_move(s, j), level + 1, w, branch + (j,))

    visit(roots[i], 0, ONE, ())
    return constant, row


@dataclass
class LinearSystem:
    """g_i = A[i] + sum_j M[i][j] g_j over Z[x].

    Entries have coefficients >= 0 and M entries are divisible by x.  The
    unknowns are the rotations' boards, in family_words order.  aux is
    always empty; it stays for the trace counters that read it.
    """

    words: list[str]
    aux: list[InfSeq]
    A: list[IntPoly]
    M: list[list[IntPoly]]

    @property
    def n_roots(self) -> int:
        return len(self.words)

    @property
    def n(self) -> int:
        return len(self.A)


def assemble_system(word: str) -> LinearSystem:
    """Expand the reverse-move tree of every rotation of the family of `word`.

    Nodes are matched exactly, bars included, against the rotations' boards,
    which hold only the values 0, 1 and 2.  A match adds the accumulated
    weight times x^level to M[i][j].  An unmatched run in front of a wall
    factors out of the subtree sum and the expansion continues on the
    shortened board with the factor folded into the weight.  Every other
    node adds its weight times x^level to A[i] and is expanded further,
    down to default_depth_cap.
    """
    words, roots = family_roots(word)
    key_of = {r: i for i, r in enumerate(roots)}
    rows = [_expand_row(word, i, roots, key_of) for i in range(len(roots))]
    return LinearSystem(words, [], [a for a, _ in rows], [m for _, m in rows])


# --- exact solve ----------------------------------------------------------------


def solve_system(sys: LinearSystem) -> list[RatFn]:
    """Solve (I - M) g = A exactly.

    Fraction-free (Bareiss) forward elimination over Z[x], then
    back-substitution in the rational-function field, where each IntPoly
    entry enters as RatFn(entry): RatFn arithmetic takes only RatFn.

    No pivoting is needed: every M entry is divisible by x, so each pivot,
    a leading principal minor of I - M, is 1 at x = 0; one that is not
    raises ArithmeticError.
    """
    from .polyrat import poly_divexact

    n = sys.n
    B: list[list[IntPoly]] = [
        [(ONE if i == j else ZERO) - sys.M[i][j] for j in range(n)] + [sys.A[i]]
        for i in range(n)
    ]
    prev = ONE
    for k in range(n):
        lead = B[k][k].coeff(0)
        if lead != 1:
            raise ArithmeticError(f"pivot {k + 1} of the {sys.words[0]} system is {lead} at x = 0")
        for r in range(k + 1, n):
            for c in range(k + 1, n + 1):
                B[r][c] = poly_divexact(B[r][c] * B[k][k] - B[r][k] * B[k][c], prev)
            B[r][k] = ZERO
        prev = B[k][k]
    gs: list[RatFn] = [RatFn(ZERO)] * n
    for i in range(n - 1, -1, -1):
        acc: RatFn = RatFn(B[i][n])
        for j in range(i + 1, n):
            acc = acc - RatFn(B[i][j]) * gs[j]
        gs[i] = acc / RatFn(B[i][i])
    return gs


def h_limit(word: str) -> RatFn:
    """Closed form of the limit series of orbit sizes for the necklace family."""
    sys = assemble_system(word)
    gs = solve_system(sys)
    total = RatFn(ZERO)
    for g in gs[: sys.n_roots]:
        total = total + g
    h = RatFn(ONE - X) * total
    # H(0) counts the cycle's states; den(0) = 0 fails too, as num and den are coprime
    h0, d0 = h.num.coeff(0), h.den.coeff(0)
    if h0 != sys.n_roots * d0:
        raise ArithmeticError(
            f"H(0) = {h0}/{d0} for {word}, but the cycle has {sys.n_roots} states"
        )
    return h


# --- anchored reduction: the f, h, p coefficient extraction ----------------------


def reduce_system(
    sys: LinearSystem, anchor: int
) -> tuple[list[IntPoly], list[IntPoly], IntPoly, IntPoly] | None:
    """Substitute every non-anchor row into the anchor's.

    Requires the system to be triangular from the anchor: row anchor+d
    (cyclically) may reference only rows strictly farther from the anchor,
    plus the anchor itself.  Then every g_r = alpha[r] + beta[r] g_anchor
    with polynomial alpha, beta, and the anchor row collapses to
    g_a = const + self_coeff * g_a.  Returns (alpha, beta, self_coeff,
    const), or None if not triangular from this anchor.
    """
    n = sys.n
    order = [(anchor + d) % n for d in range(n)]
    pos = {r: t for t, r in enumerate(order)}
    for t in range(1, n):
        r = order[t]
        for j in range(n):
            if not sys.M[r][j].is_zero() and j != anchor and pos[j] <= t:
                return None
    alpha: list[IntPoly] = [ZERO] * n
    beta: list[IntPoly] = [ZERO] * n
    beta[anchor] = ONE
    for t in range(n - 1, 0, -1):
        r = order[t]
        a_acc, b_acc = sys.A[r], sys.M[r][anchor]
        for j in range(n):
            if j != anchor and not sys.M[r][j].is_zero():
                a_acc = a_acc + sys.M[r][j] * alpha[j]
                b_acc = b_acc + sys.M[r][j] * beta[j]
        alpha[r], beta[r] = a_acc, b_acc
    self_coeff, const = sys.M[anchor][anchor], sys.A[anchor]
    for j in range(n):
        if j != anchor and not sys.M[anchor][j].is_zero():
            const = const + sys.M[anchor][j] * alpha[j]
            self_coeff = self_coeff + sys.M[anchor][j] * beta[j]
    return alpha, beta, self_coeff, const


@functools.cache
def f_poly(n: int) -> IntPoly:
    """Denominator coefficient for the one-black family of size n+1.

    Satisfies g_1 = A + f_n g_1 in the B W^n system; computed by the
    even/odd recurrence from the bases f_2, f_3.  Each x^s v_i of the
    recurrence is X**(s - i) * v_norm(i), as v_norm(i) is x^i v_i.
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    if n == 2:
        return X**2 * v_norm(1)
    if n == 3:
        return X**3 * v_norm(1) + X**2 * v_norm(2)
    out = ZERO
    if n % 2 == 0:
        for i in range((n - 4) // 2 + 1):
            out = out + X ** (i + 1) * v_norm(i) * f_poly(n - (2 * i + 1))
        out = out + X ** (n // 2) * v_norm((n - 4) // 2) * f_poly(2)
        return out + X ** (n // 2 + 1) * v_norm(n // 2)
    for i in range((n - 3) // 2 + 1):
        out = out + X ** (i + 1) * v_norm(i) * f_poly(n - (2 * i + 1))
    return out + X ** ((n + 1) // 2) * v_norm((n + 1) // 2)


@functools.cache
def h_poly(n: int) -> IntPoly:
    """Coefficient h_n with g_2 = B + h_n g_1 in the W B^(n+1) system.

    Extracted from the assembled system: anchor at the all-blacks-first
    rotation, h_n is the anchor coefficient of the anchor's cycle child.
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    word = "B" * (n + 1) + "W"
    red = reduce_system(assemble_system(word), 0)
    if red is None:
        raise ArithmeticError(f"{word} system not triangular from its head")
    return red[1][1]


def p_poly(n: int) -> IntPoly:
    """Self-coefficient of the W B^n system: g_1 = A + p_n g_1.

    For n >= 4 it is the stated combination of the h's,
    h_(n+1) / x - x^2 v_1 h_(n-2); the division by x is exact, as every
    M entry, and so h, is divisible by x.  The two small cases are the
    known closed forms.
    """
    from .polyrat import poly_divexact

    if n < 2:
        raise ValueError("defined for n >= 2")
    if n == 2:
        return X**2 * v_norm(1)
    if n == 3:
        return X**3 * v_norm(1) + X**2 * v_norm(2)
    return poly_divexact(h_poly(n + 1), X) - X * v_norm(1) * h_poly(n - 2)


# --- theorem probes --------------------------------------------------------------


def _alternating_shift(word: str) -> str | None:
    """For words that are B(WB)^k or W(BW)^k up to rotation, the rotation
    convention that makes paired roots correspond; None otherwise."""
    n = len(word)
    if n % 2 == 0:
        return None
    k = n // 2
    if canonical(word) == canonical("B" + "WB" * k):
        return word
    if canonical(word) == canonical("W" + "BW" * k):
        return rotate_right(word, 1)
    return None


def verify_tree_isomorphism(word1: str, word2: str, depth: int) -> bool:
    """Do the paired reverse-move trees allow the same moves to `depth`?

    Roots are paired by cyclic position.  For the two alternating families
    the starting rotations are aligned first; other inputs are paired as
    given.  Checks that corresponding nodes have identical barred position
    sets, recursing move by move.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if len(word1) != len(word2):
        return False
    w1 = _alternating_shift(word1) or word1
    w2 = _alternating_shift(word2) or word2

    def same_tree(s1: InfSeq, s2: InfSeq, d: int) -> bool:
        if s1.bars() != s2.bars():
            return False
        if d == 0:
            return True
        return all(
            same_tree(inf_move(s1, j), inf_move(s2, j), d - 1) for j in s1.bars()
        )

    roots1 = family_roots(w1)[1]
    roots2 = family_roots(w2)[1]
    if len(roots1) != len(roots2):
        return False
    return all(same_tree(r1, r2, depth) for r1, r2 in zip(roots1, roots2))


def verify_same_denominator(word1: str, word2: str) -> dict:
    """Compare the closed forms of two families; reports, never asserts."""
    h1 = h_limit(word1)
    h2 = h_limit(word2)
    return {
        "equal_denominator": h1.den == h2.den,
        "equal_function": h1 == h2,
    }
