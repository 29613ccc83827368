"""Independent references and the checkers that compare results to them.

Nothing here imports bsol.  Partitions, necklaces, the forward move and
the polynomial arithmetic are written out again, so a fault in the
program cannot hide by agreeing with itself.  Every checker returns a list
of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from pathlib import Path

# --- published tables ----------------------------------------------------------


def golden_dir(root: Path) -> Path:
    return root / "src" / "bsol" / "golden"


def size_table(root: Path) -> list[dict]:
    """Growth rows |orbit(P^k)| = first * c^(k-1), as published."""
    rows = json.loads((golden_dir(root) / "appendix_sizes.json").read_text())["rows"]
    return [
        {
            "necklace": r["necklace"],
            "size": r["size"],
            "first": int(r["first"]),
            "c": int(r["c"]),
            "verified_k": r["verified_k"],
        }
        for r in rows
    ]


def h_table(root: Path) -> dict[str, tuple[list[int], list[int]]]:
    """Appendix H = (1-x) num/den, keyed by canonical rotation."""
    data = json.loads((golden_dir(root) / "appendix_h.json").read_text())
    return {
        canonical(r["necklace"]): (
            mul([1, -1], [int(c) for c in r["num"]]),
            [int(c) for c in r["den"]],
        )
        for r in data["families"]
    }


def tabulated_size(row: dict, k: int) -> int:
    return row["first"] * row["c"] ** (k - 1)


# --- dense integer polynomials, lowest degree first ----------------------------


def trim(p: list[int]) -> list[int]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def add(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def neg(a: list[int]) -> list[int]:
    return [-c for c in a]


def mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def same_ratio(n1: list[int], d1: list[int], n2: list[int], d2: list[int]) -> bool:
    """n1/d1 == n2/d2, by cross-multiplication."""
    return mul(n1, d2) == mul(n2, d1)


def taylor(num: list[int], den: list[int], m: int) -> list[Fraction]:
    """Coefficients 0..m of num/den at the origin."""
    d0 = den[0] if den else 0
    if d0 == 0:
        raise ValueError("pole at the origin")
    out: list[Fraction] = []
    for k in range(m + 1):
        acc = Fraction(num[k] if k < len(num) else 0)
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
        out.append(acc / d0)
    return out


def ratfn_sum(terms: list[tuple[list[int], list[int]]]) -> tuple[list[int], list[int]]:
    """Sum of num/den terms over the product of their distinct denominators."""
    by_den: dict[tuple[int, ...], list[int]] = {}
    for num, den in terms:
        key = tuple(den)
        by_den[key] = add(by_den.get(key, []), num)
    num, den = [], [1]
    for d, n in by_den.items():
        num = add(mul(num, list(d)), mul(n, den))
        den = mul(den, list(d))
    return num, den


# --- partitions, the move, necklaces -------------------------------------------


def partitions(n: int):
    """Every partition of n as a weakly decreasing tuple."""
    def rec(rest: int, cap: int, prefix: tuple[int, ...]):
        if rest == 0:
            yield prefix
            return
        for p in range(min(rest, cap), 0, -1):
            yield from rec(rest - p, p, prefix + (p,))

    return rec(n, n, ())


def forward(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Take one chip from every pile and stack them as a new pile."""
    return tuple(sorted([p - 1 for p in parts if p > 1] + [len(parts)], reverse=True))


def word_partition(word: str) -> tuple[int, ...]:
    """Row i of m holds m - i chips, one more on a B row; an empty last row is dropped."""
    m = len(word)
    return tuple(p for p in (m - i + (ch == "B") for i, ch in enumerate(word, 1)) if p)


def chips(word: str) -> int:
    m = len(word)
    return m * (m - 1) // 2 + word.count("B")


def canonical(word: str) -> str:
    return min(word[i:] + word[:i] for i in range(len(word)))


def is_primitive(word: str) -> bool:
    return (word + word).find(word, 1) == len(word)


def primitive_necklaces(size: int) -> list[str]:
    """Canonical words of the primitive binary necklaces of this length."""
    words = {canonical(format(b, f"0{size}b").replace("0", "B").replace("1", "W"))
             for b in range(2**size)}
    return sorted(w for w in words if is_primitive(w))


def necklace_count(size: int) -> int:
    """All binary necklaces of this length, primitive or not."""
    return len({canonical(format(b, f"0{size}b")) for b in range(2**size)})


def dual(word: str) -> str:
    return canonical(word[::-1].translate(str.maketrans("BW", "WB")))


class BasinCensus:
    """Level censuses of every cycle on n chips, by running the move forward.

    Each partition of n walks forward until it meets a state whose cycle
    and distance are known, or closes a new cycle.  The census of a cycle
    counts its basin by distance to the cycle, which is what a reverse
    search from the cycle reports level by level.
    """

    def __init__(self, n: int):
        self.levels: dict[int, list[int]] = {}
        cycle_of: dict[tuple[int, ...], int] = {}
        dist: dict[tuple[int, ...], int] = {}
        for start in partitions(n):
            path: list[tuple[int, ...]] = []
            index: dict[tuple[int, ...], int] = {}
            cur = start
            while cur not in dist and cur not in index:
                index[cur] = len(path)
                path.append(cur)
                cur = forward(cur)
            if cur in index:  # the walk closed a new cycle through cur
                label = len(self.levels)
                self.levels[label] = []
                for s in path[index[cur]:]:
                    cycle_of[s], dist[s] = label, 0
                del path[index[cur]:]
            label, d = cycle_of[cur], dist[cur]
            for s in reversed(path):
                d += 1
                cycle_of[s], dist[s] = label, d
        self.cycle_of = cycle_of
        for s, label in cycle_of.items():
            lv = self.levels[label]
            while len(lv) <= dist[s]:
                lv.append(0)
            lv[dist[s]] += 1

    def census(self, word: str) -> list[int]:
        return self.levels[self.cycle_of[word_partition(word)]]


# The forward-move reference enumerates every partition of n; p(45) is
# about 89 thousand, so orbits of at most this many chips are checked.
MAX_REFERENCE_CHIPS = 45


class References:
    """Basin censuses by chip count, computed once per run."""

    def __init__(self):
        self._basins: dict[int, BasinCensus] = {}

    def census(self, word: str) -> list[int]:
        n = chips(word)
        if n not in self._basins:
            self._basins[n] = BasinCensus(n)
        return self._basins[n].census(word)


# --- census --------------------------------------------------------------------


def check_census(op: dict, rec: dict, rows: dict[str, dict], refs: References) -> list[str]:
    """One c_ratio_probe row: sizes from the table, ratio c, small level censuses."""
    word, top = op["necklace"], op["max_power"]
    res = rec.get("result")
    if res is None:
        return [f"{word}: {rec.get('error')}"]
    row = rows[word]
    want = [tabulated_size(row, k) for k in range(1, top + 1)]
    problems = []
    if res["skipped"]:
        problems.append(f"{word}: powers {res['skipped']} skipped under the ceiling")
    if list(res["sizes"]) != want:
        problems.append(f"{word}: sizes {res['sizes']} != table {want}")
    want_ratio = row["c"] if top >= 2 else None
    if res["ratio"] != want_ratio:
        problems.append(f"{word}: ratio {res['ratio']} != {want_ratio}")
    for k, levels in rec.get("levels", {}).items():
        ref = refs.census(word * int(k))
        if list(levels) != ref:
            problems.append(f"{word}^{k}: levels {levels} != forward-move census {ref}")
        elif sum(ref) != tabulated_size(row, int(k)):
            problems.append(f"{word}^{k}: forward-move census disagrees with the table")
    return problems


# --- hlimit --------------------------------------------------------------------


def check_hlimit(op: dict, rec: dict, appendix: dict, series: dict | None) -> list[str]:
    """One h_limit family: appendix form, H(0), residual of the solve, series."""
    word = op["necklace"]
    if rec.get("error"):
        return [f"{word}: {rec['error']}"]
    num, den = rec["h"]["num"], rec["h"]["den"]
    problems = []
    if not den or den[0] == 0:
        return [f"{word}: H has a pole at the origin"]
    rotations = len({word[i:] + word[:i] for i in range(len(word))})
    if Fraction(num[0] if num else 0, den[0]) != rotations:
        problems.append(f"{word}: H(0) != {rotations} rotations")
    form = appendix.get(canonical(word))
    if form is not None and not same_ratio(num, den, *form):
        problems.append(f"{word}: H differs from the appendix form")
    system = rec.get("system")
    if system is None:
        problems.append(f"{word}: no solved system to check")
    else:
        problems += _residual_problems(word, system, num, den)
    if series is not None:
        got = [int(c) for c in taylor(num, den, len(series["coeffs"]) - 1)]
        if not series["stabilized"] or got != series["coeffs"]:
            problems.append(
                f"{word}: Taylor coefficients {got} != stabilized series {series['coeffs']}"
            )
    return problems


def _residual_problems(word: str, system: dict, h_num: list[int], h_den: list[int]) -> list[str]:
    """(I - M) g == A exactly, and H == (1 - x) * sum of the rotation g's."""
    A, M, g = system["A"], system["M"], system["g"]
    n = len(A)
    problems = []
    for i in range(n):
        terms = [(mul(neg(M[i][j]), g[j][0]), g[j][1]) for j in range(n) if M[i][j]]
        terms.append((g[i][0], g[i][1]))
        lhs_num, lhs_den = ratfn_sum(terms)
        if lhs_num != mul(A[i], lhs_den):
            problems.append(f"{word}: row {i} of (I - M) g = A fails")
    s_num, s_den = ratfn_sum([(g[i][0], g[i][1]) for i in range(system["n_roots"])])
    if not same_ratio(h_num, h_den, mul([1, -1], s_num), s_den):
        problems.append(f"{word}: H != (1 - x) * sum of the rotation unknowns")
    return problems


# --- session -------------------------------------------------------------------


def _poly_json(obj: dict) -> list[int]:
    coeffs = {int(e): int(c) for e, c in obj["coeffs"].items()}
    if not coeffs:
        return []
    return trim([coeffs.get(e, 0) for e in range(max(coeffs) + 1)])


def u_reference(k: int) -> list[int]:
    """Play sequences of a k-fuse by length: weak compositions of i with k-i zeros."""
    return [
        1 if i == 0 else sum(comb(i - 1, j - 1) * comb(j + k - i, k - i) for j in range(1, i + 1))
        for i in range(k + 1)
    ]


def check_session(op: dict, rec: dict, ctx: dict) -> list[str]:
    """One bs invocation against what that command should return."""
    kind, want = op["check"], op["expect"]
    label = " ".join(op["args"])
    if rec.get("error"):
        return [f"{label}: {rec['error']}"]
    problems = []
    if rec["exit"] != want["exit"]:
        problems.append(f"{label}: exit {rec['exit']} != {want['exit']}")
    report = rec.get("report")
    if want.get("status") is None:
        if report is not None:
            problems.append(f"{label}: printed a report for a usage error")
        return problems
    if report is None:
        return problems + [f"{label}: no JSON report"]
    if report.get("status") != want["status"]:
        problems.append(f"{label}: status {report.get('status')!r} != {want['status']!r}")
    if report.get("command") != want["command"]:
        problems.append(f"{label}: command {report.get('command')!r} != {want['command']!r}")
    return problems + SESSION_CHECKS[kind](op, report, ctx)


def _table_size(ctx: dict, word: str, k: int) -> int:
    return tabulated_size(ctx["rows"][word], k)


def _chk_orbit(op, rep, ctx):
    want = _table_size(ctx, op["necklace"], op["power"])
    return [] if int(rep["size"]) == want else [f"orbit size {rep['size']} != table {want}"]


def _chk_dseries(op, rep, ctx):
    coeffs = [int(c) for c in rep["d_series"]]
    problems = []
    want = _table_size(ctx, op["necklace"], op["power"])
    if sum(coeffs) != want or int(rep["size"]) != want:
        problems.append(f"dseries total {sum(coeffs)} != table {want}")
    word = op["necklace"] * op["power"]
    if chips(word) <= MAX_REFERENCE_CHIPS and coeffs != ctx["refs"].census(word):
        problems.append("dseries levels differ from the forward-move census")
    pair = ctx["orbit_reports"].get((op["necklace"], op["power"]))
    if pair is not None and (int(pair["size"]) != sum(coeffs) or pair["depth"] != len(coeffs) - 1):
        problems.append("build_orbit size or depth differs from the dseries levels")
    return problems


def _chk_capped_dseries(op, rep, ctx):
    sizes = next((rep[k] for k in ("d_series", "level_sizes", "sizes") if k in rep), None)
    if sizes is None:
        return ["capped report carries no completed level sizes"]
    sizes = [int(c) for c in sizes]
    full = ctx["refs"].census(op["necklace"] * op["power"])
    if not sizes or sizes != full[: len(sizes)] or len(sizes) == len(full):
        return [f"capped levels {sizes} are not a proper prefix of the census {full}"]
    return []


def _chk_hseries(op, rep, ctx):
    num, den = ctx["appendix"][canonical(op["necklace"])]
    want = [int(c) for c in taylor(num, den, op["coeffs"])]
    got = [int(c) for c in rep["coefficients"]]
    return [] if got == want and rep["stabilized"] else [f"hseries {got} != appendix series {want}"]


def _chk_cratio(op, rep, ctx):
    row = ctx["rows"][op["necklace"]]
    got = [int(r["size"]) for r in rep["rows"]]
    want = [tabulated_size(row, k) for k in range(1, op["max_k"] + 1)]
    problems = [] if got == want else [f"cratio sizes {got} != table {want}"]
    if rep["ratio"] is None or int(rep["ratio"]) != row["c"]:
        problems.append(f"cratio ratio {rep['ratio']} != {row['c']}")
    return problems


def _chk_hlimit(op, rep, ctx):
    num, den = _poly_json(rep["h"]["num"]), _poly_json(rep["h"]["den"])
    want = ctx["appendix"][canonical(op["necklace"])]
    problems = [] if same_ratio(num, den, *want) else ["hlimit differs from the appendix form"]
    series = [int(c) for c in rep["series"]]
    if series != [int(c) for c in taylor(*want, len(series) - 1)]:
        problems.append("hlimit series differs from the appendix expansion")
    return problems


def _chk_nothing(op, rep, ctx):
    return []


def _chk_ufuse(op, rep, ctx):
    problems = []
    for k, (u, v) in enumerate(zip(rep["u"], rep["v_normalized"])):
        if _poly_json(u) != u_reference(k):
            problems.append(f"u_{k} differs from the composition count")
        want_v = {}
        for t in range(k + 1):
            for i, c in enumerate(u_reference(t)):
                want_v[i - t] = want_v.get(i - t, 0) + c
        got_v = {int(e): int(c) for e, c in v["coeffs"].items()}
        if got_v != {e: c for e, c in want_v.items() if c}:
            problems.append(f"v_{k} differs from the partial sums of u")
    if len(rep["u"]) != op["max_k"] + 1:
        problems.append("ufuse returned the wrong number of polynomials")
    return problems


def _chk_tables(op, rep, ctx):
    problems = []
    rows = [r for r in ctx["rows"].values() if r["size"] <= op["max_size"]]
    if [r["necklace"] for r in rep["size_rows"]] != [r["necklace"] for r in rows]:
        problems.append("tables lists other size rows than the published table")
    for got in rep["size_rows"]:
        row = ctx["rows"][got["necklace"]]
        want = [tabulated_size(row, k) for k in range(1, op["max_power"] + 1)]
        if [int(c) for c in got["counts"]] != want:
            problems.append(f"tables counts of {got['necklace']} != first*c^(k-1)")
    for got in rep["h_rows"]:
        num = [int(c) for c in got["num"]]
        den = [int(c) for c in got["den"]]
        if not same_ratio(mul([1, -1], num), den, *ctx["appendix"][canonical(got["necklace"])]):
            problems.append(f"tables H row of {got['necklace']} differs")
    return problems


def _chk_thm12(op, rep, ctx):
    bad = [r["pair"] for r in rep["results"] if not (r["isomorphic"] and r["equal_h"])]
    return [f"thm12 fails on {bad}"] if bad else []


def _chk_thm13(op, rep, ctx):
    bad = [r["k"] for r in rep["results"] if not (r["equal"] and r["degree"] == r["k"] + 1)]
    return [f"thm13 fails at k={bad}"] if bad else []


def _chk_conj11(op, rep, ctx):
    names = ctx["appendix"]
    pairs = {frozenset((w, dual(w))) for w in names if dual(w) != w and dual(w) in names}
    problems = [] if rep["pairs"] == len(pairs) else [f"conj11 checked {rep['pairs']} pairs, table has {len(pairs)}"]
    if not all(r["equal_denominator"] for r in rep["results"]):
        problems.append("conj11 reports a dual pair with different denominators")
    return problems


def _chk_conj64(op, rep, ctx):
    groups: dict[tuple[int, int], int] = {}
    for r in ctx["rows"].values():
        groups[(r["size"], r["c"])] = groups.get((r["size"], r["c"]), 0) + 1
    want = sum(1 for n in groups.values() if n >= 2)
    problems = [] if len(rep["results"]) == want else [f"conj64 has {len(rep['results'])} groups, table {want}"]
    if not all(r.get("equal_denominator") for r in rep["results"]):
        problems.append("conj64 reports a group without a shared denominator")
    return problems


def _chk_lemma216(op, rep, ctx):
    return [] if rep["holds"] is True else ["lemma216 does not hold"]


def _chk_brandt(op, rep, ctx):
    want = sum(necklace_count(m) for m in range(1, op["max_size"] + 1))
    problems = [] if rep["checked"] == want else [f"brandt checked {rep['checked']} necklaces, expected {want}"]
    if rep["mismatches"]:
        problems.append("brandt reports mismatches")
    return problems


SESSION_CHECKS = {
    "orbit": _chk_orbit,
    "dseries": _chk_dseries,
    "capped_dseries": _chk_capped_dseries,
    "hseries": _chk_hseries,
    "cratio": _chk_cratio,
    "hlimit": _chk_hlimit,
    "non_closing": _chk_nothing,
    "usage_error": _chk_nothing,
    "ufuse": _chk_ufuse,
    "tables": _chk_tables,
    "thm12": _chk_thm12,
    "thm13": _chk_thm13,
    "conj11": _chk_conj11,
    "conj64": _chk_conj64,
    "lemma216": _chk_lemma216,
    "brandt": _chk_brandt,
}
