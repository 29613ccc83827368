"""Exact-solve throughput on the primitive necklace families.

Runs limits.h_limit on every primitive necklace of size 3..TOP_SIZE (B, W
and BW, the shorter ones, have no closing system) and prints the family
count and the best-of-N seconds for the whole sweep, then the best-of-N
seconds of limits.assemble_system alone over the same families (the
tree expansion, without the solve).  It then counts the polyrat.poly_gcd
calls of one more sweep, the reduction RatFn makes of every value it
builds, and the share of them that found a non-constant gcd.

Every H must be right: a family of the appendix table (golden.h_table(),
matched by canonical rotation) must give its tabulated H, and every
family's H(0) must equal its number of distinct rotations.  The script
exits non-zero when one does not.

    python3 benchmarks/bench_hlimit.py [--repeat N]
"""

import argparse
import time
from fractions import Fraction

from bsol import limits, polyrat
from bsol.golden import h_table
from bsol.necklaces import canonical, distinct_rotations, is_primitive, necklace_representatives

TOP_SIZE = 9


def families() -> list[str]:
    return [
        w for m in range(3, TOP_SIZE + 1) for w in necklace_representatives(m) if is_primitive(w)
    ]


def sweep(words) -> tuple[float, list]:
    t0 = time.perf_counter()
    results = [limits.h_limit(w) for w in words]
    return time.perf_counter() - t0, results


def assembly(words) -> float:
    t0 = time.perf_counter()
    for w in words:
        limits.assemble_system(w)
    return time.perf_counter() - t0


def gcd_calls(words) -> tuple[int, int]:
    """(poly_gcd calls, calls with a non-constant gcd) in one sweep."""
    calls = nontrivial = 0
    plain = polyrat.poly_gcd

    def counted(a, b):
        nonlocal calls, nontrivial
        g = plain(a, b)
        calls += 1
        nontrivial += g.degree > 0
        return g

    polyrat.poly_gcd = counted
    try:
        for w in words:
            limits.h_limit(w)
    finally:
        polyrat.poly_gcd = plain
    return calls, nontrivial


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3, help="best-of runs")
    args = ap.parse_args()

    words = families()
    table = {canonical(e.necklace): e.ratfn() for e in h_table()}
    print(f"{len(words)} families of size 3-{TOP_SIZE}")
    best, results = min(sweep(words) for _ in range(args.repeat))
    compared = 0
    for w, h in zip(words, results):
        want = table.get(w)
        if want is not None:
            compared += 1
            if h != want:
                raise SystemExit(f"H of {w} is {h}; the table has {want}")
        h0 = Fraction(h.num.coeff(0), h.den.coeff(0))
        if h0 != len(distinct_rotations(w)):
            raise SystemExit(f"H(0) of {w} is {h0}; it has {len(distinct_rotations(w))} rotations")
    best_col = f"best of {args.repeat} (s)"
    header = f"{'families':>8} {'tabulated':>9} {best_col:>14} {'ms/family':>10}"
    print(header)
    print("-" * len(header))
    print(f"{len(words):>8} {compared:>9} {best:14.3f} {1000 * best / len(words):10.2f}")
    assemble_best = min(assembly(words) for _ in range(args.repeat))
    print(f"assemble_system: best of {args.repeat} {assemble_best:.3f} s")
    calls, nontrivial = gcd_calls(words)
    print(f"poly_gcd: {calls} calls, {nontrivial} ({nontrivial / calls:.1%}) non-constant")


if __name__ == "__main__":
    main()
