"""Exact-solve throughput on the primitive necklace families.

Runs limits.h_limit on every primitive necklace of size 3..TOP_SIZE (B, W
and BW, the shorter ones, have no closing system) N times and prints the
family count and the median seconds of the whole sweep with the first
and third quartiles of the N beside it, so that the spread between runs
shows, then the same three for limits.assemble_system alone over the
same families (the tree expansion, without the solve).  It then counts
the polyrat.poly_gcd calls of one more sweep, the reduction RatFn makes
of every value it builds, and the share of them that found a
non-constant gcd.

Every H must be right: a family of the appendix table (golden.h_table(),
matched by canonical rotation) must give its tabulated H, and every
family's H(0) must equal its number of distinct rotations.  The script
exits non-zero when one does not.

    python3 benchmarks/bench_hlimit.py [--repeat N]
"""

import argparse
import time
from fractions import Fraction

from spread import quartiles

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
    ap.add_argument("--repeat", type=int, default=5, help="runs of each sweep")
    args = ap.parse_args()
    if args.repeat < 1:
        raise SystemExit("--repeat must be at least 1")

    words = families()
    table = {canonical(e.necklace): e.ratfn() for e in h_table()}
    print(f"{len(words)} families of size 3-{TOP_SIZE}")
    runs = [sweep(words) for _ in range(args.repeat)]
    results = runs[0][1]
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
    q1, median, q3 = quartiles([seconds for seconds, _ in runs])
    header = (
        f"{'families':>8} {'tabulated':>9} {'s q1':>7} {'s median':>8} {'s q3':>7}"
        f" {'ms/family at median':>19}"
    )
    print(f"{args.repeat} runs of each sweep")
    print(header)
    print("-" * len(header))
    print(
        f"{len(words):>8} {compared:>9} {q1:7.3f} {median:8.3f} {q3:7.3f}"
        f" {1000 * median / len(words):19.2f}"
    )
    q1, median, q3 = quartiles([assembly(words) for _ in range(args.repeat)])
    print(f"assemble_system: q1 {q1:.3f} s, median {median:.3f} s, q3 {q3:.3f} s")
    calls, nontrivial = gcd_calls(words)
    print(f"poly_gcd: {calls} calls, {nontrivial} ({nontrivial / calls:.1%}) non-constant")


if __name__ == "__main__":
    main()
