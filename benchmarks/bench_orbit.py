"""Census kernel comparison: compiled vs pure Python.

Runs the same reverse-walk level census through both kernels on a few
orbits of increasing size and prints the timings side by side.  The pure
kernel takes partition tuples, the compiled one a byte per pile.

    python3 benchmarks/bench_orbit.py [--budget N]
"""

import argparse
import time

from bsol import _census_py
from bsol.necklaces import cycle_partitions, weight
from bsol.orbit import kernel_name

try:
    from bsol import _census_cy
except ImportError:
    _census_cy = None

WORKLOADS = [
    ("BWW", 4),
    ("BBW", 4),
    ("BWWW", 3),
    ("BBWW", 3),
    ("BWWWW", 2),
    ("BWWWWWW", 2),
]


def run_once(kernel, seeds, budget):
    t0 = time.perf_counter()
    sizes, capped = kernel.census_levels(seeds, budget)
    return time.perf_counter() - t0, sum(sizes), capped


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=int, default=10**7, help="state cap per census")
    ap.add_argument("--repeat", type=int, default=3, help="best-of runs per kernel")
    args = ap.parse_args()

    print(f"active kernel: {kernel_name()}")
    if _census_cy is None:
        print("compiled kernel unavailable, timing the pure path only")
    header = f"{'orbit':>12} {'chips':>6} {'states':>9} {'py (s)':>9} {'cy (s)':>9} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for word, power in WORKLOADS:
        full = word * power
        seeds = cycle_partitions(full)
        t_py, total, capped = min(
            run_once(_census_py, seeds, args.budget) for _ in range(args.repeat)
        )
        if capped:
            print(f"{word}^{power}: capped at the state budget, skipping")
            continue
        if _census_cy is not None:
            byte_seeds = [bytes(p) for p in seeds]
            t_cy, total_cy, _ = min(
                run_once(_census_cy, byte_seeds, args.budget) for _ in range(args.repeat)
            )
            if total_cy != total:
                raise SystemExit(f"kernel disagreement on {word}^{power}: {total_cy} vs {total}")
            ratio = f"{t_py / t_cy:7.1f}x"
            cy_col = f"{t_cy:9.4f}"
        else:
            ratio, cy_col = "-", "-"
        print(
            f"{word + '^' + str(power):>12} {weight(full):>6} {total:>9}"
            f" {t_py:9.4f} {cy_col:>9} {ratio:>8}"
        )


if __name__ == "__main__":
    main()
