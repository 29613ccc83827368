"""Census kernel throughput on the published growth rows.

Censuses every growth row of golden.size_rows() at powers 1..k, where k
is the largest verified power whose tabulated orbit size is at most
CEILING states, and prints the total states, the best-of-N seconds for
the whole sweep and states per second for each way of counting them:

    py    _census_py.census_levels, which counts leaves and stubs (states
          whose one predecessor is a leaf) without building them
    walk  the level sizes of _census_py.walk_levels, which builds every state

The two must agree on every census; the script exits non-zero when they
do not.  It then splits the counted states into those the counting walk
built, the leaves and the stubs it only counted, each with its share.

    python3 benchmarks/bench_orbit.py [--repeat N]
"""

import argparse
import time

from bsol import _census_py
from bsol.golden import size_rows
from bsol.necklaces import cycle_partitions
from bsol.orbit import kernel_name

CEILING = 200_000


def census_cases() -> list[list[tuple[int, ...]]]:
    """The seed cycle of every (row, power) the sweep censuses."""
    cases = []
    for row in size_rows():
        top = row.verified_k or 64  # proved rows: only the ceiling bounds k
        k = 1
        while k < top and row.count_at(k + 1) <= CEILING:
            k += 1
        cases.extend(cycle_partitions(row.necklace * power) for power in range(1, k + 1))
    return cases


def walk_census(seeds, max_states: int) -> tuple[list[int], bool]:
    """census_levels' result read off the levels walk_levels builds."""
    sizes = []
    for level in _census_py.walk_levels(seeds, max_states):
        if level is None:
            return sizes, True
        sizes.append(len(level))
    return sizes, False


def sweep(census, cases) -> tuple[float, list]:
    t0 = time.perf_counter()
    results = [census(seeds, CEILING) for seeds in cases]
    return time.perf_counter() - t0, results


def built_leaves_stubs(cases) -> tuple[int, int, int]:
    """States the counting walk builds, leaves and stubs it only counts.

    Each stub's own leaf, one level down, is among the leaves.
    """
    built = leaves = stubs = 0
    for seeds in cases:
        for step in _census_py._birth_levels(seeds, CEILING):
            if step is not None:
                level, parents, held = step
                built += len(level)
                leaves += len(parents) + len(held)
                stubs += len(held)
    return built, leaves, stubs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3, help="best-of runs per kernel")
    args = ap.parse_args()

    cases = census_cases()
    kernels = [("py", _census_py.census_levels), ("walk", walk_census)]
    print(f"active kernel: {kernel_name()}")
    print(f"{len(cases)} censuses, each capped at {CEILING} states")
    best_col = f"best of {args.repeat} (s)"
    header = f"{'kernel':>6} {'states':>9} {'capped':>6} {best_col:>14} {'states/s':>10}"
    print(header)
    print("-" * len(header))
    reference = None
    for name, census in kernels:
        best, results = min(sweep(census, cases) for _ in range(args.repeat))
        if reference is None:
            reference = results
        elif results != reference:
            bad = next(i for i, r in enumerate(results) if r != reference[i])
            raise SystemExit(
                f"{name} disagrees on census {bad}: {results[bad]} vs {reference[bad]}"
            )
        states = sum(sum(sizes) for sizes, _ in results)
        capped = sum(capped for _, capped in results)
        print(f"{name:>6} {states:>9} {capped:>6} {best:14.3f} {states / best:10.0f}")
    counts = built_leaves_stubs(cases)
    total = sum(counts)
    print(f"census_levels counted {total} states:")
    for what, n in zip(("built", "leaves, counted only", "stubs, counted only"), counts):
        print(f"{n:>9} {n / total:6.1%}  {what}")


if __name__ == "__main__":
    main()
