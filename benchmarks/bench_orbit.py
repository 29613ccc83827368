"""Census kernel throughput on the published growth rows.

Censuses every growth row of golden.size_rows() at powers 1..k, where k
is the largest verified power whose tabulated orbit size is at most
CEILING states, with _census_py.census_levels, which counts the states
whose level counts are (1 + x)^a times 1 + c x + c x^2 for each of their
pairs, c = 1 or 2 (binomial trees B_a when they have no pair), as plain
ints, without building them.
It runs the whole sweep N times and prints the total states, the median
seconds of a sweep with the first and third quartiles of the N beside
it, so that the spread between runs shows, the same three of the states
per second, and the process's own peak resident memory after the sweeps
(VmHWM from /proc/self/status, so Linux only).

Every census must match its row: a finished census must total the
tabulated size row.count_at(power), and a capped one must be of an orbit
tabulated above CEILING.  The script exits non-zero when one does not.
It then splits the counted states into those the walk built and those
it only counted: in binomial trees by order, or met with b pairs, by b,
each with its share.

    python3 benchmarks/bench_orbit.py [--repeat N]
"""

import argparse
import time

from spread import quartiles

from bsol import _census_py
from bsol.golden import size_rows
from bsol.necklaces import cycle_partitions
from bsol.orbit import kernel_name

CEILING = 200_000


def census_cases() -> list[tuple[str, int, int]]:
    """(necklace, power, tabulated orbit size) for every census of the sweep."""
    cases = []
    for row in size_rows():
        top = row.verified_k or 64  # proved rows: only the ceiling bounds k
        k = 1
        while k < top and row.count_at(k + 1) <= CEILING:
            k += 1
        cases.extend((row.necklace, power, row.count_at(power)) for power in range(1, k + 1))
    return cases


def sweep(seeds) -> tuple[float, list]:
    t0 = time.perf_counter()
    results = [_census_py.census_levels(s, CEILING) for s in seeds]
    return time.perf_counter() - t0, results


def peak_rss_mb() -> float:
    """VmHWM, this process's own peak resident set, in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise SystemExit("no VmHWM line in /proc/self/status")


def built_and_counted(seeds) -> tuple[list[int], dict[int, int]]:
    """States the counting walk builds, then those it only counts.

    Entry k + 1 of the list is the states counted in binomial trees B_k:
    those met as a B_k at their own level, and those the walk carries
    down from a counted state above them.  The dict holds, under b >= 1,
    the states met with b pairs, which the walk counts as a B_a in its
    orders and whose subtrees it owes the levels below.
    """
    counts = [0]
    pairs: dict[int, int] = {}
    for s in seeds:
        for step in _census_py._birth_levels(s, CEILING):
            if step is not None:
                _, level, orders, shapes = step
                counts += [0] * (len(orders) + 1 - len(counts))
                counts[0] += len(level)
                for k, n in enumerate(orders, 1):
                    counts[k] += n
                for (a, cs), n in shapes.items():
                    counts[a + 1] -= n
                    pairs[len(cs)] = pairs.get(len(cs), 0) + n
    while len(counts) > 1 and not counts[-1]:
        counts.pop()
    return counts, dict(sorted(pairs.items()))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5, help="runs of the sweep")
    args = ap.parse_args()
    if args.repeat < 1:
        raise SystemExit("--repeat must be at least 1")

    cases = census_cases()
    seeds = [cycle_partitions(word * power) for word, power, _ in cases]
    print(f"active kernel: {kernel_name()}")
    print(f"{len(cases)} censuses, each capped at {CEILING} states")
    runs = [sweep(seeds) for _ in range(args.repeat)]
    results = runs[0][1]
    peak = peak_rss_mb()
    for (word, power, want), (sizes, capped) in zip(cases, results):
        if (want > CEILING) != capped or (not capped and sum(sizes) != want):
            raise SystemExit(
                f"census of {word}^{power}: {sum(sizes)} states, capped {capped}; "
                f"the table has {want}"
            )
    states = sum(sum(sizes) for sizes, _ in results)
    capped = sum(capped for _, capped in results)
    q1, median, q3 = quartiles([seconds for seconds, _ in runs])
    header = (
        f"{'states':>9} {'capped':>6} {'s q1':>7} {'s median':>8} {'s q3':>7}"
        f" {'states/s q1':>11} {'median':>9} {'q3':>9} {'peak MB':>8}"
    )
    print(f"{args.repeat} runs of the sweep: quartiles of its seconds and of states/s")
    print(header)
    print("-" * len(header))
    print(
        f"{states:>9} {capped:>6} {q1:7.3f} {median:8.3f} {q3:7.3f}"
        f" {states / q3:11.0f} {states / median:9.0f} {states / q1:9.0f} {peak:8.1f}"
    )
    counts, pairs = built_and_counted(seeds)
    total = sum(counts) + sum(pairs.values())
    print(f"census_levels counted {total} states:")
    kinds = ["built"] + [f"in a B_{k}, counted only" for k in range(len(counts) - 1)]
    kinds += [f"met with {b} pair{'s' * (b > 1)}, counted only" for b in pairs]
    for what, n in zip(kinds, [*counts, *pairs.values()]):
        print(f"{n:>9} {n / total:6.1%}  {what}")


if __name__ == "__main__":
    main()
