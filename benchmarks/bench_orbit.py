"""Census kernel throughput on the published growth rows.

Censuses every growth row of golden.size_rows() at powers 1..k, where k
is the largest verified power whose tabulated orbit size is at most
CEILING states, with _census_py.census_levels, which counts the states
whose births to undo fall into runs, by the product of the runs' factors
(binomial trees B_a when every run is a single birth), as plain ints,
without building them.
It runs the whole sweep N times and prints the total states, the median
seconds of a sweep with the first and third quartiles of the N beside
it, so that the spread between runs shows, the same three of the states
per second, and the process's own peak resident memory after the sweeps
(VmHWM from /proc/self/status, so Linux only).

Every census must match its row: a finished census must total the
tabulated size row.count_at(power), and a capped one must be of an orbit
tabulated above CEILING.  The script exits non-zero when one does not.
It then splits the counted states into those the walk built and those
it only counted, by the shape of the root they lie below: binomial trees
by order, roots with pairs, with a k-fuse run by k, and with other runs,
each with its share.  The walk builds 40,559 of the sweep's 2,886,719
states.

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


def run_kind(code: int) -> str:
    """The kind of a run by its code in the walk: a pair of two births, a
    k-fuse of k >= 3 births all to undo, 1 or 2 apart with no two 1 apart
    in a row, or another run."""
    gaps, undo = _census_py._run(code)
    if len(gaps) == 1:
        return "pair"
    if undo > len(gaps) and all(g in (1, 2) for g in gaps) and (1, 1) not in zip(gaps, gaps[1:]):
        return f"{undo}-fuse"
    return "other"


def shape_kind(shape) -> str:
    """What a counted root's shape (a, run codes) is reported under: its
    order when it has no run, else its runs' rarest kind."""
    a, codes = shape
    kinds = {run_kind(code) for code in codes}
    if not kinds:
        return f"B_{a}"
    if "other" in kinds:
        return "other"
    fuses = [k for k in kinds if k.endswith("-fuse")]
    return max(fuses, key=lambda k: int(k.split("-")[0])) if fuses else "pair"


def built_and_counted(seeds) -> dict[str, int]:
    """States the counting walk builds, then those it only counts, by kind.

    "built" are the states the walk builds.  Every other state lies in the
    tree below a root the walk met and counted by its shape, and counts
    under that root's kind: B_k by order k, "pair" for roots whose runs
    are all of two births, "k-fuse" for those with a run of k >= 3 births
    that is a fuse, and "other" for those with any other run.  A root's
    tree counts down to the walk's last level, so the kinds add up to the
    census.
    """
    split: dict[str, int] = {"built": 0}
    for s in seeds:
        met = []
        for step in _census_py._birth_levels(s, CEILING):
            if step is None:
                break
            split["built"] += len(step[1])
            met.append(step[2])
        for depth, roots in enumerate(met):
            for shape, n in roots.items():
                tree = _census_py._shape_levels(*shape)[: len(met) - depth]
                kind = shape_kind(shape)
                split[kind] = split.get(kind, 0) + n * sum(tree)
    order = ["built"] + sorted(k for k in split if k.startswith("B_")) + ["pair"]
    order += sorted((k for k in split if k.endswith("-fuse")), key=lambda k: int(k.split("-")[0]))
    return {k: split[k] for k in [*order, "other"] if k in split}


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
    split = built_and_counted(seeds)
    total = sum(split.values())
    print(f"census_levels counted {total} states:")
    names = {
        "built": "built",
        "pair": "below a root with pairs, counted only",
        "other": "below a root with another run, counted only",
    }
    for kind, n in split.items():
        if kind.startswith("B_"):
            what = f"in a {kind}, counted only"
        elif kind.endswith("-fuse"):
            what = f"below a root with a {kind} run, counted only"
        else:
            what = names[kind]
        print(f"{n:>9} {n / total:6.1%}  {what}")


if __name__ == "__main__":
    main()
