"""The benchmark scripts: every name they import from bsol still exists,
bench_startup stops on a failed command, bench_orbit's split of a census
adds up to it, and spread's quartiles and verdicts on fixed numbers."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from bsol import _census_py
from bsol.necklaces import cycle_partitions

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))  # the scripts import spread, their sibling

import spread  # noqa: E402


def load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_imports():
    # each script runs its work only under __main__, so loading it as a
    # module just resolves its imports
    paths = sorted(BENCHMARKS.glob("bench_*.py"))
    assert paths, f"no benchmarks found under {BENCHMARKS}"
    for path in paths:
        assert callable(load(path).main), f"{path.name} has no main"


def test_startup_stops_on_a_failed_command():
    # a command that fails at once would otherwise read as a fast start
    startup = load(BENCHMARKS / "bench_startup.py")
    ok = subprocess.CompletedProcess(["bs"], 0, "{}", "")
    assert startup.succeeded("tables", ok) is ok
    failed = subprocess.CompletedProcess(["bs"], 1, "", "Traceback\nModuleNotFoundError: bsol\n")
    with pytest.raises(SystemExit) as e:
        startup.succeeded("tables", failed)
    assert e.value.code == "tables exited 1: ModuleNotFoundError: bsol"


@pytest.mark.parametrize("word,power", [("BWW", 4), ("BBBBBW", 2), ("BBWBWWW", 1), ("BWBWBWW", 1)])
def test_orbit_split_adds_up_to_the_census(word, power):
    # the built states and the counted ones below each kind of root must
    # total the census, so the split cannot drift from the walk
    orbit = load(BENCHMARKS / "bench_orbit.py")
    seeds = cycle_partitions(word * power)
    sizes, capped = _census_py.census_levels(seeds, orbit.CEILING)
    assert not capped
    split = orbit.built_and_counted([seeds])
    assert sum(split.values()) == sum(sizes) and min(split.values()) > 0
    assert {"built", "B_0", "pair"} <= set(split)


def test_orbit_split_kinds():
    # BWBWBWW (148 states): its walk builds 14, and meets a B_0, roots
    # with pairs, a 4-fuse, whose tree holds u_4(1) = 34 states, and roots
    # with runs that are no fuse; a run's code is its gaps in base 6 after
    # a leading 1, each plus 3 when the birth after it is past the room
    orbit = load(BENCHMARKS / "bench_orbit.py")
    split = orbit.built_and_counted([cycle_partitions("BWBWBWW")])
    assert split == {"built": 14, "B_0": 4, "pair": 12, "4-fuse": 34, "other": 84}
    assert [orbit.run_kind(code) for code in (6 + 2, 6 + 3, 36 + 6 + 2, 36 + 6 + 1, 36 + 12 + 2)] == [
        "pair", "pair", "3-fuse", "other", "3-fuse"
    ]


def test_quartiles_are_inclusive():
    assert spread.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert spread.quartiles([5, 1, 3, 2, 4]) == (2, 3, 4)
    assert spread.quartiles([1, 2]) == (1.25, 1.5, 1.75)


# ten parent runs with median 100.5 and IQR 3.5 (q1 99.25, q3 102.75)
PARENT = [99, 100, 101, 102, 103, 98, 99, 100, 101, 104]


def test_verdict_win_loss_and_tie():
    # the change ahead in every pair by 5, past the parent's IQR: a win,
    # whichever way the metric counts as better
    faster = [(p, p - 5) for p in PARENT]
    assert spread.verdict(faster) == "better"
    assert spread.verdict(faster, lower_is_better=False) == "worse"
    assert spread.verdict([(p, p + 5) for p in PARENT]) == "worse"
    # ahead in every pair, but by 2, inside the parent's IQR of 3.5
    assert spread.verdict([(p, p - 2) for p in PARENT]) == "tie"
    # ahead by 5 in 8 of 10 pairs only
    mixed = faster[:8] + [(p, p + 1) for p in PARENT[8:]]
    assert spread.verdict(mixed) == "tie"
    # nine pairs are too few, however clear the gap
    assert spread.verdict(faster[:9]) == "too few pairs"


def test_verdict_needs_nine_in_ten():
    # 9 of 10 pairs ahead is enough; 17 of 20 is not, 18 of 20 is
    ahead, behind = (100, 90), (100, 101)
    assert spread.verdict([ahead] * 9 + [behind]) == "better"
    assert spread.verdict([ahead] * 17 + [behind] * 3) == "tie"
    assert spread.verdict([ahead] * 18 + [behind] * 2) == "better"
