"""The benchmark scripts: every name they import from bsol still exists,
bench_startup stops on a failed command, and bench_orbit's split of a
census adds up to it."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

from bsol import _census_py
from bsol.necklaces import cycle_partitions

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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


@pytest.mark.parametrize("word,power", [("BWW", 4), ("BBBBBW", 2)])
def test_orbit_split_adds_up_to_the_census(word, power):
    # built, leaves, stubs and forks, each shape weighted by the states it
    # stands for, must total the census, so the split cannot drift from the walk
    orbit = load(BENCHMARKS / "bench_orbit.py")
    seeds = cycle_partitions(word * power)
    sizes, capped = _census_py.census_levels(seeds, orbit.CEILING)
    assert not capped
    assert sum(orbit.built_and_counted([seeds])) == sum(sizes)
