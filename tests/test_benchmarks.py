"""The benchmark scripts load: every name they import from bsol still exists."""

import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_benchmark_imports():
    # each script runs its work only under __main__, so loading it as a
    # module just resolves its imports
    paths = sorted(BENCHMARKS.glob("bench_*.py"))
    assert paths, f"no benchmarks found under {BENCHMARKS}"
    for path in paths:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main), f"{path.name} has no main"
