"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py SPEC.json OUT.json

SPEC names the workload, its operations, whether to trace, and whether
to collect the extra data some checks need.  The worker imports bsol,
lets orbit pick its kernel, loads the golden tables (together the set-up
every bs call pays), then times each operation.  Everything else happens
after the timed section.  With "setup_only" it stops after set-up.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120
REF_POLY = [(7**i * 1000003) % 10**30 for i in range(25)]


def reference() -> float:
    """Milliseconds taken by a fixed computation of the benchmark's own.

    Every partition of 18 chips run forward to its cycle (tuples, dicts
    and sets, as in the census) and one product of big-integer polynomials
    (as in polyrat).  Timed next to each operation, it shows how fast the
    machine was at that moment.
    """
    start = time.perf_counter()
    checks.BasinCensus(18)
    checks.mul(REF_POLY, REF_POLY)
    return (time.perf_counter() - start) * 1e3


class Timer:
    """Times operations and the reference computation on either side of each."""

    def __init__(self):
        self.before = reference()

    def record(self, rec: dict, start: float, end: float) -> None:
        after = reference()
        rec["ms"] = (end - start) * 1e3
        rec["ref_ms"] = (self.before + after) / 2
        self.before = after


def _dense(poly) -> list[int]:
    """IntPoly coefficients, lowest degree first."""
    coeffs = poly.coeffs
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)] if coeffs else []


def _ratfn(f) -> tuple[list[int], list[int]]:
    return _dense(f.num), _dense(f.den)


def run_census(ops: list[dict], spec: dict, tracer) -> tuple[list[dict], float, int]:
    from bsol import orbit

    recs = []
    timer = Timer()
    for op in ops:
        rec = {"id": op["id"]}
        start = time.perf_counter()
        try:
            rec["result"] = orbit.c_ratio_probe(op["necklace"], op["max_power"], op["max_states"])
        except Exception as e:  # one failed row must not hide the others
            rec["error"] = repr(e)
        timer.record(rec, start, time.perf_counter())
        recs.append(rec)
    wall = sum(rec["ms"] for rec in recs) / 1e3
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
    if spec["collect"]:
        for op, rec in zip(ops, recs):
            word = op["necklace"]
            rec["levels"] = {}
            for k in range(1, op["max_power"] + 1):
                if checks.chips(word * k) <= checks.MAX_REFERENCE_CHIPS:
                    rec["levels"][k] = _dense(orbit.d_series(word, k))
    return recs, wall, rss


def run_hlimit(ops: list[dict], spec: dict, tracer) -> tuple[list[dict], float, int]:
    from bsol import limits, orbit

    # keep each solved system for the residual check; one call per family
    solved = []
    solve = limits.solve_system

    def keep(system):
        gs = solve(system)
        solved.append((system, gs))
        return gs

    limits.solve_system = keep
    recs = []
    timer = Timer()
    for op in ops:
        solved.clear()
        rec = {"id": op["id"]}
        start = time.perf_counter()
        try:
            rec["h"] = limits.h_limit(op["necklace"])
        except Exception as e:  # one failed family must not hide the others
            rec["error"] = repr(e)
        timer.record(rec, start, time.perf_counter())
        rec["solved"] = solved[0] if len(solved) == 1 else None
        recs.append(rec)
    wall = sum(rec["ms"] for rec in recs) / 1e3
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    limits.solve_system = solve
    if tracer:
        tracer.uninstall()
    for op, rec in zip(ops, recs):
        solved_pair = rec.pop("solved")
        if "h" not in rec:
            continue
        rec["h"] = dict(zip(("num", "den"), _ratfn(rec["h"])))
        if solved_pair is not None:
            system, gs = solved_pair
            rec["system"] = {
                "A": [_dense(a) for a in system.A],
                "M": [[_dense(e) for e in row] for row in system.M],
                "g": [_ratfn(g) for g in gs],
                "n_roots": system.n_roots,
            }
        if spec["collect"] and op["series"]:
            import workloads

            s = orbit.stabilized_h_series(op["necklace"], workloads.SERIES_TERMS)
            rec["series"] = {"coeffs": list(s.coeffs), "stabilized": s.stabilized}
    return recs, wall, rss


def run_session(ops: list[dict], spec: dict, tracer) -> tuple[list[dict], float, int]:
    env = dict(os.environ)
    recs = []
    span_file = Path(spec["scratch"]) / "child-spans.json"
    timer = Timer()
    for op in ops:
        if tracer:
            argv = [sys.executable, str(HERE / "cli_traced.py"), *op["args"]]
            env["PERFBENCH_SPANS"] = str(span_file)
        else:
            argv = [sys.executable, "-m", "bsol.cli", *op["args"]]
        rec = {"id": op["id"]}
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rec["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
            proc = None
        end = time.perf_counter()
        timer.record(rec, start, end)
        if proc is not None:
            rec["exit"] = proc.returncode
            rec["stdout"] = proc.stdout
        if tracer:
            parent = tracer.span("cli.process", start, end)
            if span_file.exists():
                tracer.adopt(json.loads(span_file.read_text()), parent)
                span_file.unlink()
        recs.append(rec)
    wall = sum(rec["ms"] for rec in recs) / 1e3
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer:
        tracer.uninstall()
    return recs, wall, rss


ROUNDS = {"census": run_census, "hlimit": run_hlimit, "session": run_session}


def pin_to_current_cpu() -> None:
    """Keep this worker and its children on the CPU it started on.

    The CPUs of a shared machine change speed independently, so the
    reference computation only speaks for operations run on its own CPU.
    """
    stat = Path("/proc/self/stat").read_text()
    cpu = int(stat.rsplit(")", 1)[1].split()[36])  # field 39, the last CPU run on
    os.sched_setaffinity(0, {cpu})


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    pin_to_current_cpu()
    import bsol.cli  # noqa: F401  everything a bs call imports, kernel selection included
    from bsol import golden, orbit

    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    golden.size_rows()
    golden.h_table()
    out = {"ready": time.perf_counter(), "kernel": orbit.kernel_name()}
    if not spec.get("setup_only"):
        recs, wall, rss = ROUNDS[spec["workload"]](spec["ops"], spec, tracer)
        out.update(recs=recs, wall_s=wall, peak_rss_kb=rss)
        if tracer:
            out["spans"] = tracer.spans
    Path(sys.argv[2]).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
