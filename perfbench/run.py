"""bsol benchmark: census, hlimit and session workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Runs whole rounds of the workload, each round in a fresh worker process,
until --seconds have been spent in timed rounds; set-up is timed apart in
several fresh processes.  Every output is then checked against the
independent references in checks.py.  The last line printed is one JSON
object with correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics of one extra traced round
with --trace 1.  Bounded times are in "ref" units, see _end_to_end.  A
copy, with the machine it ran on, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER_TIMEOUT_S = 150
SETUP_SAMPLES = 3  # before each round, so they spread over the run

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "op_p50_ref": "ref",
    "peak_rss_mb": "MB",
}
RAW_UNITS = {
    "setup_median_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_p90_ref": "ref",
    "reference_ms": "ms",
    "states_per_s": "1/s",
}

# what the per-workload raw figures are called elsewhere
ALIASES = {
    "census": {"states_per_s": "census.states_per_s"},
    "hlimit": {"op_p50_ms": "hlimit.family_p50_ms", "op_p90_ms": "hlimit.family_p90_ms"},
    "session": {"op_p50_ms": "session.command_p50_ms"},
}


def _run_worker(spec: dict, scratch: Path) -> tuple[dict, float]:
    """Run worker.py on spec; returns its output and the spawn time."""
    spec_path = scratch / "spec.json"
    out_path = scratch / "out.json"
    spec_path.write_text(json.dumps({**spec, "scratch": str(scratch)}))
    out_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(out_path)]
    spawned = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if code != 0 or not out_path.exists():
        raise SystemExit(f"worker exited with code {code}")
    return json.loads(out_path.read_text()), spawned


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile by statistics.quantiles (exclusive method)."""
    return statistics.quantiles(values, n=10)[q - 1]


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _check(workload: str, ops: list[dict], rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): known faults fail, anything else is wrong."""
    by_id = {op["id"]: op for op in ops}
    rows = {r["necklace"]: r for r in checks.size_table(ROOT)}
    ctx = {"rows": rows, "appendix": checks.h_table(ROOT), "refs": checks.References()}
    attempted = failed = 0
    problems: list[str] = []
    for rnd in rounds:
        if workload == "session":
            for rec in rnd["recs"]:
                try:
                    rec["report"] = json.loads(rec.get("stdout") or "null")
                except json.JSONDecodeError:
                    rec["report"] = None
            ctx["orbit_reports"] = {
                (by_id[r["id"]]["necklace"], by_id[r["id"]]["power"]): r["report"]
                for r in rnd["recs"]
                if by_id[r["id"]]["check"] == "orbit" and r["report"]
            }
        for rec in rnd["recs"]:
            op = by_id[rec["id"]]
            attempted += 1
            try:
                if workload == "census":
                    found = checks.check_census(op, rec, rows, ctx["refs"])
                elif workload == "hlimit":
                    found = checks.check_hlimit(op, rec, ctx["appendix"], rec.get("series"))
                else:
                    found = checks.check_session(op, rec, ctx)
            except (KeyError, TypeError, ValueError, IndexError) as e:
                found = [f"operation {op['id']}: malformed result ({e!r})"]
            if found:
                failed += 1
                if not op.get("known_fault"):
                    problems += found
    return attempted, failed, problems


def _end_to_end(workload: str, rounds: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """(bounded metrics, raw figures) of the untraced rounds.

    The CPU speed of a shared machine swings by tens of percent for
    seconds at a time, longer than a round.  So each operation's time is
    divided by the time of a fixed reference computation run next to it
    (worker.reference), and the median of that ratio over the rounds is
    the operation's cost in "ref" units.  Set-up cannot be divided so, as
    it is reported in seconds; it is the best of the set-ups, whose
    median drifted by a third between runs minutes apart.  Raw times are
    kept alongside.
    """
    ratios: dict[int, list[float]] = {}
    raw: dict[int, list[float]] = {}
    for rnd in rounds:
        for rec in rnd["recs"]:
            ratios.setdefault(rec["id"], []).append(rec["ms"] / rec["ref_ms"])
            raw.setdefault(rec["id"], []).append(rec["ms"])
    per_op = [statistics.median(v) for v in ratios.values()]
    per_op_ms = [statistics.median(v) for v in raw.values()]
    values = {
        "setup_s": min(setups),
        "wall_ref": sum(per_op),
        "op_p50_ref": statistics.median(per_op),
        "peak_rss_mb": statistics.median(rnd["peak_rss_kb"] / 1024 for rnd in rounds),
    }
    wall_s = statistics.median(rnd["wall_s"] for rnd in rounds)
    figures = {
        "setup_median_s": statistics.median(setups),
        "wall_s": wall_s,
        "op_p50_ms": statistics.median(per_op_ms),
        "op_p90_ms": _quantile(per_op_ms, 9),
        "op_p90_ref": _quantile(per_op, 9),
        "reference_ms": statistics.median(rec["ref_ms"] for rnd in rounds for rec in rnd["recs"]),
    }
    if workload == "census":
        states = sum(sum(rec["result"]["sizes"]) for rec in rounds[0]["recs"] if rec.get("result"))
        figures["states_per_s"] = states / wall_s
    return values, figures


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "bsol" / "__init__.py").is_file():
        print(f"no bsol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ops = workloads.make_ops(workload, ROOT, seed)
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    try:
        setups = []
        rounds: list[dict] = []
        spent = 0.0
        while not rounds or spent < seconds:
            for _ in range(SETUP_SAMPLES):
                out, spawned = _run_worker({"setup_only": True}, scratch)
                setups.append(out["ready"] - spawned)
            spec = {"workload": workload, "ops": ops, "collect": not rounds}
            out, spawned = _run_worker(spec, scratch)
            setups.append(out["ready"] - spawned)
            rounds.append(out)
            spent += out["wall_s"]
        traced = None
        if trace:
            traced, _ = _run_worker({"workload": workload, "ops": ops, "trace": True,
                                     "collect": False}, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checked = rounds + ([traced] if traced else [])
    attempted, failed, problems = _check(workload, ops, checked)
    values, figures = _end_to_end(workload, rounds, setups)
    if trace:
        metrics = spans.layer_metrics(traced["spans"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - figures["wall_s"]
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics = {k: values[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        **result,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "rounds": len(rounds),
        "git_sha": _git_sha(),
        "kernel": rounds[0]["kernel"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "problems": problems,
        "end_to_end": values,
        "raw": figures,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        spans.dump(traced["spans"], RESULTS / f"{stem}-spans.json")

    for p in problems[:20]:
        print(f"WRONG: {p}")
    print(f"{workload}: {attempted} attempted, {failed} failed, {len(rounds)} rounds, "
          f"kernel {rounds[0]['kernel']}")
    for k, unit in END_TO_END_UNITS.items():
        print(f"  {k:<24} {values[k]:>14.6g} {unit}")
    for k, v in figures.items():
        name = f"{k} ({ALIASES[workload][k]})" if k in ALIASES[workload] else k
        print(f"  {name:<40} {v:>14.6g} {RAW_UNITS[k]}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.MAKERS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload != "all":
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    code = 0
    for name in workloads.MAKERS:  # each workload in a fresh process
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
