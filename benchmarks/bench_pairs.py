"""Alternating parent/change runs of one perfbench workload, with verdicts.

    python3 benchmarks/bench_pairs.py --parent SHA --workload census --pairs 10 --pr N
        [--first-seed S] [--claim METRIC] [--change TEXT]

Exports the parent commit and the working tree (tracked and untracked
files, less what .gitignore lists and less the output file) with git
archive into two fresh directories under the temp directory ($TMPDIR),
and runs each side's own perfbench/run.py --workload W --seconds T
--trace 0 --seed N there, T being BENCHMARK.json's run_seconds, under
PYTHONDONTWRITEBYTECODE=1, with every __pycache__ removed before each
run.  Seeds run from --first-seed; the parent goes first for odd seeds,
the change for even ones.

Writes BENCH_<pr>.json at the root of the working tree in the layout of
the earlier ones, adding the workload to a file already there: the
change is recorded as the git tree hash of what was measured, and each
end-to-end metric as the median and quartiles of both sides, the pairs
the change won and every run.  Prints each metric's verdict by
spread.verdict and whether the change's median moved past the metric's
bound in BENCHMARK.json.  Exits non-zero when a run fails or its outputs
fail perfbench's checks, and when the file already there was measured
on another pair of trees.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from spread import quartiles, verdict

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def working_tree(scratch: Path, leave_out: str) -> str:
    """The git tree hash of the working tree, staged in a scratch index."""
    env = {**os.environ, "GIT_INDEX_FILE": str(scratch / "index")}
    git("read-tree", "HEAD", env=env)
    git("add", "-A", "--", ".", f":(exclude){leave_out}", env=env)
    return git("write-tree", env=env)


def export(tree: str, dest: Path) -> Path:
    """git archive of tree, unpacked into the fresh directory dest."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", tree], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {tree} exited {archive.returncode}")
    return dest


def run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's record of one run of side's own run.py."""
    for cache in list(side.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", "0", "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=side, env=env, capture_output=True, text=True)
    if proc.returncode:
        lines = (proc.stdout + proc.stderr).strip().splitlines() or ["(no output)"]
        raise SystemExit(f"{side.name} seed {seed} exited {proc.returncode}: {lines[-1]}")
    results = side / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(results.read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {k: round(v, 4) for k, v in
            {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}.items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--workload", required=True, help="a perfbench workload")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--claim", help="the metric the change claims a gain on")
    ap.add_argument("--change", default="", help="what the change does")
    args = ap.parse_args()
    if args.pairs < 1:
        raise SystemExit("--pairs must be at least 1")

    out = ROOT / f"BENCH_{args.pr}.json"
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        parent_sha = git("rev-parse", f"{args.parent}^{{commit}}")
        change_tree = working_tree(scratch, out.name)
        record = json.loads(out.read_text()) if out.exists() else {}
        if record and (record["parent_sha"], record["change_sha"]) != (parent_sha, change_tree):
            raise SystemExit(f"{out.name} was measured on other trees; move it away first")
        sides = {"parent": export(parent_sha, scratch / "parent"),
                 "change": export(change_tree, scratch / "change")}
        seeds = list(range(args.first_seed, args.first_seed + args.pairs))
        runs = []
        for seed in seeds:
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            got = {name: run(sides[name], args.workload, seed, seconds) for name in order}
            runs.append((got["parent"], got["change"]))
            values = "  ".join(f"{k} {got['parent']['metrics'][k]['value']:.4g} -> "
                               f"{got['change']['metrics'][k]['value']:.4g}" for k in metrics)
            print(f"seed {seed}: {values}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    entry = {
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seconds {seconds:g} --trace 0 --seed N",
        "pairs": len(seeds),
        "seeds": seeds,
        "order": "parent first for odd seeds, change first for even seeds",
        "rounds": [[p["rounds"], c["rounds"]] for p, c in runs],
        "failed": [[p["failed"], c["failed"]] for p, c in runs],
        "attempted": [[p["attempted"], c["attempted"]] for p, c in runs],
        "correct": all(p["correct"] and c["correct"] for p, c in runs),
        "metrics": {},
    }
    print(f"{args.workload}: {len(seeds)} pairs, parent {parent_sha[:9]}, change tree {change_tree[:9]}")
    for name, spec in metrics.items():
        lower = spec["better"] == "lower"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in runs]
        parent, change = summary([p for p, _ in pairs]), summary([c for _, c in pairs])
        won = sum((c < p) if lower else (c > p) for p, c in pairs)
        entry["metrics"][name] = {"parent": parent, "change": change,
                                  "change_better_pairs": won, "runs": pairs}
        moved = (change["median"] - parent["median"]) / parent["median"]
        past = (moved if lower else -moved) > spec["bound"]
        print(f"  {name:<12} {parent['median']:>10.4g} -> {change['median']:<10.4g} "
              f"{moved:+7.1%}  better in {won}/{len(pairs)}, parent IQR {parent['iqr']:.4g}: "
              f"{verdict(pairs, lower)}{'; PAST ITS BOUND' if past else ''}")
    claimed = {"workload": args.workload, "metric": args.claim} if args.claim else record.get("claimed")
    record = {
        "pr": args.pr,
        "change": args.change or record.get("change", ""),
        "machine": f"{os.cpu_count()} CPU {platform.system()}, Python {platform.python_version()}; "
                   "PYTHONDONTWRITEBYTECODE=1 and no __pycache__ on either side",
        "parent_sha": parent_sha,
        "change_sha": change_tree,
        "quartiles": "statistics.quantiles(n=4, method='inclusive'); iqr = q3 - q1",
        **({"claimed": claimed} if claimed else {}),
        "workloads": {**record.get("workloads", {}), args.workload: entry},
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")


if __name__ == "__main__":
    main()
