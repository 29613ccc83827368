"""Start-up cost of bs: process start, imports and argument parsing.

Runs `python -c pass` and a fixed set of cheap bs commands, each in a
fresh interpreter, N times, interleaved so that a slow moment of the
machine falls on every command alike.  For each command it prints the
median wall milliseconds with the first and third quartiles beside it,
so that the spread between runs shows, the median's excess over the bare
interpreter, and the bsol modules the command loaded (read once more,
untimed, from a run of cli.run that lists sys.modules on stderr).

Every run, the module probe included, must exit 0, and every repeat of a
command must give the same stdout; the script exits non-zero when one
does not, naming the command and the last line it wrote to stderr.

    python3 benchmarks/bench_startup.py [--repeat N]
"""

import argparse
import subprocess
import sys
import time

from spread import quartiles

COMMANDS = [
    ["orbit", "--necklace", "BWW", "--power", "3"],
    ["dseries", "--necklace", "BWW", "--power", "3"],
    ["hseries", "--necklace", "BWW", "--coeffs", "5"],
    ["cratio", "--necklace", "BBW", "--max-k", "3"],
    ["tables"],
    ["verify", "brandt"],
    ["hlimit", "--necklace", "BBWW"],
]

MODULES_PROBE = (
    "import sys\n"
    "from bsol import cli\n"
    "code = cli.run(sys.argv[1:])\n"
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('bsol.'))), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def succeeded(name: str, proc: subprocess.CompletedProcess) -> subprocess.CompletedProcess:
    """proc, or exit naming the command and its last stderr line when it
    failed: a failed run's time measures nothing."""
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["(no stderr)"]
        raise SystemExit(f"{name} exited {proc.returncode}: {lines[-1]}")
    return proc


def timed(name: str, argv: list[str]) -> tuple[float, str]:
    """(wall ms, stdout) of one fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True)
    elapsed = (time.perf_counter() - start) * 1e3
    return elapsed, succeeded(name, proc).stdout


def loaded_modules(command: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, *command], capture_output=True, text=True
    )
    proc = succeeded(f"module probe of {' '.join(command)}", proc)
    return proc.stderr.strip().splitlines()[-1].replace("bsol.", "")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=9, help="runs of each command")
    args = ap.parse_args()
    if args.repeat < 1:
        raise SystemExit("--repeat must be at least 1")

    runs = {"pass": [sys.executable, "-c", "pass"]}
    runs.update((" ".join(c), [sys.executable, "-m", "bsol.cli", *c]) for c in COMMANDS)
    ms: dict[str, list[float]] = {name: [] for name in runs}
    outputs: dict[str, set] = {name: set() for name in runs}
    for _ in range(args.repeat):
        for name, argv in runs.items():
            elapsed, stdout = timed(name, argv)
            ms[name].append(elapsed)
            outputs[name].add(stdout)

    q1, bare, q3 = quartiles(ms["pass"])
    header = (
        f"{'command':<36} {'q1':>7} {'median ms':>9} {'q3':>7} {'excess':>7}"
        "  bsol modules loaded"
    )
    print(f"{args.repeat} runs each, interleaved, in fresh interpreters")
    print(header)
    print("-" * len(header))
    print(f"{'python -c pass':<36} {q1:7.1f} {bare:9.1f} {q3:7.1f} {0:7.1f}")
    for command in COMMANDS:
        name = " ".join(command)
        q1, median, q3 = quartiles(ms[name])
        print(
            f"{name:<36} {q1:7.1f} {median:9.1f} {q3:7.1f} {median - bare:7.1f}"
            f"  {loaded_modules(command)}"
        )
    unstable = [name for name, seen in outputs.items() if len(seen) > 1]
    if unstable:
        raise SystemExit(f"stdout varied between repeats: {unstable}")


if __name__ == "__main__":
    main()
