"""Write tests/data/transcript.json: what bs prints for a fixed list of calls.

    PYTHONPATH=src python3 tests/make_transcript.py [OUT]

Runs each argv of calls() in one process through bsol.cli.run, with
stdout and stderr captured, and writes one entry per call, in order:
{"argv": [...], "exit": code, "stdout": text, "stderr": text}.  OUT
defaults to tests/data/transcript.json.  The bsol that runs is the one
PYTHONPATH finds, so pointing it at the src/ of another checkout (a git
archive of the parent commit, say) writes that checkout's transcript.

tests/test_transcript.py runs every call again and compares all three
parts.  A change that means to change an output regenerates the file
and names each changed argv in CHANGES.md.  No call passes --timing,
whose wall time differs from run to run, or --out.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = ROOT / "tests" / "data" / "transcript.json"


def calls() -> list[list[str]]:
    """The argv of every call the transcript holds."""
    from bsol.necklaces import is_primitive, necklace_representatives

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # the benchmark's session script, whose commands are kept here too

    argvs = [op["args"] for op in workloads.session_ops(ROOT)]
    argvs += [
        ["tables"],
        ["tables", "--tsv"],
        ["tables", "--max-size", "5", "--max-power", "3"],
        ["tables", "--max-size", "5", "--max-power", "3", "--tsv"],
        ["ufuse", "--max-k", "8"],
        ["verify", "thm13", "--max-k", "14"],
    ]
    argvs += [
        ["hlimit", "--necklace", word]
        for size in range(3, 10)
        for word in necklace_representatives(size)
        if is_primitive(word)
    ]
    # errors and caps: non-closing, non-primitive, three capped censuses,
    # two usage errors and an unknown command
    argvs += [
        ["hlimit", "--necklace", "W"],
        ["hlimit", "--necklace", "BWBW"],
        ["orbit", "--necklace", "BBBBBW", "--power", "2", "--max-states", "1000"],
        ["verify", "lemma216", "--necklace", "BWW", "--power", "3", "--max-states", "10"],
        ["hseries", "--necklace", "BWW", "--coeffs", "5", "--max-states", "10"],
        ["orbit", "--necklace", "BXW"],
        ["cratio", "--necklace", "BWW", "--max-k", "0"],
        ["frobnicate"],
    ]
    return argvs


def call(argv: list[str]) -> dict:
    """One transcript entry: bs argv run in this process, its output captured."""
    from bsol.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else TRANSCRIPT
    entries = [call(argv) for argv in calls()]
    target.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"{len(entries)} calls written to {target}")


if __name__ == "__main__":
    main()
