"""The operations of each workload.

Inputs are fixed by the published tables and the constants below; the
seed only shuffles the order in which a round runs them.
"""

from __future__ import annotations

import random
from pathlib import Path

import checks

# census: every growth row, each up to the largest verified power whose
# tabulated orbit size stays within this many states
CENSUS_CEILING = 200_000

# hlimit: every primitive necklace of size 3..HLIMIT_TOP_SIZE; the three
# shorter ones, B, W and BW, have no closing system
HLIMIT_TOP_SIZE = 9

# series coefficients compared with orbit.stabilized_h_series, for the
# families of at most SERIES_MAX_SIZE letters
SERIES_TERMS = 5
SERIES_MAX_SIZE = 5


def census_ops(root: Path) -> list[dict]:
    ops = []
    for row in checks.size_table(root):
        top = row["verified_k"] or 64  # proved rows: only the ceiling bounds k
        k = 1
        while k < top and checks.tabulated_size(row, k + 1) <= CENSUS_CEILING:
            k += 1
        ops.append({"necklace": row["necklace"], "max_power": k, "max_states": CENSUS_CEILING})
    return ops


def hlimit_ops(root: Path) -> list[dict]:
    return [
        {"necklace": w, "series": len(w) <= SERIES_MAX_SIZE}
        for m in range(3, HLIMIT_TOP_SIZE + 1)
        for w in checks.primitive_necklaces(m)
    ]


def _bs(check: str, args: list[str], expect: dict, **fields) -> dict:
    return {"check": check, "args": args, "expect": expect, **fields}


def _ok(command: str) -> dict:
    return {"exit": 0, "status": "ok", "command": command}


def session_ops(root: Path) -> list[dict]:
    """A fixed script of bs invocations, one child process each.

    The last two are known faults, kept so that their fix shows: a capped
    dseries is labelled "orbit" and loses its completed levels, and
    --max-states 0 is accepted instead of being a usage error.
    """
    verify = {"exit": 0, "status": "ok", "command": "verify"}
    return [
        _bs("orbit", ["orbit", "--necklace", "BBBBBW", "--power", "2"], _ok("orbit"),
            necklace="BBBBBW", power=2),
        _bs("orbit", ["orbit", "--necklace", "BBWW", "--power", "3"], _ok("orbit"),
            necklace="BBWW", power=3),
        _bs("orbit", ["orbit", "--necklace", "BWW", "--power", "3"], _ok("orbit"),
            necklace="BWW", power=3),
        _bs("dseries", ["dseries", "--necklace", "BBBBBW", "--power", "2"], _ok("dseries"),
            necklace="BBBBBW", power=2),
        _bs("dseries", ["dseries", "--necklace", "BBWW", "--power", "3"], _ok("dseries"),
            necklace="BBWW", power=3),
        _bs("dseries", ["dseries", "--necklace", "BWW", "--power", "3"], _ok("dseries"),
            necklace="BWW", power=3),
        _bs("hseries", ["hseries", "--necklace", "BWW", "--coeffs", "5"], _ok("hseries"),
            necklace="BWW", coeffs=5),
        _bs("hseries", ["hseries", "--necklace", "BBWW", "--coeffs", "4"], _ok("hseries"),
            necklace="BBWW", coeffs=4),
        _bs("cratio", ["cratio", "--necklace", "BBW", "--max-k", "5"], _ok("cratio"),
            necklace="BBW", max_k=5),
        _bs("cratio", ["cratio", "--necklace", "BWBWB", "--max-k", "3"], _ok("cratio"),
            necklace="BWBWB", max_k=3),
        _bs("hlimit", ["hlimit", "--necklace", "BBWW"], _ok("hlimit"), necklace="BBWW"),
        _bs("hlimit", ["hlimit", "--necklace", "BWBWWW"], _ok("hlimit"), necklace="BWBWWW"),
        _bs("non_closing", ["hlimit", "--necklace", "BW"],
            {"exit": 2, "status": "non-closing", "command": "hlimit"}),
        _bs("ufuse", ["ufuse", "--max-k", "8"], _ok("ufuse"), max_k=8),
        _bs("tables", ["tables"], _ok("tables"), max_size=8, max_power=3),
        _bs("thm12", ["verify", "thm12"], verify),
        _bs("thm13", ["verify", "thm13"], verify),
        _bs("conj11", ["verify", "conj11"], verify),
        _bs("conj64", ["verify", "conj64"], verify),
        _bs("lemma216", ["verify", "lemma216", "--necklace", "BWW", "--power", "3"], verify),
        _bs("brandt", ["verify", "brandt", "--max-size", "8"], verify, max_size=8),
        _bs("capped_dseries",
            ["dseries", "--necklace", "BWW", "--power", "3", "--max-states", "60"],
            {"exit": 0, "status": "capped", "command": "dseries"},
            necklace="BWW", power=3, known_fault=True),
        _bs("usage_error", ["orbit", "--necklace", "BWW", "--max-states", "0"],
            {"exit": 1, "status": None}, known_fault=True),
    ]


MAKERS = {"census": census_ops, "hlimit": hlimit_ops, "session": session_ops}


def make_ops(workload: str, root: Path, seed: int) -> list[dict]:
    """The workload's operations, numbered, in the seed's order."""
    ops = MAKERS[workload](root)
    for i, op in enumerate(ops):
        op["id"] = i
    random.Random(seed).shuffle(ops)
    return ops
