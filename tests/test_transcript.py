"""bs prints, byte for byte, what tests/data/transcript.json holds.

Each entry is one argv with the exit code, stdout and stderr that bs gave
for it when tests/make_transcript.py wrote the file; the call is run
again in this process and every part must be equal.  A failure names
the argv and the first line that differs.
"""

import json

import pytest

from make_transcript import TRANSCRIPT, call

ENTRIES = json.loads(TRANSCRIPT.read_text())


def first_difference(want: str, got: str) -> str:
    w, g = want.splitlines(keepends=True), got.splitlines(keepends=True)
    i = next((i for i, pair in enumerate(zip(w, g)) if pair[0] != pair[1]), min(len(w), len(g)))
    return f"line {i + 1}: want {w[i : i + 1]!r}, got {g[i : i + 1]!r}"


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_output_is_unchanged(entry):
    got = call(entry["argv"])
    assert got["exit"] == entry["exit"], f"bs {' '.join(entry['argv'])}: exit code"
    for part in ("stdout", "stderr"):
        if got[part] != entry[part]:
            pytest.fail(f"bs {' '.join(entry['argv'])}: {part} {first_difference(entry[part], got[part])}")


def test_the_calls_are_the_transcripts():
    # the script's list and the checked-in file name the same calls, in order
    from make_transcript import calls

    assert [e["argv"] for e in ENTRIES] == calls()
