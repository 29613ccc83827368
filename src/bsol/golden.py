"""Checked-in reference data: the published closed forms and orbit counts.

Two JSON files live next to this module.  appendix_h.json holds the limit
closed forms, one row per necklace as listed, H = (1-x) num/den with
coefficient lists lowest degree first, plus the two series-level forms for
W and BW given directly as num/den.  appendix_sizes.json holds the
conjectural growth rows |orbit(P^k)| = first * c^(k-1) with the power each
row was checked to; verified_k of null with proved true marks the two
size-3 rows that are theorems.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from .necklaces import canonical, dual
from .polyrat import IntPoly, ONE, RatFn, X


def _load(name: str) -> dict:
    ref = resources.files(__package__).joinpath("golden", name)
    return json.loads(ref.read_text())


def _poly(coeffs: list[str]) -> IntPoly:
    return IntPoly({e: int(c) for e, c in enumerate(coeffs)})


class HEntry(NamedTuple):
    necklace: str
    size: int
    num: IntPoly
    den: IntPoly

    def ratfn(self) -> RatFn:
        return RatFn((ONE - X) * self.num, self.den)


class SizeRow(NamedTuple):
    necklace: str
    size: int
    c: int
    first: int
    verified_k: int | None
    proved: bool

    def count_at(self, k: int) -> int:
        if k < 1:
            raise ValueError("power must be >= 1")
        return self.first * self.c ** (k - 1)

    def formula(self) -> str:
        if self.first == self.c:
            return f"{self.c}^k"
        return f"{self.first}*{self.c}^(k-1)"


def h_table() -> list[HEntry]:
    data = _load("appendix_h.json")
    return [
        HEntry(r["necklace"], r["size"], _poly(r["num"]), _poly(r["den"]))
        for r in data["families"]
    ]


def size_rows() -> list[SizeRow]:
    data = _load("appendix_sizes.json")
    return [
        SizeRow(
            r["necklace"], r["size"], int(r["c"]), int(r["first"]),
            r["verified_k"], r["proved"],
        )
        for r in data["rows"]
    ]


def dual_pairs() -> list[tuple[str, str]]:
    """Distinct (P, P*) pairs among the closed-form rows, P not self-dual."""
    names = [e.necklace for e in h_table()]
    canon_to_name = {canonical(n): n for n in names}
    out: list[tuple[str, str]] = []
    seen: set[frozenset[str]] = set()
    for n in names:
        d = dual(n)
        if d == canonical(n) or d not in canon_to_name:
            continue
        key = frozenset((canonical(n), d))
        if key not in seen:
            seen.add(key)
            out.append((n, canon_to_name[d]))
    return out
