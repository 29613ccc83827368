"""Command line surface: one JSON report per invocation.

Exit codes: 0 for ok (capped results included, they are explicit), 2 when
a verification mismatches or a forest fails to close, 1 for usage errors,
3 for internal faults (an arithmetic check inside bsol failed; the message
goes to stderr as "internal error: ...").
Reports are deterministic for fixed flags; --timing adds wall time and is
the only nondeterministic field.

run owns each report's head: it opens every report with "command", and a
verify report with "check" next; handlers return only the fields after.

Each command loads only the layers it runs: a handler imports its
library modules when it is called, and building the parser imports none.
So the census commands (orbit, dseries, hseries, cratio, verify lemma216)
never load limits, polyrat or golden, and verify brandt loads only the
necklace layer.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import NonClosingError, OrbitCapped


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags, but 2 means a mismatch here; run reports
    # the ValueError as a usage error
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


def _cases(first: int, last: int, flag: str) -> range:
    # a range flag must select at least one case; an empty report says nothing
    if last < first:
        raise ValueError(f"{flag} must be at least {first}, got {last}")
    return range(first, last + 1)


def _emit(report: dict, args: argparse.Namespace, started: float) -> None:
    if getattr(args, "timing", False):
        report["elapsed_seconds"] = round(time.monotonic() - started, 3)
    if getattr(args, "tsv", False) and "tsv" in report:
        text = report["tsv"]
    else:
        report.pop("tsv", None)
        text = json.dumps(report, indent=1) + "\n"
    out = getattr(args, "out", None)
    if out:
        # a path that cannot be written is bad input, not a traceback
        try:
            with open(out, "w") as f:
                f.write(text)
        except OSError as e:
            raise ValueError(f"cannot write {out}: {e.strerror}") from e
    else:
        sys.stdout.write(text)


def _status_exit(status: str) -> int:
    return 2 if status in ("mismatch", "non-closing") else 0


# --- subcommand handlers ----------------------------------------------------------


def _cmd_orbit(args) -> dict:
    from . import orbit

    sizes = orbit.level_sizes(args.necklace, args.power, args.max_states)
    return {
        "necklace": args.necklace,
        "power": args.power,
        "size": str(sum(sizes)),
        "depth": len(sizes) - 1,
        "kernel": orbit.kernel_name(),
        "status": "ok",
    }


def _cmd_dseries(args) -> dict:
    from . import orbit

    sizes = orbit.level_sizes(args.necklace, args.power, args.max_states)
    return {
        "necklace": args.necklace,
        "power": args.power,
        "d_series": [str(c) for c in sizes],
        "size": str(sum(sizes)),
        "kernel": orbit.kernel_name(),
        "status": "ok",
    }


def _cmd_hseries(args) -> dict:
    from . import orbit

    max_k = orbit.DEFAULT_MAX_POWER if args.max_k is None else args.max_k
    res = orbit.stabilized_h_series(args.necklace, args.coeffs, max_k, args.max_states)
    status = "ok" if res.stabilized else "capped"
    report = {
        "necklace": args.necklace,
        "coeffs": args.coeffs,
        "max_power": max_k,
        "coefficients": [str(c) for c in res.coeffs],
        "power_used": res.power_used,
        "stabilized": res.stabilized,
        "status": status,
    }
    if not res.stabilized:
        report["reason"] = f"not stabilized at cap ({res.reason})"
    return report


def _cmd_hlimit(args) -> dict:
    from . import limits, necklaces, polyrat

    word = necklaces.primitive_word(args.necklace)
    h = limits.h_limit(word)
    return {
        "necklace": word,
        "h": polyrat.ratfn_to_json(h),
        "series": [str(c) for c in polyrat.series_coeffs(h, 7)],
        "status": "ok",
    }


def _cmd_ufuse(args) -> dict:
    from . import fuse, polyrat

    def laurent_json(k):
        # v_norm(k) is x^k v_k: print the exponents of v_k, ascending
        terms = sorted(fuse.v_norm(k).coeffs.items())
        return {"coeffs": {str(e - k): str(c) for e, c in terms}}

    ks = _cases(0, args.max_k, "--max-k")
    return {
        "max_k": args.max_k,
        "u": [polyrat.poly_to_json(fuse.u_poly(k)) for k in ks],
        "v_normalized": [laurent_json(k) for k in ks],
        "status": "ok",
    }


def _cmd_cratio(args) -> dict:
    from . import orbit

    probe = orbit.c_ratio_probe(args.necklace, args.max_k, args.max_states)
    rows = []
    for k in range(1, args.max_k + 1):
        if k <= len(probe["sizes"]):
            rows.append({"k": k, "size": str(probe["sizes"][k - 1])})
        else:
            rows.append({"k": k, "size": None, "note": "skipped: capped"})
    return {
        "necklace": args.necklace,
        "max_power": args.max_k,
        "rows": rows,
        "ratio": None if probe["ratio"] is None else str(probe["ratio"]),
        "status": "ok" if not probe["skipped"] else "capped",
    }


def _verify_thm12(args) -> dict:
    from . import limits

    results = []
    ok = True
    for k in _cases(1, args.max_k, "--max-k"):
        w1, w2 = "B" + "WB" * k, "W" + "BW" * k
        iso = limits.verify_tree_isomorphism(w1, w2, args.depth)
        equal_h = limits.h_limit(w1) == limits.h_limit(w2)
        ok = ok and iso and equal_h
        results.append(
            {"k": k, "pair": [w1, w2], "isomorphic": iso, "equal_h": equal_h}
        )
    return {
        "depth": args.depth,
        "results": results,
        "status": "ok" if ok else "mismatch",
    }


def _verify_thm13(args) -> dict:
    from . import limits

    results = []
    ok = True
    for k in _cases(2, args.max_k, "--max-k"):
        f, p = limits.f_poly(k), limits.p_poly(k)
        equal, degree_ok = f == p, f.degree == k + 1
        ok = ok and equal and degree_ok
        results.append(
            {"k": k, "equal": equal, "degree": f.degree, "degree_ok": degree_ok}
        )
    return {
        "max_k": args.max_k,
        "results": results,
        "status": "ok" if ok else "mismatch",
    }


def _verify_conj11(args) -> dict:
    from . import golden, limits

    results = []
    ok = True
    for w1, w2 in golden.dual_pairs():
        rep = limits.verify_same_denominator(w1, w2)
        ok = ok and rep["equal_denominator"]
        results.append({"pair": [w1, w2], **rep})
    return {
        "pairs": len(results),
        "results": results,
        "status": "ok" if ok else "mismatch",
    }


def _verify_conj64(args) -> dict:
    from . import golden, limits

    # rows sharing a conjectural ratio should share a denominator
    by_c: dict[tuple[int, int], list[str]] = {}
    for row in golden.size_rows():
        by_c.setdefault((row.size, row.c), []).append(row.necklace)
    results = []
    ok = True
    skipped = False
    for (size, c), words in sorted(by_c.items()):
        if len(words) < 2:
            continue
        try:
            dens = [limits.h_limit(w).den for w in words]
            equal = all(d == dens[0] for d in dens)
            ok = ok and equal
            results.append(
                {"size": size, "c": str(c), "necklaces": words, "equal_denominator": equal}
            )
        except NonClosingError:
            skipped = True
            results.append(
                {"size": size, "c": str(c), "necklaces": words, "note": "skipped: non-closing"}
            )
    # a skipped group checked nothing, so the run cannot read as passed
    return {
        "results": results,
        "status": "mismatch" if not ok else "non-closing" if skipped else "ok",
    }


def _verify_lemma216(args) -> dict:
    from . import orbit

    holds = orbit.forest_identity_check(args.necklace, args.power, args.coeffs, args.max_states)
    return {
        "necklace": args.necklace,
        "power": args.power,
        "coeffs": args.coeffs,
        "holds": holds,
        "status": "ok" if holds else "mismatch",
    }


def _verify_brandt(args) -> dict:
    from . import necklaces

    sizes = _cases(1, args.max_size, "--max-size")
    mismatches = necklaces.brandt_mismatches(args.max_size)
    return {
        "max_size": args.max_size,
        "checked": sum(len(necklaces.necklace_representatives(m)) for m in sizes),
        "mismatches": [{"necklace": word, "match": False} for word in mismatches],
        "status": "mismatch" if mismatches else "ok",
    }


def _cmd_tables(args) -> dict:
    from . import golden

    sizes = _cases(1, args.max_size, "--max-size")
    powers = _cases(1, args.max_power, "--max-power")
    size_rows = []
    tsv_lines = ["necklace\tc_P\tsize_formula\tverified_k"]
    for row in golden.size_rows():
        if row.size not in sizes:
            continue
        counts = [str(row.count_at(k)) for k in powers]
        verified = "all" if row.proved else str(row.verified_k)
        size_rows.append(
            {
                "necklace": row.necklace,
                "size": row.size,
                "c": str(row.c),
                "first": str(row.first),
                "formula": row.formula(),
                "verified_k": verified,
                "counts": counts,
            }
        )
        tsv_lines.append(f"{row.necklace}\t{row.c}\t{row.formula()}\t{verified}")
    h_rows = []
    for e in golden.h_table():
        if e.size not in sizes:
            continue
        h_rows.append(
            {
                "necklace": e.necklace,
                "size": e.size,
                "num": [str(e.num.coeff(i)) for i in range(e.num.degree + 1)],
                "den": [str(e.den.coeff(i)) for i in range(e.den.degree + 1)],
            }
        )
    return {
        "max_size": args.max_size,
        "max_power": args.max_power,
        "size_rows": size_rows,
        "h_rows": h_rows,
        "status": "ok",
        "tsv": "\n".join(tsv_lines) + "\n",
    }


# --- argument wiring --------------------------------------------------------------


def _build_parser() -> _Parser:
    # the user's help; the module docstring holds the developer notes
    p = _Parser(
        prog="bs",
        description="Exact Bulgarian solitaire: orbit censuses, limit series and the"
        " checks they rest on, for cycles named by B/W necklace words.  Each command"
        " prints one JSON report.  Exit codes: 0 ok (capped results included),"
        " 1 usage error, 2 verification mismatch or non-closing forest,"
        " 3 internal error.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, necklace=False, power=False, states=False):
        if necklace:
            sp.add_argument("--necklace", required=True, help="necklace word over B/W")
        if power:
            sp.add_argument("--power", type=int, default=1, help="repeat count of the necklace")
        if states:
            sp.add_argument(
                "--max-states", type=int, default=None,
                help="state cap for the census (default 10^7)",
            )
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")
        sp.add_argument("--timing", action="store_true", help="include wall time in the report")

    sp = sub.add_parser("orbit", help="orbit size of necklace^power")
    common(sp, necklace=True, power=True, states=True)
    sp.set_defaults(fn=_cmd_orbit)

    sp = sub.add_parser("dseries", help="level census of one orbit")
    common(sp, necklace=True, power=True, states=True)
    sp.set_defaults(fn=_cmd_dseries)

    sp = sub.add_parser("hseries", help="stabilized leading census coefficients")
    common(sp, necklace=True, states=True)
    sp.add_argument("--coeffs", type=int, default=5, help="highest series index to stabilize")
    sp.add_argument("--max-k", type=int, default=None, help="power cap (default 8)")
    sp.set_defaults(fn=_cmd_hseries)

    sp = sub.add_parser("hlimit", help="closed form of the limit series")
    common(sp, necklace=True)
    sp.set_defaults(fn=_cmd_hlimit)

    sp = sub.add_parser("ufuse", help="fuse level-census polynomials")
    common(sp)
    sp.add_argument("--max-k", type=int, default=8, help="largest fuse size")
    sp.set_defaults(fn=_cmd_ufuse)

    sp = sub.add_parser("cratio", help="orbit growth ratios across powers")
    common(sp, necklace=True, states=True)
    sp.add_argument("--max-k", type=int, default=3, help="largest power to census")
    sp.set_defaults(fn=_cmd_cratio)

    sp = sub.add_parser("verify", help="verification suites")
    vsub = sp.add_subparsers(dest="check", required=True)

    v = vsub.add_parser("thm12", help="alternating-family tree isomorphism")
    common(v)
    v.add_argument("--max-k", type=int, default=2)
    v.add_argument("--depth", type=int, default=6)
    v.set_defaults(fn=_verify_thm12)

    v = vsub.add_parser("thm13", help="denominator polynomial identity")
    common(v)
    v.add_argument("--max-k", type=int, default=10)
    v.set_defaults(fn=_verify_thm13)

    v = vsub.add_parser("conj11", help="dual pairs share a denominator")
    common(v)
    v.set_defaults(fn=_verify_conj11)

    v = vsub.add_parser("conj64", help="equal growth ratio implies equal denominator")
    common(v)
    v.set_defaults(fn=_verify_conj64)

    v = vsub.add_parser("lemma216", help="path counts vs level sums in one orbit")
    common(v, necklace=True, power=True, states=True)
    v.add_argument("--coeffs", type=int, default=4, help="largest path length checked")
    v.set_defaults(fn=_verify_lemma216)

    v = vsub.add_parser("brandt", help="necklace images are the cycle partitions")
    common(v)
    v.add_argument("--max-size", type=int, default=6)
    v.set_defaults(fn=_verify_brandt)

    sp = sub.add_parser("tables", help="emit the reference tables")
    common(sp)
    sp.add_argument("--max-size", type=int, default=8, help="largest necklace size")
    sp.add_argument("--max-power", type=int, default=3, help="powers listed per row")
    sp.add_argument("--tsv", action="store_true", help="emit the size table as TSV")
    sp.set_defaults(fn=_cmd_tables)

    return p


def run(argv: list[str]) -> int:
    started = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        head = {"command": args.subcommand}
        if args.subcommand == "verify":
            head["check"] = args.check
        try:
            report = {**head, **args.fn(args)}
        except NonClosingError as e:
            report = {
                **head,
                "necklace": e.word,
                "status": "non-closing",
                "detail": str(e),
            }
        except OrbitCapped as e:
            report = {
                **head,
                "necklace": e.word,
                "power": e.power,
                "max_states": e.max_states,
                "level_sizes": [str(c) for c in e.sizes],
                "status": "capped",
                "detail": str(e),
            }
        _emit(report, args, started)
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ArithmeticError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    return _status_exit(report["status"])


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
