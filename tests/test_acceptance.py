"""End-to-end acceptance gate.

One test per criterion, each printing a single PASS/FAIL line; run with
-s to see the lines for passing criteria too.  Every comparison here is
exact, no tolerances anywhere.
"""

import time

from bsol.fuse import u_poly, weak_comp_count
from bsol.golden import dual_pairs, size_rows
from bsol.limits import (
    f_poly,
    h_limit,
    p_poly,
    verify_same_denominator,
    verify_tree_isomorphism,
)
from bsol.necklaces import brandt_mismatches
from bsol.orbit import (
    OrbitCapped,
    c_ratio_probe,
    forest_identity_check,
    orbit_size,
    stabilized_h_series,
)
from bsol.partitions import forward_move, predecessors, reverse_move
from bsol.polyrat import ONE, RatFn, series_coeffs
from oracles import (
    all_partitions,
    from_partition,
    h_for,
    h_series_forms,
    move,
    parse_poly,
    to_partition,
    u_tree_oracle,
)

SMALL_FAMILIES = [
    "BWW",
    "BBW",
    "BWWW",
    "BBBW",
    "BBWW",
    "BWWWW",
    "BBBBW",
    "BBWWW",
    "BBBWW",
    "BWBWB",
    "WBWBW",
]


def _report(n, label, ok, detail, started):
    line = "PASS" if ok else "FAIL"
    print(f"criterion {n} ({label}): {line} — {detail} [{time.time() - started:.1f}s]")
    assert ok, f"criterion {n}: {detail}"


class TestAcceptance:
    def test_criterion_1_exact_limits(self):
        t0 = time.time()
        bad = []
        for word in SMALL_FAMILIES:
            if h_limit(word) != h_for(word):
                bad.append(word)
        forms = h_series_forms()
        for word, cap in (("W", 12), ("BW", 8)):
            want = tuple(int(c) for c in series_coeffs(forms[word], 5))
            s = stabilized_h_series(word, 5, max_power=cap)
            if not (s.stabilized and s.coeffs == want):
                bad.append(word)
        ok = not bad and time.time() - t0 < 60
        _report(
            1,
            "closed-form limits",
            ok,
            f"{len(SMALL_FAMILIES)} closed forms + W/BW series, mismatches={bad}",
            t0,
        )

    def test_criterion_2_series_consistency(self):
        t0 = time.time()
        bad = []
        for word in ("BWW", "BBW", "BWWW", "BBWW"):
            want = tuple(int(c) for c in series_coeffs(h_limit(word), 5))
            s = stabilized_h_series(word, 5)
            if not (s.stabilized and s.power_used <= 5 and s.coeffs == want):
                bad.append((word, s))
        ok = not bad and time.time() - t0 < 120
        _report(2, "series vs closed form", ok, f"4 families, mismatches={bad}", t0)

    def test_criterion_3_orbit_growth(self):
        t0 = time.time()
        plans = [
            ("BWW", 4, lambda k: 5**k),
            ("BBW", 4, lambda k: 7 * 5 ** (k - 1)),
            ("BWWW", 3, lambda k: 15**k),
            ("BBBW", 3, lambda k: 30 * 15 ** (k - 1)),
            ("BBWW", 3, lambda k: 15 * 10 ** (k - 1)),
        ]
        bad = []
        checked = 0
        for word, kmax, f in plans:
            for k in range(1, kmax + 1):
                checked += 1
                # a budget above the orbit: a census that re-adds its cycle caps at once
                if orbit_size(word, k, max_states=2 * f(k)) != f(k):
                    bad.append((word, k))
        ok = not bad and time.time() - t0 < 300
        _report(
            3, "orbit size formulas", ok, f"{checked} sizes checked, mismatches={bad}", t0
        )

    def test_criterion_4_fuse_calculus(self):
        t0 = time.time()
        oracle_ok = all(u_tree_oracle(k) == u_poly(k) for k in range(1, 9))
        stated_ok = (
            u_poly(1) == parse_poly("1 + x")
            and u_poly(2) == parse_poly("1 + 2x + 2x^2")
            and u_poly(3) == parse_poly("1 + 3x + 5x^2 + 4x^3")
        )
        gf_ok = True
        num, den = parse_poly("1 - x"), parse_poly("1 - 2x")
        for i in range(7):
            want = series_coeffs(RatFn(num ** (i + 1), den ** (i + 1)), 12)
            got = [weak_comp_count(n, i) for n in range(13)]
            gf_ok = gf_ok and got == [int(c) for c in want]
        ok = oracle_ok and stated_ok and gf_ok and time.time() - t0 < 30
        _report(
            4,
            "fuse calculus",
            ok,
            f"oracle k<=8 {oracle_ok}, stated u1..u3 {stated_ok}, gf identity {gf_ok}",
            t0,
        )

    def test_criterion_5_denominator_recurrences(self):
        t0 = time.time()
        rec_ok = all(
            f_poly(k) == p_poly(k) and f_poly(k).degree == k + 1 for k in range(2, 11)
        )
        link_ok = True
        for n, word in ((2, "BWW"), (3, "BWWW")):
            den = h_limit(word).den
            diff = f_poly(n) - ONE
            link_ok = link_ok and (den == diff or den == -diff)
        ok = rec_ok and link_ok and time.time() - t0 < 30
        _report(
            5,
            "denominator recurrences",
            ok,
            f"f=p through k=10 {rec_ok}, denominator link {link_ok}",
            t0,
        )

    def test_criterion_6_alternating_isomorphism(self):
        t0 = time.time()
        bad = []
        for k in (1, 2):
            w1, w2 = "B" + "WB" * k, "W" + "BW" * k
            if not verify_tree_isomorphism(w1, w2, 6):
                bad.append(("iso", k))
            if h_limit(w1) != h_limit(w2):
                bad.append(("h", k))
        ok = not bad and time.time() - t0 < 60
        _report(6, "alternating pairs", ok, f"k in {{1,2}}, failures={bad}", t0)

    def test_criterion_7_property_suites(self):
        t0 = time.time()
        issues = []
        for n in range(1, 21):
            for lam in all_partitions(n):
                for mu in predecessors(lam):
                    if forward_move(mu) != lam:
                        issues.append(("beta-inverse", lam))
                seq = from_partition(lam)
                if to_partition(seq) != lam:
                    issues.append(("roundtrip", lam))
                for j in range(1, len(seq.values) + 2):
                    try:
                        stepped = move(seq, j)
                    except ValueError:
                        continue
                    if to_partition(stepped) != reverse_move(lam, j):
                        issues.append(("commutation", lam, j))
        # preimage completeness by inverting the full forward map
        for n in range(1, 21):
            parts = list(all_partitions(n))
            by_image: dict[tuple[int, ...], set] = {}
            for lam in parts:
                by_image.setdefault(forward_move(lam), set()).add(lam)
            for lam in parts:
                if set(predecessors(lam)) != by_image.get(lam, set()):
                    issues.append(("preimages", lam))
        issues.extend(("brandt", word) for word in brandt_mismatches(6))
        for power in (1, 2):
            for m in range(6):
                if not forest_identity_check("BWW", power, m):
                    issues.append(("forest", power, m))
        ok = not issues and time.time() - t0 < 180
        _report(7, "property suites", ok, f"issues={issues[:5]}", t0)

    def test_criterion_8_probes_reported(self):
        t0 = time.time()
        print()
        for w1, w2 in dual_pairs():
            rep = verify_same_denominator(w1, w2)
            print(
                f"  dual pair {w1} / {w2}: equal_denominator={rep['equal_denominator']}"
                f" equal_function={rep['equal_function']}"
            )
        shape_ok = True
        ratio_rows = 0
        capped_rows = 0
        for row in size_rows():
            try:
                probe = c_ratio_probe(row.necklace, 2, max_states=1_000_000)
            except OrbitCapped:
                print(f"  {row.necklace}: skipped: capped")
                capped_rows += 1
                continue
            if probe["skipped"]:
                print(
                    f"  {row.necklace}: sizes={probe['sizes']} then skipped: capped"
                    f" (powers {probe['skipped']})"
                )
                capped_rows += 1
            else:
                agree = probe["ratio"] == int(row.c)
                print(
                    f"  {row.necklace}: ratio {probe['ratio']}"
                    f" {'matches' if agree else 'DIFFERS FROM'} table value {row.c}"
                )
                ratio_rows += 1
                shape_ok = shape_ok and agree
            shape_ok = shape_ok and probe["sizes"][0] == int(row.first)
        ok = shape_ok and ratio_rows > 0 and capped_rows > 0
        _report(
            8,
            "conjecture probes",
            ok,
            f"{len(dual_pairs())} dual pairs reported, {ratio_rows} ratios verified,"
            f" {capped_rows} rows capped honestly",
            t0,
        )
