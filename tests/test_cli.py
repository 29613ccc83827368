import json
import subprocess
import sys
from pathlib import Path

import pytest

from bsol import cli, golden, limits, murep, polyrat
from bsol.cli import run
from oracles import weak_comp_count_binom

DATA = Path(__file__).parent / "data"


def run_json(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def bs(*argv):
    """bs in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "bsol.cli", *argv], capture_output=True, text=True
    )


class TestOrbit:
    def test_power_two(self, capsys):
        code, rep = run_json(capsys, "orbit", "--necklace", "BWW", "--power", "2")
        assert code == 0
        assert rep["size"] == "25"
        assert rep["status"] == "ok"

    def test_depth_reported(self, capsys):
        _, rep = run_json(capsys, "orbit", "--necklace", "BWW")
        assert rep["depth"] == 2
        assert rep["size"] == "5"


class TestDSeries:
    def test_coeffs(self, capsys):
        code, rep = run_json(capsys, "dseries", "--necklace", "BWW")
        assert code == 0
        assert rep["d_series"] == ["3", "1", "1"]
        assert rep["size"] == "5"

    def test_kernel_named(self, capsys):
        _, rep = run_json(capsys, "dseries", "--necklace", "BWW")
        assert rep["kernel"] == "py"


    def test_capped_report_keeps_levels(self, capsys):
        code, rep = run_json(
            capsys, "dseries", "--necklace", "BWW", "--power", "3", "--max-states", "60"
        )
        _, full = run_json(capsys, "dseries", "--necklace", "BWW", "--power", "3")
        assert code == 0
        assert rep["command"] == "dseries"
        assert rep["status"] == "capped"
        levels = rep["level_sizes"]
        assert levels and len(levels) < len(full["d_series"])
        assert levels == full["d_series"][: len(levels)]


class TestHSeries:
    def test_stabilizes(self, capsys):
        code, rep = run_json(capsys, "hseries", "--necklace", "BWW", "--coeffs", "4")
        assert code == 0
        assert rep["coefficients"] == ["3", "1", "2", "3", "5"]
        assert rep["status"] == "ok"

    def test_capped_status(self, capsys):
        code, rep = run_json(
            capsys, "hseries", "--necklace", "BW", "--coeffs", "3", "--max-k", "4"
        )
        assert code == 0
        assert rep["status"] == "capped"
        assert "power-cap" in rep["reason"]


class TestHLimit:
    def test_closed_form(self, capsys):
        code, rep = run_json(capsys, "hlimit", "--necklace", "BWW")
        assert code == 0
        assert rep["status"] == "ok"
        assert rep["series"][:5] == ["3", "1", "2", "3", "5"]
        den = rep["h"]["den"]["coeffs"]
        assert den in ({"0": "1", "2": "-1", "3": "-2"}, {"0": "-1", "2": "1", "3": "2"})

    def test_non_closing_exit_two(self, capsys):
        code, rep = run_json(capsys, "hlimit", "--necklace", "W")
        assert code == 2
        assert rep["status"] == "non-closing"

    def test_wrong_gcd_is_not_a_usage_error(self, capsys, monkeypatch):
        # a "gcd" that divides nothing makes RatFn's exact division fail;
        # that is an internal fault and must not print as bad input
        monkeypatch.setattr(polyrat, "poly_gcd", lambda a, b: polyrat.IntPoly({1: 1, 0: 7}))
        assert run(["hlimit", "--necklace", "BBWW"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: inexact polynomial division (remainder)\n"

    def test_murep_fault_is_internal(self, capsys, monkeypatch):
        # a rotation that does not rotate breaks the recurrent-board checks;
        # they are internal faults too, also under python -O
        monkeypatch.setattr(murep, "rotate_left", lambda w, t=1: w)
        assert run(["hlimit", "--necklace", "BBW"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: values of [2* | 0 1 2] drifted off the BBW tail\n"

    def test_pivot_fault_is_internal(self, capsys, monkeypatch):
        # a system whose M is not divisible by x breaks the no-pivoting rule;
        # the solve reports it as an internal fault
        system = limits.LinearSystem(["BWW"], [], [polyrat.ONE], [[polyrat.ONE + polyrat.X]])
        monkeypatch.setattr(limits, "assemble_system", lambda word: system)
        assert run(["hlimit", "--necklace", "BWW"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: pivot 1 of the BWW system is 0 at x = 0\n"

    def test_verify_non_closing_exit_two(self, capsys, monkeypatch):
        # a depth cap too small for a dual pair is a report, not a traceback
        monkeypatch.setattr(limits, "default_depth_cap", lambda n: 2)
        code, rep = run_json(capsys, "verify", "conj11")
        assert code == 2
        assert rep == {
            "command": "verify",
            "check": "conj11",
            "necklace": "BWWW",
            "status": "non-closing",
            "detail": "forest of BWWW does not close: root 3, branch R[3, 1]",
        }


class TestUFuse:
    def test_polynomials(self, capsys):
        code, rep = run_json(capsys, "ufuse", "--max-k", "3")
        assert code == 0
        assert rep["u"][1]["coeffs"] == {"0": "1", "1": "1"}
        assert rep["u"][2]["coeffs"] == {"0": "1", "1": "2", "2": "2"}
        assert len(rep["v_normalized"]) == 4

    def test_v_normalized_pinned(self, capsys):
        # v_k = sum_{t <= k} u_t x^-t, printed with its own exponents -k..0
        # ascending; its x^-j coefficient sums the x^(t-j) terms of u_j..u_k,
        # which count the weak compositions of t - j with j zero parts
        code, rep = run_json(capsys, "ufuse", "--max-k", "8")
        assert code == 0
        assert len(rep["v_normalized"]) == 9
        assert rep["v_normalized"][2]["coeffs"] == {"-2": "1", "-1": "3", "0": "4"}
        for k, v in enumerate(rep["v_normalized"]):
            want = [
                (str(-j), str(sum(weak_comp_count_binom(t - j, j) for t in range(j, k + 1))))
                for j in range(k, -1, -1)
            ]
            assert list(v["coeffs"].items()) == want


class TestCRatio:
    def test_ratio(self, capsys):
        code, rep = run_json(capsys, "cratio", "--necklace", "BWW", "--max-k", "3")
        assert code == 0
        assert rep["ratio"] == "5"
        assert [r["size"] for r in rep["rows"]] == ["5", "25", "125"]

    def test_capped_rows_kept(self, capsys):
        code, rep = run_json(
            capsys, "cratio", "--necklace", "BWW", "--max-k", "6", "--max-states", "1000"
        )
        assert code == 0
        assert rep["status"] == "capped"
        noted = [r for r in rep["rows"] if r["size"] is None]
        assert len(noted) == 2
        assert all(r["note"] == "skipped: capped" for r in noted)


class TestVerify:
    def test_thm12(self, capsys):
        code, rep = run_json(capsys, "verify", "thm12")
        assert code == 0
        assert rep["status"] == "ok"
        assert all(r["isomorphic"] and r["equal_h"] for r in rep["results"])

    def test_lemma216(self, capsys):
        code, rep = run_json(capsys, "verify", "lemma216", "--necklace", "BWW")
        assert code == 0
        assert rep["status"] == "ok"

    def test_capped_lemma216_names_its_check(self, capsys):
        code, rep = run_json(
            capsys, "verify", "lemma216", "--necklace", "BWW", "--power", "3", "--max-states", "10"
        )
        assert code == 0
        assert rep["status"] == "capped"
        assert list(rep)[:2] == ["command", "check"]
        assert (rep["command"], rep["check"]) == ("verify", "lemma216")

    def test_non_closing_conj11_names_its_check(self, capsys, monkeypatch):
        def non_closing(word):
            raise limits.NonClosingError(word, 0, (1,))

        monkeypatch.setattr(limits, "h_limit", non_closing)
        code, rep = run_json(capsys, "verify", "conj11")
        assert code == 2
        assert rep["status"] == "non-closing"
        assert (rep["command"], rep["check"]) == ("verify", "conj11")

    def test_brandt(self, capsys):
        code, rep = run_json(capsys, "verify", "brandt", "--max-size", "5")
        assert code == 0
        assert rep["status"] == "ok"
        assert rep["checked"] >= 20

    def test_conj64(self, capsys):
        code, rep = run_json(capsys, "verify", "conj64")
        assert code == 0
        assert rep["status"] == "ok"
        assert len(rep["results"]) == 28
        assert all(r["equal_denominator"] for r in rep["results"])
        assert not [r for r in rep["results"] if "note" in r]

    def test_conj64_non_closing_group(self, capsys, monkeypatch):
        # a family whose forest does not close skips its group, under the
        # label every other command gives a non-closing system
        h_limit = limits.h_limit

        def closing_except_bbw(word):
            if word == "BBW":
                raise limits.NonClosingError(word, 0, (1,))
            return h_limit(word)

        monkeypatch.setattr(limits, "h_limit", closing_except_bbw)
        code, rep = run_json(capsys, "verify", "conj64")
        # a group that checked nothing keeps the run from reading as passed
        assert code == 2
        assert rep["status"] == "non-closing"
        assert len(rep["results"]) == 28
        assert [r for r in rep["results"] if "note" in r] == [
            {"size": 3, "c": "5", "necklaces": ["BWW", "BBW"], "note": "skipped: non-closing"}
        ]


# one cheap invocation of each handler
HANDLER_ARGV = [
    ["orbit", "--necklace", "BWW"],
    ["dseries", "--necklace", "BWW"],
    ["hseries", "--necklace", "BWW", "--coeffs", "2"],
    ["hlimit", "--necklace", "BWW"],
    ["ufuse", "--max-k", "1"],
    ["cratio", "--necklace", "BBW", "--max-k", "2"],
    ["tables", "--max-size", "3", "--max-power", "1"],
    ["verify", "thm12", "--max-k", "1", "--depth", "2"],
    ["verify", "thm13", "--max-k", "3"],
    ["verify", "conj11"],
    ["verify", "conj64"],
    ["verify", "lemma216", "--necklace", "BWW", "--coeffs", "2"],
    ["verify", "brandt", "--max-size", "3"],
]


class TestReportHead:
    def test_every_handler_listed(self):
        handlers = {f for n, f in vars(cli).items() if n.startswith(("_cmd_", "_verify_"))}
        parser = cli._build_parser()
        assert {parser.parse_args(argv).fn for argv in HANDLER_ARGV} == handlers

    @pytest.mark.parametrize("argv", HANDLER_ARGV, ids=" ".join)
    def test_report_opens_with_its_command(self, capsys, monkeypatch, argv):
        # run writes the head; the two golden-driven suites get one small entry
        monkeypatch.setattr(golden, "dual_pairs", lambda: [("BWW", "BBW")])
        rows = golden.size_rows()[:1]
        monkeypatch.setattr(golden, "size_rows", lambda: rows)
        code, rep = run_json(capsys, *argv)
        assert code == 0
        assert rep["status"] == "ok"
        head = argv[:2] if argv[0] == "verify" else argv[:1]
        assert list(rep.items())[: len(head)] == list(zip(["command", "check"], head))


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run(["orbit", "--nope"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_no_depth_cap_flag(self, capsys):
        # the expansion depth cap is fixed, not an option
        for argv in (["hlimit", "--necklace", "BBWW"], ["verify", "conj11"]):
            assert run(argv + ["--depth-cap", "5"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "usage error: unrecognized arguments: --depth-cap 5\n"

    def test_nonprimitive_necklace(self, capsys):
        # the library's one primitivity check, reached through every handler
        for argv in (
            ["orbit", "--necklace", "BWBW"],
            ["dseries", "--necklace", "BWBW"],
            ["hseries", "--necklace", "BWBW"],
            ["hlimit", "--necklace", "BWBW"],
            ["cratio", "--necklace", "BWBW"],
            ["verify", "lemma216", "--necklace", "BWBW"],
        ):
            assert run(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "usage error: necklace BWBW is not primitive\n"

    def test_cratio_needs_three_letters(self, capsys):
        assert run(["cratio", "--necklace", "BW"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: the ratio probe needs a necklace of length at least 3" in captured.err

    def test_missing_subcommand(self, capsys):
        assert run([]) == 1

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_max_states(self, capsys, budget):
        for argv in (
            ["orbit", "--necklace", "BWW"],
            ["dseries", "--necklace", "BWW"],
            ["hseries", "--necklace", "BWW"],
            ["cratio", "--necklace", "BWW"],
            ["verify", "lemma216", "--necklace", "BWW"],
        ):
            assert run(argv + ["--max-states", budget]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "usage error: max_states must be positive" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "thm12", "--max-k", "0"],
            ["verify", "thm12", "--depth", "-1"],
            ["verify", "thm13", "--max-k", "1"],
            ["verify", "brandt", "--max-size", "0"],
            ["verify", "lemma216", "--necklace", "BWW", "--coeffs", "-1"],
            ["hseries", "--necklace", "BWW", "--max-k", "0"],
            ["ufuse", "--max-k", "-1"],
            ["tables", "--max-size", "0"],
            ["tables", "--max-power", "0"],
        ],
        ids=[
            "thm12", "thm12-depth", "thm13", "brandt", "lemma216",
            "hseries", "ufuse", "tables-size", "tables-power",
        ],
    )
    def test_verify_bad_range_rejected(self, capsys, argv):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err

    @pytest.mark.parametrize(
        "argv,status",
        [
            (["verify", "thm13", "--max-k", "2"], "ok"),
            (["verify", "brandt", "--max-size", "1"], "ok"),
            (["verify", "lemma216", "--necklace", "BWW", "--coeffs", "0"], "ok"),
            # one power cannot agree with a next one: a capped report, not an error
            (["hseries", "--necklace", "BWW", "--max-k", "1"], "capped"),
            (["ufuse", "--max-k", "0"], "ok"),
            (["tables", "--max-size", "1"], "ok"),
            (["tables", "--max-power", "1"], "ok"),
        ],
        ids=["thm13", "brandt", "lemma216", "hseries", "ufuse", "tables-size", "tables-power"],
    )
    def test_verify_smallest_range(self, capsys, argv, status):
        code, rep = run_json(capsys, *argv)
        assert code == 0
        assert rep["status"] == status


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        outs = []
        for _ in range(2):
            run(["hlimit", "--necklace", "BBWW"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_timing_flag_adds_field(self, capsys):
        _, rep = run_json(capsys, "orbit", "--necklace", "BWW", "--timing")
        assert "elapsed_seconds" in rep


class TestOutFlag:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = run(["orbit", "--necklace", "BWW", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["size"] == "5"

    def test_missing_directory_is_usage_error(self, capsys, tmp_path):
        # it used to end in a FileNotFoundError traceback
        target = tmp_path / "missing" / "out.json"
        assert run(["orbit", "--necklace", "BWW", "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()


class TestTablesGolden:
    """The small tables, against their entries in tests/data/transcript.json."""

    @staticmethod
    def transcribed(argv):
        entries = json.loads((DATA / "transcript.json").read_text())
        return next(e["stdout"] for e in entries if e["argv"] == argv)

    def test_json_byte_for_byte(self, capsys):
        argv = ["tables", "--max-size", "5", "--max-power", "3"]
        assert run(argv) == 0
        assert capsys.readouterr().out == self.transcribed(argv)

    def test_tsv_byte_for_byte(self, capsys):
        argv = ["tables", "--max-size", "5", "--max-power", "3", "--tsv"]
        assert run(argv) == 0
        assert capsys.readouterr().out == self.transcribed(argv)


class TestHelp:
    def test_help_is_for_users(self, capsys):
        # bs --help says what bs does and names its exit codes; the module's
        # developer notes stay out of it
        with pytest.raises(SystemExit) as e:
            run(["--help"])
        assert e.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse rewraps to the terminal
        for code in ("0 ok", "1 usage error", "2 verification mismatch", "3 internal error"):
            assert code in text
        assert "run owns each report's head" not in text


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bsol.cli", "orbit", "--necklace", "BWW"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["size"] == "5"

    # each case runs in a fresh interpreter, where a handler imports its layer
    # for the first time and run() meets the report exceptions cold

    def test_capped_dseries_report(self):
        proc = bs("dseries", "--necklace", "BWW", "--power", "3", "--max-states", "60")
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["command"] == "dseries"
        assert rep["status"] == "capped"
        assert rep["level_sizes"] == ["3", "1", "2", "3", "5", "7", "11", "16"]

    def test_non_closing_report(self):
        proc = bs("hlimit", "--necklace", "BW")
        assert proc.returncode == 2
        rep = json.loads(proc.stdout)
        assert (rep["command"], rep["necklace"], rep["status"]) == ("hlimit", "BW", "non-closing")

    def test_zero_budget_is_usage_error(self):
        proc = bs("orbit", "--necklace", "BWW", "--max-states", "0")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage error:")

    def test_hseries_power_cap(self):
        proc = bs("hseries", "--necklace", "BWW")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["max_power"] == 8
        proc = bs("hseries", "--necklace", "BWW", "--max-k", "0")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "usage error: max_power must be positive\n"


IMPORT_PROBE = """
import io, json, sys
from contextlib import redirect_stdout

WATCHED = ("bsol.limits", "bsol.murep", "bsol.fuse", "bsol.golden", "bsol.polyrat", "dataclasses")


def loaded():
    return [m for m in WATCHED if m in sys.modules]


from bsol import cli

stages = [["import", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    stages.append([" ".join(argv), code, loaded()])
print(json.dumps(stages))
"""


class TestImportSet:
    def test_commands_load_only_their_layers(self):
        # one fresh interpreter runs the commands in turn; each stage lists the
        # watched modules loaded so far
        commands = [
            ["orbit", "--necklace", "BWW", "--power", "3"],
            ["cratio", "--necklace", "BBW", "--max-k", "3"],
            ["hseries", "--necklace", "BWW", "--coeffs", "3"],
            ["verify", "brandt"],
            ["tables"],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        stages = json.loads(proc.stdout)
        assert [code for _, code, _ in stages] == [0] * 6
        for name, _, mods in stages[:5]:
            assert mods == [], name
        assert stages[5][0] == "tables"
        assert "bsol.limits" not in stages[5][2]
