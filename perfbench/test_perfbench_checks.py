"""Each benchmark checker accepts a right result and rejects a mutated one."""

import copy
from pathlib import Path

import checks
import worker

ROOT = Path(__file__).resolve().parent.parent
ROWS = {r["necklace"]: r for r in checks.size_table(ROOT)}
APPENDIX = checks.h_table(ROOT)


def _census_rec():
    op = {"id": 0, "necklace": "BWW", "max_power": 3, "max_states": 1000}
    recs, _, _ = worker.run_census([op], {"collect": True}, None)
    return op, recs[0]


def _hlimit_rec(word="BBWW"):
    op = {"id": 0, "necklace": word, "series": True}
    recs, _, _ = worker.run_hlimit([op], {"collect": True}, None)
    return op, recs[0]


def test_forward_move_census_matches_table():
    refs = checks.References()
    assert sum(refs.census("BWW" * 3)) == checks.tabulated_size(ROWS["BWW"], 3)
    assert refs.census("BWW") == [3, 1, 1]


def test_census_accepts_and_rejects_size_off_by_one():
    op, rec = _census_rec()
    refs = checks.References()
    assert checks.check_census(op, rec, ROWS, refs) == []
    bad = copy.deepcopy(rec)
    bad["result"]["sizes"][1] += 1
    assert checks.check_census(op, bad, ROWS, refs)
    bad = copy.deepcopy(rec)
    bad["levels"][3][-1] += 1
    assert checks.check_census(op, bad, ROWS, refs)


def test_hlimit_accepts_and_rejects_changed_coefficient():
    op, rec = _hlimit_rec()
    assert checks.check_hlimit(op, rec, APPENDIX, rec["series"]) == []
    bad = copy.deepcopy(rec)
    bad["h"]["num"][2] += 1
    assert checks.check_hlimit(op, bad, APPENDIX, rec["series"])
    bad = copy.deepcopy(rec)
    bad["system"]["g"][1][0][0] += 1
    assert checks.check_hlimit(op, bad, APPENDIX, rec["series"])


def test_hlimit_residual_without_appendix_form():
    op, rec = _hlimit_rec("BWBWWW")
    assert checks.check_hlimit(op, rec, {}, None) == []
    bad = copy.deepcopy(rec)
    bad["system"]["A"][0] = checks.add(bad["system"]["A"][0], [0, 1])
    assert checks.check_hlimit(op, bad, {}, None)


def _session_ctx():
    return {"rows": ROWS, "appendix": APPENDIX, "refs": checks.References(), "orbit_reports": {}}


def test_capped_report_with_wrong_label_rejected():
    op = {"check": "capped_dseries", "args": ["dseries"], "necklace": "BWW", "power": 3,
          "expect": {"exit": 0, "status": "capped", "command": "dseries"}}
    ctx = _session_ctx()
    full = ctx["refs"].census("BWW" * 3)
    good = {"command": "dseries", "status": "capped", "d_series": [str(c) for c in full[:4]]}
    assert checks.check_session(op, {"exit": 0, "report": good}, ctx) == []
    mislabelled = dict(good, command="orbit")
    assert checks.check_session(op, {"exit": 0, "report": mislabelled}, ctx)
    no_levels = {"command": "dseries", "status": "capped"}
    assert checks.check_session(op, {"exit": 0, "report": no_levels}, ctx)
    wrong_levels = dict(good, d_series=["1"] * 4)
    assert checks.check_session(op, {"exit": 0, "report": wrong_levels}, ctx)


def test_usage_error_expectation():
    op = {"check": "usage_error", "args": ["orbit"], "expect": {"exit": 1, "status": None}}
    ctx = _session_ctx()
    assert checks.check_session(op, {"exit": 1, "report": None}, ctx) == []
    capped = {"command": "orbit", "status": "capped"}
    assert checks.check_session(op, {"exit": 0, "report": capped}, ctx)


def test_session_orbit_size_off_by_one_rejected():
    op = {"check": "orbit", "args": ["orbit"], "necklace": "BBWW", "power": 3,
          "expect": {"exit": 0, "status": "ok", "command": "orbit"}}
    ctx = _session_ctx()
    size = checks.tabulated_size(ROWS["BBWW"], 3)
    report = {"command": "orbit", "status": "ok", "size": str(size), "depth": 7}
    assert checks.check_session(op, {"exit": 0, "report": report}, ctx) == []
    bad = dict(report, size=str(size + 1))
    assert checks.check_session(op, {"exit": 0, "report": bad}, ctx)
