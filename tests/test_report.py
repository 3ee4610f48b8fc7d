"""report.compare_reports: each mismatch branch of the golden-file rule."""

import pytest

from dilationlab.report import check_record, compare_reports, make_report

WINDOW = {"M": [2, 2], "rank": 9, "psd_margin": 0.25}


def _report(checks, window=WINDOW, verdicts=None):
    return make_report("digest", "dilate", {}, checks, verdicts or {"dilatable": True}, window=window)


def _record(name: str, residual: float, tolerance: float) -> dict:
    """A check record taken at its own tolerance, as check_record makes one."""
    return {"name": name, "residual": residual, "tolerance": tolerance, "pass": residual <= tolerance}


def test_identical_reports_match():
    ref = _report([check_record("V_isometry", 1e-12)])
    assert compare_reports(ref, _report([check_record("V_isometry", 1e-12)])) == (True, [], [])


def test_pass_flag_change_is_a_mismatch():
    ref = _report([check_record("V_isometry", 1e-12)])
    fresh = _report([check_record("V_isometry", 1e-6)])  # above its 1e-8 tolerance
    ok, mismatches, _warnings = compare_reports(ref, fresh)
    assert not ok
    assert mismatches == ["check V_isometry: pass flag True vs False"]


def test_residual_drift_beyond_ten_tolerances_is_a_mismatch():
    ref = _report([_record("V_isometry", 1e-9, 1e-8)])
    # pass flags are compared as recorded, so both runs keep their flag
    drifted = _report([_record("V_isometry", 2e-7, 1e-6)])
    ok, mismatches, warnings = compare_reports(ref, drifted)
    assert not ok and warnings == []
    assert mismatches == ["check V_isometry: residual drift 1.990e-07 exceeds 10x tolerance 1.0e-08"]
    within = _report([_record("V_isometry", 5e-8, 1e-6)])
    ok, mismatches, warnings = compare_reports(ref, within)
    assert ok and mismatches == []
    assert warnings == ["check V_isometry: residual drifted by 4.900e-08 (within band)"]


@pytest.mark.parametrize("side", ["reference", "fresh"])
def test_check_in_one_report_only_is_a_mismatch(side):
    both = [check_record("V_isometry", 1e-12)]
    one = both + [check_record("uniqueness", 1e-13)]
    ref, fresh = (_report(one), _report(both)) if side == "reference" else (_report(both), _report(one))
    ok, mismatches, _warnings = compare_reports(ref, fresh)
    assert not ok
    assert mismatches == ["check uniqueness: present in only one report"]


@pytest.mark.parametrize("side", ["reference", "fresh"])
def test_window_in_one_report_only_is_a_mismatch(side):
    checks = [check_record("V_isometry", 1e-12)]
    with_window, without = _report(checks), _report(checks, window=None)
    ref, fresh = (with_window, without) if side == "reference" else (without, with_window)
    ok, mismatches, _warnings = compare_reports(ref, fresh)
    assert not ok
    assert mismatches == ["window section present in only one report"]


@pytest.mark.parametrize("key, value", [("M", [2, 3]), ("rank", 8)])
def test_window_bound_or_rank_change_is_a_mismatch(key, value):
    checks = [check_record("V_isometry", 1e-12)]
    ok, mismatches, _warnings = compare_reports(_report(checks), _report(checks, window={**WINDOW, key: value}))
    assert not ok
    assert len(mismatches) == 1 and mismatches[0].startswith("window mismatch: ")


def test_window_psd_margin_drift_is_a_mismatch():
    checks = [check_record("V_isometry", 1e-12)]
    ok, mismatches, _warnings = compare_reports(_report(checks), _report(checks, window={**WINDOW, "psd_margin": 0.25 + 1e-6}))
    assert not ok
    assert mismatches == ["window psd_margin drift 1.000e-06"]
    ok, mismatches, _warnings = compare_reports(_report(checks), _report(checks, window={**WINDOW, "psd_margin": 0.25 + 1e-9}))
    assert ok
