"""The equivalence sweep (`tests/sweep.py`) against its committed baseline."""

import json
from pathlib import Path

from sweep import VALIDATION_DRIFT, case_ids, drift_mismatches, exact_mismatches, flag_mismatches, run_sweep

BASELINE = Path(__file__).parent / "sweep_baseline.json"


def test_sweep_matches_baseline():
    """Every case runs, and the sweep keeps to the baseline rule of
    sweep.drift_mismatches: exit codes and window ranks are equal;
    verdicts, pass flags, residual drift and psd_margin follow
    report.compare_reports's rule; the validation residuals,
    doubly-commuting residuals and NS values have the same names and drift
    by at most VALIDATION_DRIFT."""
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    fresh = run_sweep()
    assert sorted(fresh) == sorted(baseline) and len(fresh) == len(case_ids())
    problems, _largest = drift_mismatches(baseline, fresh)
    assert problems == []


def test_exact_mismatches_flag_any_bit():
    """The --exact comparison names every leaf that differs in any bit,
    checks by name, and treats two NaNs as equal."""
    ref = {
        "case": {
            "exit": 0,
            "verdicts": {"valid": True},
            "window": {"rank": 4, "psd_margin": float("nan")},
            "checks": [{"name": "V_isometry", "residual": 0.1, "pass": True}],
        }
    }
    assert exact_mismatches(ref, json.loads(json.dumps(ref))) == []
    new = json.loads(json.dumps(ref))
    new["case"]["checks"][0]["residual"] = 0.1 + 2**-56  # one ulp above 0.1
    new["case"]["window"]["rank"] = 5
    new["case"]["verdicts"]["valid"] = 1
    del new["case"]["exit"]
    assert exact_mismatches(ref, new) == [
        "/case/checks/V_isometry/residual: 0.1 -> 0.10000000000000002",
        "/case/exit: 0 -> '<absent>'",
        "/case/verdicts/valid: True -> 1",
        "/case/window/rank: 4 -> 5",
    ]


def test_flag_mismatches_flag_any_outcome():
    """The --flags comparison names every exit code, verdict, window rank
    and check pass flag that differs, and every check or run present on one
    side only, and ignores residuals, tolerances, margins and validation."""
    ref = {
        "case": {
            "exit": 0,
            "verdicts": {"valid": True, "dilatable": True},
            "window": {"M": [1, 1], "rank": 4, "psd_margin": 0.5},
            "checks": [
                {"name": "V_isometry", "residual": 0.1, "tolerance": 1e-8, "pass": True},
                {"name": "V_semigroup", "residual": 0.2, "tolerance": 1e-8, "pass": True},
            ],
            "validation": {"covariance_1": 1e-16},
        },
        "other": {"exit": 3, "verdicts": {}, "window": None, "checks": [], "validation": {}},
    }
    same = json.loads(json.dumps(ref))
    same["case"]["checks"][0]["residual"] = 0.3
    same["case"]["checks"][1]["tolerance"] = 1e-6
    same["case"]["window"]["psd_margin"] = 0.25
    same["case"]["validation"]["covariance_1"] = 2e-16
    assert flag_mismatches(ref, same) == []
    new = json.loads(json.dumps(ref))
    new["case"]["exit"] = 4
    new["case"]["verdicts"]["dilatable"] = False
    new["case"]["window"]["rank"] = 5
    new["case"]["checks"][0]["pass"] = False
    del new["case"]["checks"][1]
    del new["other"]
    assert flag_mismatches(ref, new) == [
        "/case/exit: 0 -> 4",
        "/case/pass/V_isometry: True -> False",
        "/case/pass/V_semigroup: True -> '<absent>'",
        "/case/rank: 4 -> 5",
        "/case/verdicts/dilatable: True -> False",
        "/other: {'exit': 3, 'verdicts': {}, 'rank': None, 'pass': {}} -> '<absent>'",
    ]


def test_drift_mismatches_follow_the_baseline_rule():
    """The --drift comparison names every exit code, window rank,
    compare_reports mismatch, section key set and section value beyond
    VALIDATION_DRIFT, and every run on one side only; it reports the largest
    finite drift per section, drift within the band included."""
    ref = {
        "case": {
            "exit": 0,
            "verdicts": {"valid": True},
            "window": {"M": [1, 1], "rank": 4, "psd_margin": 0.5},
            "checks": [{"name": "V_isometry", "residual": 1e-15, "tolerance": 1e-8, "pass": True}],
            "validation": {"flip_1_2": 1e-16, "covariance_1": 0.0},
            "doubly_commuting": {"1,2": 1e-15},
            "NS": {"v=[1],s=[1]": 0.25},
        },
        "other": {
            "exit": 3,
            "verdicts": {},
            "window": None,
            "checks": [],
            "validation": {},
            "doubly_commuting": {},
            "NS": {},
        },
    }
    same = json.loads(json.dumps(ref))
    same["case"]["validation"]["flip_1_2"] = 3e-16
    same["case"]["checks"][0]["residual"] = float("inf")
    problems, largest = drift_mismatches(ref, same)
    assert problems == []
    assert largest == {
        "checks": 0.0,
        "psd_margin": 0.0,
        "validation": 3e-16 - 1e-16,
        "doubly_commuting": 0.0,
        "NS": 0.0,
    }
    new = json.loads(json.dumps(ref))
    new["case"]["exit"] = 4
    new["case"]["window"]["rank"] = 5
    new["case"]["validation"]["flip_1_2"] = 2 * VALIDATION_DRIFT
    del new["case"]["NS"]["v=[1],s=[1]"]
    del new["other"]
    problems, largest = drift_mismatches(ref, new)
    assert problems == [
        "other: run present in only one sweep",
        "case: exit 0 vs 4",
        "case: window rank {'M': [1, 1], 'rank': 4, 'psd_margin': 0.5} vs {'M': [1, 1], 'rank': 5, 'psd_margin': 0.5}",
        "case: window mismatch: {'M': [1, 1], 'rank': 4, 'psd_margin': 0.5} vs {'M': [1, 1], 'rank': 5, 'psd_margin': 0.5}",
        f"case: validation flip_1_2 1e-16 vs {2 * VALIDATION_DRIFT!r}",
        "case: NS keys ['v=[1],s=[1]'] vs []",
    ]
    assert largest["validation"] == 2 * VALIDATION_DRIFT - 1e-16
