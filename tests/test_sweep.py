"""The equivalence sweep (`tests/sweep.py`) against its committed baseline."""

import json
from pathlib import Path

from dilationlab.report import compare_reports
from sweep import case_ids, exact_mismatches, flag_mismatches, run_sweep

BASELINE = Path(__file__).parent / "sweep_baseline.json"
# 10x the CLI's VALIDATION_TOL: the band compare_reports allows a check
VALIDATION_DRIFT = 1e-9


def test_sweep_matches_baseline():
    """Exit codes and window ranks are equal; verdicts, pass flags, residual
    drift and psd_margin follow report.compare_reports's rule; the
    validation residuals, doubly-commuting residuals and NS values have the
    same names and drift by at most VALIDATION_DRIFT."""
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    fresh = run_sweep()
    assert sorted(fresh) == sorted(baseline) and len(fresh) == len(case_ids())
    problems = []
    for case, ref in sorted(baseline.items()):
        new = fresh[case]
        if new["exit"] != ref["exit"]:
            problems.append(f"{case}: exit {ref['exit']} vs {new['exit']}")
        if (ref["window"] or {}).get("rank") != (new["window"] or {}).get("rank"):
            problems.append(f"{case}: window rank {ref['window']} vs {new['window']}")
        _ok, mismatches, _warnings = compare_reports(ref, new)
        problems.extend(f"{case}: {m}" for m in mismatches)
        for section in ("validation", "doubly_commuting", "NS"):
            ref_val, new_val = ref[section], new[section]
            if sorted(ref_val) != sorted(new_val):
                problems.append(f"{case}: {section} keys {sorted(ref_val)} vs {sorted(new_val)}")
                continue
            problems.extend(
                f"{case}: {section} {name} {ref_val[name]!r} vs {new_val[name]!r}"
                for name in sorted(ref_val)
                if not abs(new_val[name] - ref_val[name]) <= VALIDATION_DRIFT
            )
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
