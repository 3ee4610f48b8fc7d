"""The equivalence sweep (`tests/sweep.py`) against its committed baseline."""

import json
from pathlib import Path

from dilationlab.report import compare_reports
from sweep import case_ids, run_sweep

BASELINE = Path(__file__).parent / "sweep_baseline.json"


def test_sweep_matches_baseline():
    """Exit codes and window ranks are equal; verdicts, pass flags, residual
    drift and psd_margin follow report.compare_reports's rule."""
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
    assert problems == []
