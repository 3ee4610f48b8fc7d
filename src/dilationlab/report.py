"""Machine-readable run reports and golden-file comparison."""

from __future__ import annotations

import json
import math

# Default tolerance per fixed check name. Weak-form identities evaluate to
# exact kernel values; adjoint-involving identities are window compressions
# and get the looser truncation tolerance.
CHECK_TOLERANCES = {
    "hat_semigroup": 1e-10,
    "technology": 1e-10,
    "regular_item1": 1e-8,
    "regular_item2": 1e-8,
    "regular_item3": 1e-8,
    "regular_item4": 1e-6,
    "V_isometry": 1e-8,
    "V_semigroup": 1e-8,
    "V0_star_hom": 1e-8,
    "doubly_commuting_hat": 1e-10,
    "doubly_commuting_V": 1e-6,
    "uniqueness": 1e-9,
}


def _json_float(x: float) -> float | str:
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def check_record(name: str, residual: float, tolerance: float | None = None) -> dict:
    tol = CHECK_TOLERANCES.get(name, 1e-10) if tolerance is None else tolerance
    ok = math.isfinite(residual) and residual <= tol
    return {"name": name, "residual": _json_float(residual), "tolerance": tol, "pass": bool(ok)}


def make_report(
    instance_digest: str,
    command: str,
    parameters: dict,
    checks: list[dict],
    verdicts: dict,
    window: dict | None = None,
    timing: float = 0.0,
) -> dict:
    report = {
        "instance": instance_digest,
        "command": command,
        "parameters": parameters,
        "checks": checks,
        "verdicts": verdicts,
        "timing": timing,
    }
    if window is not None:
        report["window"] = window
    return report


def render(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def compare_reports(reference: dict, fresh: dict) -> tuple[bool, list[str], list[str]]:
    """Golden-file rule: verdicts and pass flags must match; residual drift
    within a 10x tolerance band is a warning, beyond it a mismatch.

    Returns (ok, mismatches, warnings).
    """
    mismatches: list[str] = []
    warnings: list[str] = []

    ref_verdicts = reference.get("verdicts", {})
    new_verdicts = fresh.get("verdicts", {})
    for key in sorted(set(ref_verdicts) | set(new_verdicts)):
        if ref_verdicts.get(key) != new_verdicts.get(key):
            mismatches.append(
                f"verdict {key}: reference {ref_verdicts.get(key)!r} vs fresh {new_verdicts.get(key)!r}"
            )

    ref_checks = {c["name"]: c for c in reference.get("checks", [])}
    new_checks = {c["name"]: c for c in fresh.get("checks", [])}
    for name in sorted(set(ref_checks) | set(new_checks)):
        if name not in ref_checks or name not in new_checks:
            mismatches.append(f"check {name}: present in only one report")
            continue
        ref_c, new_c = ref_checks[name], new_checks[name]
        if ref_c["pass"] != new_c["pass"]:
            mismatches.append(f"check {name}: pass flag {ref_c['pass']} vs {new_c['pass']}")
            continue
        tol = float(ref_c.get("tolerance", 1e-10))
        r_ref = float(ref_c["residual"])
        r_new = float(new_c["residual"])
        if math.isfinite(r_ref) and math.isfinite(r_new):
            drift = abs(r_new - r_ref)
            if drift > 10.0 * tol:
                mismatches.append(
                    f"check {name}: residual drift {drift:.3e} exceeds 10x tolerance {tol:.1e}"
                )
            elif drift > 0.0:
                warnings.append(f"check {name}: residual drifted by {drift:.3e} (within band)")

    ref_win = reference.get("window")
    new_win = fresh.get("window")
    if (ref_win is None) != (new_win is None):
        mismatches.append("window section present in only one report")
    elif ref_win is not None:
        if ref_win.get("M") != new_win.get("M") or ref_win.get("rank") != new_win.get("rank"):
            mismatches.append(f"window mismatch: {ref_win} vs {new_win}")
        else:
            drift = abs(float(ref_win.get("psd_margin", 0.0)) - float(new_win.get("psd_margin", 0.0)))
            if drift > 1e-8:
                mismatches.append(f"window psd_margin drift {drift:.3e}")

    return (not mismatches, mismatches, warnings)
