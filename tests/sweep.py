"""Equivalence sweep: `dilate` over every generated family on a fixed grid.

The grid is every family x seeds 0-2 x (k, dims, L = M) in CASES. Each run
goes through `cli.main`, so its exit code is the command's. Per run the
baseline keeps the exit code, the verdicts, the window section (`M`, `rank`,
`psd_margin`), every check record (residual, tolerance, pass flag), the
validation residuals and the check section: the doubly-commuting residuals
and the Brehmer-type NS minimum eigenvalues, by key.
`tests/test_sweep.py` re-runs the grid against the committed baseline.

Regenerate the baseline, from the root of a checkout, with

    PYTHONPATH=src python tests/sweep.py tests/sweep_baseline.json

A change that redefines a residual regenerates it in the same commit.
A change that claims to keep every number checks it with

    PYTHONPATH=src python tests/sweep.py --exact tests/sweep_baseline.json

which re-runs the grid, lists every exit code, verdict, window field,
check field, validation residual, doubly-commuting residual and NS value
that differs from the baseline in any bit, and exits 1 if one does. A
change that redefines residuals but claims to keep every outcome
checks it, before it regenerates the baseline, with

    PYTHONPATH=src python tests/sweep.py --flags tests/sweep_baseline.json

which lists every exit code, verdict, window rank and check pass flag that
differs from the baseline, and exits 1 if one does. The rule
`tests/test_sweep.py` holds the sweep to runs as

    PYTHONPATH=src python tests/sweep.py --drift tests/sweep_baseline.json

which lists every field beyond its band, prints the largest drift per
section, and exits 1 if a field is beyond its band.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

from dilationlab import cli
from dilationlab.families import FAMILIES, generate
from dilationlab.report import compare_reports

SEEDS = (0, 1, 2)
# (k, dims, L = M)
CASES = ((2, 2, 2), (2, 3, 3), (3, 2, 1), (2, 2, 3), (1, 2, 3), (3, 2, 2))
# 10x the CLI's VALIDATION_TOL: the band compare_reports allows a check
VALIDATION_DRIFT = 1e-9
DRIFT_SECTIONS = ("validation", "doubly_commuting", "NS")


def case_ids() -> list[tuple[str, int, int, int, int]]:
    return [
        (family, seed, k, dims, bound)
        for family in sorted(FAMILIES)
        for seed in SEEDS
        for k, dims, bound in CASES
    ]


def run_case(family: str, seed: int, k: int, dims: int, bound: int, workdir: Path) -> dict:
    """One `dilate` run of a generated instance: its exit code and the
    comparable part of its report."""
    data = generate(family, seed=seed, k=k, dims=dims)
    return run_instance(data, f"{family}-{seed}-{k}-{dims}-{bound}", bound, workdir)


def run_instance(data: dict, name: str, bound: int, workdir: Path) -> dict:
    """`run_case` of an instance dict, its files named after `name`."""
    path = workdir / f"{name}.json"
    out = workdir / f"{name}.report.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = cli.main(["dilate", str(path), "--L", str(bound), "--M", str(bound), "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    return {
        "exit": code,
        "verdicts": report.get("verdicts", {}),
        "window": report.get("window"),
        "checks": report.get("checks", []),
        "validation": report.get("validation", {}),
        "doubly_commuting": report.get("doubly_commuting", {}),
        "NS": report.get("NS", {}),
    }


def run_sweep() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return {
            "/".join(str(x) for x in case): run_case(*case, Path(tmp)) for case in case_ids()
        }


def exact_mismatches(ref, new, path: str = "") -> list[str]:
    """Every leaf of `new` that differs from `ref`, as "path: ref -> new".

    Floats are compared by repr, which round-trips every bit (and makes two
    NaNs equal); lists and dicts are walked entry by entry.
    """
    if isinstance(ref, dict) and isinstance(new, dict):
        out = []
        for key in sorted(ref.keys() | new.keys(), key=str):
            if key not in ref or key not in new:
                out.append(f"{path}/{key}: {ref.get(key, '<absent>')!r} -> {new.get(key, '<absent>')!r}")
            else:
                out.extend(exact_mismatches(ref[key], new[key], f"{path}/{key}"))
        return out
    if isinstance(ref, list) and isinstance(new, list) and len(ref) == len(new):
        # a check record is named by its "name", other entries by position
        names = [x.get("name", i) if isinstance(x, dict) else i for i, x in enumerate(ref)]
        return [
            m for name, a, b in zip(names, ref, new) for m in exact_mismatches(a, b, f"{path}/{name}")
        ]
    if type(ref) is not type(new) or repr(ref) != repr(new):
        return [f"{path}: {ref!r} -> {new!r}"]
    return []


def outcome(run: dict) -> dict:
    """The outcome of one run: exit code, verdicts, window rank and the
    pass flag of each check, by name."""
    return {
        "exit": run.get("exit"),
        "verdicts": run.get("verdicts", {}),
        "rank": (run.get("window") or {}).get("rank"),
        "pass": {c["name"]: c["pass"] for c in run.get("checks", [])},
    }


def flag_mismatches(ref: dict, new: dict) -> list[str]:
    """`exact_mismatches` of the outcomes of two sweeps: every exit code,
    verdict, window rank or check pass flag that differs, and every run or
    check present in only one of them."""
    return exact_mismatches(
        {case: outcome(run) for case, run in ref.items()},
        {case: outcome(run) for case, run in new.items()},
    )


def drift_mismatches(ref: dict, new: dict) -> tuple[list[str], dict[str, float]]:
    """The baseline rule: exit codes and window ranks are equal; verdicts,
    pass flags, residual drift and psd_margin follow
    report.compare_reports's rule; the validation residuals,
    doubly-commuting residuals and NS values have the same names and drift
    by at most VALIDATION_DRIFT; every run is in both sweeps.

    Returns every field beyond its band, and the largest finite drift of the
    check residuals, the psd_margins and each of DRIFT_SECTIONS over the
    runs of both sweeps."""
    problems = [f"{case}: run present in only one sweep" for case in sorted(ref.keys() ^ new.keys())]
    largest = dict.fromkeys(("checks", "psd_margin") + DRIFT_SECTIONS, 0.0)

    def note(section: str, a, b) -> float:
        drift = abs(b - a)
        if math.isfinite(drift):
            largest[section] = max(largest[section], drift)
        return drift

    for case in sorted(ref.keys() & new.keys()):
        old, run = ref[case], new[case]
        if run["exit"] != old["exit"]:
            problems.append(f"{case}: exit {old['exit']} vs {run['exit']}")
        if (old["window"] or {}).get("rank") != (run["window"] or {}).get("rank"):
            problems.append(f"{case}: window rank {old['window']} vs {run['window']}")
        _ok, mismatches, _warnings = compare_reports(old, run)
        problems.extend(f"{case}: {m}" for m in mismatches)
        new_checks = {c["name"]: c["residual"] for c in run["checks"]}
        for c in old["checks"]:
            if c["name"] in new_checks:
                note("checks", c["residual"], new_checks[c["name"]])
        if old["window"] and run["window"]:
            note("psd_margin", old["window"]["psd_margin"], run["window"]["psd_margin"])
        for section in DRIFT_SECTIONS:
            ref_val, new_val = old[section], run[section]
            if sorted(ref_val) != sorted(new_val):
                problems.append(f"{case}: {section} keys {sorted(ref_val)} vs {sorted(new_val)}")
                continue
            problems.extend(
                f"{case}: {section} {name} {ref_val[name]!r} vs {new_val[name]!r}"
                for name in sorted(ref_val)
                if not note(section, ref_val[name], new_val[name]) <= VALIDATION_DRIFT
            )
    return problems, largest


def _drift(ref: dict, new: dict) -> list[str]:
    """drift_mismatches, with the largest drift per section printed."""
    problems, largest = drift_mismatches(ref, new)
    for section, drift in largest.items():
        print(f"largest {section} drift: {drift!r}")
    return problems


COMPARISONS = {"--exact": exact_mismatches, "--flags": flag_mismatches, "--drift": _drift}


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] in COMPARISONS:
        baseline = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        # round-trip through JSON so that floats compare as the baseline stores them
        fresh = json.loads(json.dumps(run_sweep()))
        mismatches = COMPARISONS[argv[0]](baseline, fresh)
        for line in mismatches:
            print(line)
        print(f"{len(mismatches)} field(s) differ from {argv[1]}", file=sys.stderr)
        return 1 if mismatches else 0
    if len(argv) != 1:
        print("usage: sweep.py OUT.json | sweep.py --exact|--flags|--drift BASELINE.json", file=sys.stderr)
        return 2
    Path(argv[0]).write_text(json.dumps(run_sweep(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
