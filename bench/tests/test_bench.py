"""Smoke tests of the benchmark: every code path, no assertions on timings.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, oracle_failure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    info, result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    env = info["environment"]
    assert env["blas_threads"] in (1, None)
    assert env["src_sha256"] and env["numpy"] and env["python"]
    if trace:
        assert result["metrics"]["instances.parse_instance.calls"]["value"] >= 1
        assert result["metrics"]["hatspace.dim_HL"]["value"] >= 1


def test_traced_counts_repeat_for_one_seed():
    _, first = result_of(run_bench("window-scalar", 1, seed=11))
    _, second = result_of(run_bench("window-scalar", 1, seed=11))
    assert second["metrics"]["trace.exact_count_mismatches"]["value"] == 0
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in (first, second)]
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("window-scalar", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_patches_every_namespace_and_restores():
    import numpy as np

    import dilationlab.cli
    import dilationlab.dilation
    import dilationlab.hatspace
    import dilationlab.linalg

    original = dilationlab.linalg.opnorm
    tracer = Tracer().install()
    try:
        assert dilationlab.cli.window_gram is dilationlab.dilation.window_gram
        assert dilationlab.hatspace.opnorm is dilationlab.linalg.opnorm is not original
        tracer.instance = 0
        dilationlab.hatspace.opnorm(np.eye(3))
    finally:
        tracer.uninstall()
    assert dilationlab.hatspace.opnorm is original
    stats = tracer.aggregate()
    assert stats["linalg.opnorm"]["calls"] == 1
    # the SVD inside np.linalg.norm(m, 2) is a child span of opnorm
    assert stats["numpy.linalg.svd"]["calls"] == 1
    assert stats["numpy.linalg.svd"]["n3_computed"] == 27
    opnorm = stats["linalg.opnorm"]
    assert opnorm["self_s"] == pytest.approx(opnorm["total_s"] - stats["numpy.linalg.svd"]["self_s"])


@pytest.mark.parametrize(
    "family, code, verdicts, ok",
    [
        ("nilpotent-counterexample", 3, {}, True),
        ("nilpotent-counterexample", 0, {"dilation_verified": True}, False),
        ("diagonal-doubly-commuting", 0, {"dilation_verified": True}, True),
        ("diagonal-doubly-commuting", 0, {"dilation_verified": False}, False),
        ("multiplication-isometric", 4, {}, False),
        ("random-contractive", 3, {"satisfies_NS": False}, True),
        ("random-contractive", 3, {"satisfies_NS": True}, False),
        ("random-contractive", 0, {"satisfies_NS": False, "dilation_verified": True}, True),
    ],
)
def test_oracle(family, code, verdicts, ok):
    assert (oracle_failure(family, code, {"verdicts": verdicts}) is None) == ok


def test_oracle_counts_crashes_and_unreadable_reports():
    assert oracle_failure("scalar-commuting", None, None) == "uncaught exception"
    assert oracle_failure("scalar-commuting", 0, None) == "unparseable report"
