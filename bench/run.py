"""`dilation-lab dilate` benchmark: end-to-end metrics or a per-module trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload window-scalar --seed 1 --seconds 10 --trace 0

Each run starts fresh worker processes (`bench/worker.py`) with BLAS pinned
to one thread in their environment. With `--trace 0` it reports set-up time
(median over several fresh workers), throughput, median and tail latency,
peak RSS and the smallest check headroom; with `--trace 1` it reports calls,
total and self time per wrapped function, computed numpy kernel sizes,
dilation sizes, the tracing overhead and the exact-count check. Every
instance's outcome is checked against its family's oracle. The last line of
standard output is the result object; the line before it records the
environment and the details behind the metrics. `--smoke` runs one small
instance per workload in seconds, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

# Fresh workers whose set-up time is sampled in an untraced run; the last
# one also measures. setup_s is their median.
SETUP_SAMPLES = 3
# A run must end within 180 s; workers get what is left of this budget.
BUDGET_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # The CLI only prints this variable; it caps nothing, so it is not used.
    env.pop("DILATION_LAB_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def call_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget exhausted before the worker started")
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=remaining,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if proc.returncode == 0:
                sha = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_thread_env": {v: worker_env()[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measured time per run (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="one small instance, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dilationlab" / "__init__.py").is_file():
        print(f"bench: no dilationlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    common += ["--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    try:
        setup_samples = []
        for i in range(0 if args.trace else SETUP_SAMPLES - 1):
            out = call_worker(common + ["--setup-only", "--workdir", str(workdir / f"setup-{i}")], deadline)
            setup_samples.append(out["setup_s"])
        res = call_worker(common + ["--workdir", str(workdir / "run")], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_samples.append(res["setup_s"])

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    failed = len(res["failures"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "setup_samples_s": setup_samples,
        "passes": res["passes"],
        "batch_size": res["batch_size"],
        "latency_p50": f"lower median of {len(res['latencies_s'])} samples",
        "latency_tail": (
            f"slowest of the {res['batch_size']} instances of a pass, median over {res['passes']} passes: "
            "a pass has fewer than 11 samples, so no percentile has ten beyond it"
        ),
        "latencies_s": res["latencies_s"],
        "failed_frac": failed / res["attempted"],
        "failures": res["failures"][:10],
        "trace": res.get("trace"),
    }
    env = environment() | {k: res[k] for k in ("src_sha256", "python", "numpy", "blas", "blas_threads")}
    print(json.dumps({"environment": env, "detail": detail}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": res["attempted"], "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
