"""One benchmark worker process: set up a workload, then time `dilate` on it.

`run.py` starts this script with BLAS pinned to one thread in the
environment, so the pin is in place before numpy loads. The worker imports
`dilationlab` from the checkout's `src/`, generates the workload's instance
files through `families.generate`, and drives `dilationlab.cli.main` in
process. Its last line of standard output is one JSON object for `run.py`.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, cases, family_seed, oracle_failure

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_WORK = ROOT / ".bench_work"


def src_digest() -> str:
    """SHA-256 over the package sources; the checkout need not be a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def setup(workload: str, seed: int, smoke: bool, workdir: Path):
    """Import the package and write the instance files; returns (seconds, cli, files)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import dilationlab
    from dilationlab import cli
    from dilationlab.families import generate

    if not Path(dilationlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"dilationlab was imported from {dilationlab.__file__}, not from {SRC}")
    workdir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, case in enumerate(cases(workload, smoke)):
        data = generate(case.family, seed=family_seed(seed, i), k=case.k, dims=case.dims)
        path = workdir / f"instance-{i}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        files.append(path)
    return time.perf_counter() - start, cli, files


def run_pass(cli, batch, files, reports: Path, tracer=None):
    """dilate every instance once; returns (latencies, exit codes, errors).

    Only the `cli.main` calls are timed. dim K_min is read from the traced
    bundle after each instance, outside the timed call and outside any span.
    """
    latencies, codes, errors = [], [], {}
    for i, (case, path) in enumerate(zip(batch, files)):
        out = reports / f"report-{i}.json"
        out.unlink(missing_ok=True)
        bound = str(case.L)
        argv = ["dilate", str(path), "--L", bound, "--M", bound, "--out", str(out)]
        if tracer is not None:
            tracer.instance = i
        # Each instance starts from a collected heap, as a fresh `dilate`
        # process would, so a cyclic collection triggered by the previous
        # instance's garbage is not charged to this one.
        gc.collect()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an uncaught exception fails the instance, not the run
            code = None
            errors[i] = traceback.format_exc()
        latencies.append(time.perf_counter() - start)
        codes.append(code)
        if tracer is not None:
            tracer.instance = None
            tracer.record_k_min(i)
    return latencies, codes, errors


def check_pass(batch, codes, reports: Path, errors: dict):
    """Oracle failures of one pass and the minimum headroom of its passing checks."""
    failures = []
    headroom = math.inf
    for i, (case, code) in enumerate(zip(batch, codes)):
        report = None
        try:
            report = json.loads((reports / f"report-{i}.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            pass
        reason = oracle_failure(case.family, code, report)
        if reason is not None:
            failures.append({"instance": i, "family": case.family, "reason": reason, "traceback": errors.get(i)})
            continue
        for check in report.get("checks", []):
            if check.get("pass"):
                residual = max(float(check["residual"]), 1e-16)
                headroom = min(headroom, math.log10(float(check["tolerance"]) / residual))
    return failures, headroom


def pass_tail(values: list[float], batch_size: int) -> float:
    """Tail latency of a run: the slowest instance of each pass, as a median
    over the passes. A pass has fewer than eleven instances, so no
    percentile has ten samples beyond it; the slowest instance stands in for
    the tail, and the median keeps one slow pass from setting it."""
    passes = [values[i : i + batch_size] for i in range(0, len(values), batch_size)]
    return statistics.median(max(p) for p in passes)


def blas_info() -> dict:
    """BLAS library from numpy's build configuration and the thread count
    OpenBLAS reports in this process."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:  # no /proc: the thread count stays unknown
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"numpy": numpy.__version__, "blas": name, "blas_threads": threads}


def measure(cli, batch, files, reports: Path, seconds: float):
    """Whole passes over the batch until `seconds` of `dilate` calls have been
    measured. Returns the latencies, the oracle failures, the passes made and
    the smallest headroom."""
    latencies, failures = [], []
    passes = 0
    headroom = math.inf
    while passes == 0 or sum(latencies) < seconds:
        lat, codes, errors = run_pass(cli, batch, files, reports)
        pass_failures, pass_headroom = check_pass(batch, codes, reports, errors)
        latencies += lat
        failures += pass_failures
        headroom = min(headroom, pass_headroom)
        passes += 1
    return latencies, failures, passes, headroom


def exact_count_check(counts: dict, key: str) -> list[str]:
    """Compare with the counts an earlier traced run of the same seed and the
    same sources left in this checkout; the first run records them. Returns
    the names that differ."""
    record = BENCH_WORK / "counts" / f"{key}.json"
    if record.is_file():
        earlier = json.loads(record.read_text(encoding="utf-8"))
        return sorted(n for n in set(earlier) | set(counts) if earlier.get(n) != counts.get(n))
    record.parent.mkdir(parents=True, exist_ok=True)
    tmp = record.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    os.replace(tmp, record)
    return []


def traced(cli, batch, files, reports: Path, key: str, untraced_p50: float):
    from tracer import SIZE_NAMES, Tracer, kernel_names

    tracer = Tracer().install()
    try:
        lat, codes, errors = run_pass(cli, batch, files, reports, tracer)
    finally:
        tracer.uninstall()
    failures, _ = check_pass(batch, codes, reports, errors)

    metrics: dict[str, tuple[float, str]] = {}
    counts: dict[str, int] = {}
    kernels = set(kernel_names())
    for name, entry in tracer.aggregate().items():
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        counts[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
        if name in kernels:
            metrics[f"{name}.n3_computed"] = (entry["n3_computed"], "count")
        else:
            metrics[f"{name}.total_s"] = (entry["total_s"], "s")
    sizes = [tracer.sizes.get(i, {}) for i in range(len(batch))]
    for size in SIZE_NAMES:
        total = sum(s.get(size, 0) for s in sizes)
        metrics[size] = (total, "count")
        counts[size] = total
    kmin = sum(s.get("dilation.k_min_dim", 0) for s in sizes)
    rank = sum(s.get("dilation.factor_rank", 0) for s in sizes)
    metrics["dilation.useful_rank_ratio"] = (kmin / rank if rank else 0.0, "ratio")
    metrics["trace.overhead_p50_s"] = (statistics.median_low(lat) - untraced_p50, "s")
    mismatched = exact_count_check(counts, key)
    metrics["trace.exact_count_mismatches"] = (len(mismatched), "count")

    traces = BENCH_WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{key}.json").write_text(json.dumps(tracer.span_records()), encoding="utf-8")
    detail = {
        "sizes_per_instance": sizes,
        "traced_latencies_s": lat,
        "exact_count_mismatches": mismatched,
        "functions_not_found": tracer.missing,
        "spans_file": str((traces / f"{key}.json").relative_to(ROOT)),
    }
    return metrics, failures, len(lat), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    setup_s, cli, files = setup(args.workload, args.seed, args.smoke, args.workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    batch = cases(args.workload, args.smoke)
    latencies, failures, passes, headroom = measure(cli, batch, files, args.workdir, args.seconds)
    attempted = len(latencies)
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failures": failures,
        "passes": passes,
        "batch_size": len(batch),
        "latencies_s": latencies,
        "metrics": {
            "instances_per_s": (attempted / sum(latencies), "1/s"),
            "latency_p50_s": (statistics.median_low(latencies), "s"),
            "latency_tail_s": (pass_tail(latencies, len(batch)), "s"),
            "min_headroom_log10": (headroom, "log10"),
        },
        "python": platform.python_version(),
        "src_sha256": src_digest(),
        **blas_info(),
    }
    if args.trace:
        key = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "") + f"-{result['src_sha256'][:16]}"
        untraced_p50 = result["metrics"]["latency_p50_s"][0]
        metrics, trace_failures, traced_n, detail = traced(cli, batch, files, args.workdir, key, untraced_p50)
        result["metrics"] = metrics
        result["attempted"] += traced_n
        result["failures"] += trace_failures
        result["trace"] = detail
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"]["peak_rss_mb"] = (rss_mb, "MB")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
