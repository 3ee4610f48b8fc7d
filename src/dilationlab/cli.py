"""Command-line interface: validate / check / dilate / gen / verify.

Exit codes: 0 success (dilate: dilation verified), 1 mathematically invalid
instance, 2 parse/schema/I-O error, 3 not dilatable (window Gram not PSD),
4 dilatable but a verification check failed, 5 golden-file mismatch (verify
of a matching report exits with the fresh run's code), 6 out of memory
(validate/check/dilate/verify: an allocation failed; the report carries the
message under "error" and has no verdicts). A numpy LinAlgError
(a factorization that does not converge, a singular solve) exits 1 with the
same kind of report.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import lattice
from .dilation import (
    compare_minimal_dilations,
    kolmogorov,
    verify_doubly_commuting_V,
    verify_regular_dilation,
    window_gram,
)
from .errors import (
    DilationLabError,
    InstanceFormatError,
    InvalidArgumentError,
    NotWellDefinedError,
)
from .families import FAMILIES, generate
from .hatspace import TruncatedFock, hat_checks
from .instances import Instance, is_count, load_instance
from .report import check_record, compare_reports, make_report, render
from .representation import (
    brehmer_check_NS,
    brehmer_keys,
    doubly_commuting_check,
    doubly_commuting_keys,
    validate_representation,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FORMAT = 2
EXIT_NOT_DILATABLE = 3
EXIT_CHECK_FAILED = 4
EXIT_GOLDEN_MISMATCH = 5
EXIT_OUT_OF_MEMORY = 6

VALIDATION_TOL = 1e-10
DERIVED_TOL = 1e-8  # identities assembled through pseudo-inverses


def _parse_point(text: str, k: int, what: str) -> lattice.Point:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InstanceFormatError(f"bad {what} {text!r}: expected comma-separated ints") from None
    if len(parts) == 1:
        parts = parts * k
    if len(parts) != k or any(p < 0 for p in parts):
        raise InstanceFormatError(f"bad {what} {text!r} for k={k}")
    return parts


def _check_point(value, k: int, least: int, name: str) -> None:
    if not (isinstance(value, list) and len(value) == k and all(is_count(v, least) for v in value)):
        raise InstanceFormatError(
            f"parameter {name} must be a list of {k} integers >= {least}, got {value!r}"
        )


def _resolve_params(inst: Instance, args, reference: dict | None = None) -> dict:
    """The instance's parameters (defaults filled in), overlaid by a
    reference report's and then by the flags. The tolerance was resolved
    the same way before the instance was built (see _run). Every window
    parameter is checked here, whatever its source; a bad one is a format
    error."""
    k = inst.system.k
    params = {**inst.parameters, **(reference or {})}
    if getattr(args, "L", None) is not None:
        params["L"] = list(_parse_point(args.L, k, "--L"))
    if getattr(args, "M", None) is not None:
        params["M"] = list(_parse_point(args.M, k, "--M"))
    if getattr(args, "guard", None) is not None:
        params["guard"] = args.guard
    params["tol"] = inst.system.tol
    _check_point(params["L"], k, 0, "L")
    if params.get("M") is None:
        params["M"] = list(params["L"])
    _check_point(params["NS_box"], k, 0, "NS_box")
    # isometric_rep needs V_{e_i} for every generator
    _check_point(params["M"], k, 1, "M")
    if not is_count(params["guard"], 0):
        raise InstanceFormatError(f"parameter guard must be an integer >= 0, got {params['guard']!r}")
    return params


def _validation_section(inst: Instance) -> tuple[dict, bool]:
    residuals = dict(inst.system.validation)
    residuals.update(validate_representation(inst.representation))
    worst = max(residuals.values(), default=0.0)
    return {k: float(v) for k, v in residuals.items()}, worst <= VALIDATION_TOL


def _check_section(inst: Instance, params: dict) -> tuple[dict, dict]:
    """Doubly-commuting residuals per generator pair and the Brehmer-type
    minimum eigenvalues over the configured box.

    The doubly-commuting residual of (j, l) is doubly_commuting_check at
    bound e_j + e_l, whose one block has the norm of the defect of
    (sigma, T). The
    Brehmer sum for (v, s) depends on s only through s[v], so it is
    computed once per restricted point and reported under every key. The
    lowering blocks of both checks are requested in one build, the
    doubly-commuting keys first, pair by pair in doubly_commuting_keys'
    order, so a block that does not descend raises for the key a
    check-by-check loop would meet first; the sums of one v then take one
    brehmer_check_NS call, which stacks them by rank.
    """
    rep = inst.representation
    k = inst.system.k
    pairs = [(j, l) for j in range(1, k + 1) for l in range(j + 1, k + 1)]
    # per nonempty v, the restricted point s[v] of each box point s > 0 on v
    restricted = {
        v: {s: lattice.restrict(s, v) for s in lattice.box(tuple(params["NS_box"])) if all(s[i - 1] for i in v)}
        for v in lattice.subsets(range(1, k + 1))
        if v
    }
    points = {v: list(dict.fromkeys(by_s.values())) for v, by_s in restricted.items()}
    bounds = {(j, l): lattice.add(lattice.unit(k, j), lattice.unit(k, l)) for j, l in pairs}
    keys = [key for (j, l), bound in bounds.items() for key in doubly_commuting_keys(k, j, l, bound)]
    keys += [key for v, svs in points.items() for key in brehmer_keys(v, svs)]
    rep.build(keys=keys)
    dc = {f"{j},{l}": doubly_commuting_check(rep, j, l, bound) for (j, l), bound in bounds.items()}
    ns = {}
    for v, by_s in restricted.items():
        by_sv = dict(zip(points[v], brehmer_check_NS(rep, v, points[v])))
        ns.update((f"v={list(v)},s={list(s)}", by_sv[sv]) for s, sv in by_s.items())
    return dc, ns


def run_pipeline(inst: Instance, command: str, params: dict) -> tuple[dict, int]:
    """Shared validate -> check -> dilate -> verify pipeline."""
    start = time.monotonic()
    checks: list[dict] = []
    verdicts: dict = {}
    window_section = None
    exit_code = EXIT_OK

    validation, valid = _validation_section(inst)
    verdicts["valid"] = valid
    extra = {"validation": validation}
    if not valid:
        exit_code = EXIT_INVALID
        failed = sorted(name for name, res in validation.items() if not res <= VALIDATION_TOL)
        extra["error"] = f"validation residuals above {VALIDATION_TOL:.1e}: {', '.join(failed)}"
    elif command in ("check", "dilate"):
        dc, ns = _check_section(inst, params)
        extra["doubly_commuting"] = dc
        extra["NS"] = ns
        verdicts["doubly_commuting"] = all(v <= DERIVED_TOL for v in dc.values())
        ns_min = min(ns.values(), default=0.0)
        extra["NS_min_eigenvalue"] = ns_min
        verdicts["satisfies_NS"] = ns_min >= -VALIDATION_TOL

        if command == "dilate":
            tol = float(params["tol"])
            guard = int(params["guard"])
            space = TruncatedFock(inst.representation, params["L"])
            checks.extend(check_record(name, res) for name, res in hat_checks(space).items())
            k = inst.system.k
            pairs = [(j, l) for j in range(1, k + 1) for l in range(j + 1, k + 1)]
            if pairs and verdicts["doubly_commuting"]:
                dc_hat = max(doubly_commuting_check(inst.representation, j, l, space.bound) for j, l in pairs)
                checks.append(check_record("doubly_commuting_hat", dc_hat))
            window = window_gram(inst.representation, params["M"])
            window_section = {
                "M": list(window.bound),
                "rank": 0,
                "psd_margin": window.psd_margin,
            }
            verdicts["dilatable"] = window.psd_margin >= -tol
            if not verdicts["dilatable"]:
                verdicts["dilation_verified"] = False
                exit_code = EXIT_NOT_DILATABLE
            else:
                bundle = kolmogorov(window, tol=tol)
                window_section["rank"] = bundle.rank
                try:
                    for name, res in verify_regular_dilation(bundle, guard=guard).items():
                        checks.append(check_record(name, res))
                    if pairs and verdicts["doubly_commuting"]:
                        dc_v = max(verify_doubly_commuting_V(bundle, j, l, guard=guard) for j, l in pairs)
                        checks.append(check_record("doubly_commuting_V", dc_v))
                    checks.append(check_record("uniqueness", compare_minimal_dilations(bundle, tol)))
                except NotWellDefinedError as exc:
                    # the V_0 and V_{e_i} solves, or a descent through them
                    checks.append(check_record("V_recovery", float("inf")))
                    print(f"dilation-lab: operator recovery failed: {exc}", file=sys.stderr)
                verdicts["dilation_verified"] = all(c["pass"] for c in checks)
                if not verdicts["dilation_verified"]:
                    exit_code = EXIT_CHECK_FAILED

    report = make_report(
        inst.digest,
        command,
        params,
        checks,
        verdicts,
        window=window_section,
        timing=round(time.monotonic() - start, 6),
    )
    report.update(extra)
    return report, exit_code


def _emit(text: str, out: str | None) -> None:
    """Write text to the file out, else to stdout; main exits 2 when out cannot be written."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DilationLabError(f"cannot write {out}: {exc.strerror or exc}") from None


def _emit_error(args, command: str, inst: Instance | None, params: dict, verdicts: dict, error: str) -> None:
    inst_digest = "" if inst is None else inst.digest
    report = make_report(inst_digest, command, params, [], verdicts)
    report["error"] = error
    _emit(render(report), getattr(args, "out", None))


def _abort(args, command: str, inst: Instance | None, params: dict, exc: Exception) -> int:
    """Report a MemoryError (exit 6) or a numpy LinAlgError (exit 1): the
    message goes under "error", with no checks or verdicts."""
    if isinstance(exc, MemoryError):
        error, code = "out of memory", EXIT_OUT_OF_MEMORY
    else:
        error, code = "linear algebra failure", EXIT_INVALID
    if str(exc):
        error = f"{error}: {exc}"
    print(f"dilation-lab: {error}", file=sys.stderr)
    _emit_error(args, command, inst, params, {}, error)
    return code


def _run(args, command: str, reference: dict | None = None) -> tuple[dict | None, int]:
    """Load the instance, resolve its parameters (over a reference report's
    when given) and run the pipeline: (report, exit code). A run that cannot
    complete returns (None, exit code), having emitted its error report
    unless the input is malformed."""
    inst = None
    params: dict = {}
    try:
        # the system is built with the tolerance of the run: the flag's,
        # else the reference report's, else the instance's
        tol = getattr(args, "tol", None)
        if tol is None and reference is not None:
            tol = reference.get("tol")
        inst = load_instance(args.path, tol=tol)
        params = _resolve_params(inst, args, reference)
        return run_pipeline(inst, command, params)
    except InstanceFormatError as exc:
        print(f"dilation-lab: {exc}", file=sys.stderr)
        return None, EXIT_FORMAT
    except (InvalidArgumentError, NotWellDefinedError) as exc:
        print(f"dilation-lab: invalid instance: {exc}", file=sys.stderr)
        _emit_error(args, command, inst, params, {"valid": False}, str(exc))
        return None, EXIT_INVALID
    except (MemoryError, np.linalg.LinAlgError) as exc:
        return None, _abort(args, command, inst, params, exc)


def _run_command(args, command: str) -> int:
    report, code = _run(args, command)
    if report is not None:
        _emit(render(report), getattr(args, "out", None))
    return code


def cmd_validate(args) -> int:
    return _run_command(args, "validate")


def cmd_check(args) -> int:
    code = _run_command(args, "check")
    # check reports verdicts; a completed run exits 0 unless it could not run
    return code if code in (EXIT_INVALID, EXIT_FORMAT, EXIT_OUT_OF_MEMORY) else EXIT_OK


def cmd_dilate(args) -> int:
    return _run_command(args, "dilate")


def cmd_gen(args) -> int:
    try:
        data = generate(args.family, seed=args.seed, k=args.k, dims=args.dims)
    except InvalidArgumentError as exc:
        print(f"dilation-lab: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    _emit(json.dumps(data, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.report, encoding="utf-8") as fh:
            reference = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"dilation-lab: cannot read reference report: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    ref_params = (reference.get("parameters") or {}) if isinstance(reference, dict) else None
    if not isinstance(ref_params, dict):
        print("dilation-lab: reference report: parameters must be an object", file=sys.stderr)
        return EXIT_FORMAT
    fresh, code = _run(args, reference.get("command", "dilate"), ref_params)
    if fresh is None:
        return code
    ok, mismatches, warn = compare_reports(reference, fresh)
    for w in warn:
        print(f"dilation-lab: warning: {w}", file=sys.stderr)
    if not ok:
        for m in mismatches:
            print(f"dilation-lab: mismatch: {m}", file=sys.stderr)
        return EXIT_GOLDEN_MISMATCH
    _emit(render(fresh), getattr(args, "out", None))
    # matching reports: the exit code is the fresh run's, as under its command
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it as
    it is, and in-process callers run `main` once per instance."""
    parser = argparse.ArgumentParser(
        prog="dilation-lab",
        description="Numerical engine for product-system representations and "
        "their regular isometric dilations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_window=True):
        p.add_argument("path", help="instance JSON file")
        p.add_argument("--out", help="write the report JSON here instead of stdout")
        p.add_argument("--tol", type=float, help="validation/PSD tolerance (default 1e-10)")
        if with_window:
            p.add_argument("--L", help="truncation bound, e.g. 3 or 3,3")
            p.add_argument("--M", help="window bound, e.g. 3 or 3,3")
            p.add_argument("--guard", type=int, help="guard margin for adjoint checks (default 1)")

    p = sub.add_parser("validate", help="schema + mathematical validation only")
    add_common(p, with_window=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="doubly-commuting and Brehmer-type condition")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dilate", help="full dilation pipeline with verification")
    add_common(p)
    p.set_defaults(func=cmd_dilate)

    p = sub.add_parser("gen", help="generate a deterministic family instance")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=2, help="number of generators")
    p.add_argument("--dims", type=int, help="family size parameter (H dim / block size)")
    p.add_argument("--out", help="write the instance JSON here instead of stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="golden-file regression against a reference report")
    add_common(p)
    p.add_argument("--report", required=True, help="reference report JSON")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DilationLabError as exc:
        print(f"dilation-lab: {exc}", file=sys.stderr)
        return EXIT_FORMAT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
