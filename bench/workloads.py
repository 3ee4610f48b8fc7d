"""Workload batches of the `dilate` benchmark and the family oracle.

Each workload is a fixed list of cases. A case names a generator family, its
`k` and `dims`, and the truncation/window bound `L = M` passed to `dilate`.
The benchmark seed only picks the family seeds, so the sizes, and with them
the cost profile of a workload, do not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    family: str
    k: int
    dims: int | None
    L: int


@dataclass(frozen=True)
class Workload:
    batch: tuple[Case, ...]
    smoke: tuple[Case, ...]


WORKLOADS: dict[str, Workload] = {
    # Full-rank window Grams of dimension 512 and 768: the kernel window,
    # Kolmogorov factor and a posteriori verification dominate. With two of
    # the three instances at dims=2, p50 is a dims=2 latency instead of the
    # mean of two sizes 3x apart, and the tail is the dims=3 instance.
    "window-scalar": Workload(
        batch=(
            Case("diagonal-doubly-commuting", 2, 2, 3),
            Case("diagonal-doubly-commuting", 2, 2, 3),
            Case("diagonal-doubly-commuting", 2, 3, 3),
        ),
        smoke=(Case("diagonal-doubly-commuting", 2, 2, 1),),
    ),
    # Non-scalar algebras: product-system validation, interior tensors and
    # localization dominate; the window Gram is small and rank-deficient.
    # The family ignores the seed. The M2 instance appears four times, so
    # p50 is the middle of its latencies rather than an edge of them, and
    # the tail is the M3 instance.
    "algebra-blocks": Workload(
        batch=(
            Case("multiplication-isometric", 2, 3, 2),
            Case("multiplication-isometric", 3, 2, 1),
            Case("multiplication-isometric", 3, 2, 1),
            Case("multiplication-isometric", 3, 2, 1),
            Case("multiplication-isometric", 3, 2, 1),
        ),
        smoke=(Case("multiplication-isometric", 2, 2, 1),),
    ),
}


def cases(workload: str, smoke: bool) -> tuple[Case, ...]:
    w = WORKLOADS[workload]
    return w.smoke if smoke else w.batch


def family_seed(seed: int, index: int) -> int:
    """Seed handed to the family generator for case `index` of a batch."""
    return (seed * 1_000_003 + index) % (2**31)


def oracle_failure(family: str, code, report: dict | None) -> str | None:
    """Why an instance's outcome is wrong for its family, or None if it is right.

    nilpotent-counterexample must be rejected (exit 3). The structural
    families must dilate and verify (exit 0). random-contractive must dilate
    when it satisfies the Brehmer-type condition NS and may be rejected
    otherwise: NS implies positivity, not the converse.
    """
    if code is None:
        return "uncaught exception"
    if report is None:
        return "unparseable report"
    verdicts = report.get("verdicts")
    if not isinstance(verdicts, dict):
        return "report has no verdicts"
    if family == "nilpotent-counterexample":
        allowed = {3}
    elif family == "random-contractive" and not verdicts.get("satisfies_NS"):
        allowed = {0, 3}
    else:
        allowed = {0}
    if code not in allowed:
        return f"exit code {code}, expected one of {sorted(allowed)}"
    if code == 0 and verdicts.get("dilation_verified") is not True:
        return "exit code 0 without dilation_verified"
    return None
