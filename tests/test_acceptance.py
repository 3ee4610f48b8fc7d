"""Acceptance suite: one criterion per test, one [PASS]/[FAIL] line each."""

import json
import time

import numpy as np
import pytest

from dilationlab import cli, lattice
from dilationlab.dilation import (
    compare_minimal_dilations,
    kolmogorov,
    verify_doubly_commuting_V,
    verify_regular_dilation,
    window_gram,
)
from dilationlab.errors import NotPositiveDefiniteError
from dilationlab.families import _scalar_instance, generate
from dilationlab.hatspace import TruncatedFock
from dilationlab.instances import parse_instance
from dilationlab.linalg import opnorm
from dilationlab.representation import brehmer_check_NS, brehmer_rows, doubly_commuting_check
from oracles import (
    DenseFock,
    a_action,
    build_Vs,
    check_hat_semigroup,
    check_technology,
    gen_block,
    generating_matrix,
    random_element,
    schaffer_inner_products,
)

from conftest import INSTANCES_DIR


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _suite_instances():
    """Twenty deterministic two-generator instances across all families."""
    instances = []
    for seed in range(7):
        instances.append(parse_instance(generate("scalar-commuting", seed=seed)))
    for seed in range(7):
        instances.append(
            parse_instance(generate("diagonal-doubly-commuting", seed=seed, dims=2))
        )
    for seed in range(2):
        instances.append(
            parse_instance(generate("multiplication-isometric", seed=seed, dims=2))
        )
    for seed in range(3):
        instances.append(parse_instance(generate("random-contractive", seed=seed, dims=2)))
    instances.append(parse_instance(generate("nilpotent-counterexample")))
    return instances


def test_criterion_1_hat_semigroup_suite():
    """T^ is an exact contractive semigroup satisfying the module identities."""
    start = time.monotonic()
    bound = (3, 3)
    worst = 0.0
    instances = _suite_instances()
    assert len(instances) >= 20
    rng = np.random.default_rng(0)
    for inst in instances:
        space = TruncatedFock(inst.representation, bound)
        dense = DenseFock(space)
        pts = [s for s in space.blocks if sum(s) <= 3]
        for s in pts:
            worst = max(worst, max(0.0, opnorm(dense.hat(s)) - 1.0))
            for t in pts:
                worst = max(worst, check_hat_semigroup(space, s, t))
            if not lattice.is_zero(s):
                m = inst.system.fiber_dim(s)
                x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                h = rng.standard_normal(inst.representation.dim) + 0j
                worst = max(worst, check_technology(dense, s, x, h))
        a = random_element(inst.algebra, rng)
        pa = a_action(dense, a)
        for s in pts:
            hs = dense.hat(s)
            worst = max(worst, opnorm(pa @ hs - hs @ pa))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed <= 60.0
    _report(
        "criterion 1 (semigroup/norm/module identities on 20 instances)",
        ok,
        f"worst residual {worst:.3e} (tol 1e-10), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_single_contraction_matches_schaffer():
    """Minimal dilation inner products match the classical one-variable form."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(10):
        d = int(rng.integers(1, 5))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        t = rng.uniform(0.3, 0.98) * m / opnorm(m)
        inst = parse_instance(_scalar_instance([t]))
        bundle = kolmogorov(window_gram(inst.representation, (4,)))
        g = generating_matrix(bundle)
        oracle = schaffer_inner_products(t, 4)
        worst = max(worst, float(np.abs(g.conj().T @ g - oracle).max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed <= 30.0
    _report(
        "criterion 2 (10 random contractions vs classical dilation oracle)",
        ok,
        f"worst deviation {worst:.3e} (tol 1e-9), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_3_nilpotent_counterexample(nilpotent_pair, tmp_path):
    """The nilpotent pair is detected as non-dilatable at every layer."""
    [ns] = brehmer_check_NS(nilpotent_pair.representation, (1, 2), brehmer_rows((1, 2), [(1, 1)]))
    window = window_gram(nilpotent_pair.representation, (2, 2))
    raised = False
    try:
        kolmogorov(window)
    except NotPositiveDefiniteError:
        raised = True
    code = cli.main(
        [
            "dilate",
            str(INSTANCES_DIR / "nilpotent_pair.json"),
            "--out",
            str(tmp_path / "report.json"),
        ]
    )
    ok = (
        abs(ns + 1.0) <= 1e-12
        and window.psd_margin < -0.1
        and raised
        and code == cli.EXIT_NOT_DILATABLE
    )
    _report(
        "criterion 3 (nilpotent counterexample rejected)",
        ok,
        f"NS min eig {ns:.12f}, margin {window.psd_margin:.4f}, exit {code}",
    )


def _dc_instances():
    out = []
    for seed in range(4):
        out.append(parse_instance(generate("scalar-commuting", seed=seed)))
    for seed in range(4):
        out.append(
            parse_instance(generate("diagonal-doubly-commuting", seed=seed, dims=2))
        )
    for seed in range(2):
        out.append(
            parse_instance(generate("multiplication-isometric", seed=seed, dims=2))
        )
    return out


@pytest.fixture(scope="module")
def dc_bundles():
    bundles = []
    for inst in _dc_instances():
        bundles.append((inst, kolmogorov(window_gram(inst.representation, (3, 3)))))
    return bundles


def test_criterion_4_doubly_commuting_dilations(dc_bundles):
    """Ten doubly commuting instances dilate with commuting-adjoint isometries."""
    start = time.monotonic()
    worst_hat = worst_reg = worst_item4 = worst_dc = 0.0
    for inst, bundle in dc_bundles:
        worst_hat = max(worst_hat, doubly_commuting_check(inst.representation, 1, 2, bundle.window.bound))
        checks = verify_regular_dilation(bundle, guard=1)
        for name in ("regular_item1", "regular_item2", "regular_item3"):
            worst_reg = max(worst_reg, checks[name])
        worst_item4 = max(worst_item4, checks["regular_item4"])
        worst_dc = max(worst_dc, verify_doubly_commuting_V(bundle, 1, 2, guard=1))
    elapsed = time.monotonic() - start
    ok = (
        worst_hat <= 1e-10
        and worst_reg <= 1e-8
        and worst_item4 <= 1e-6
        and worst_dc <= 1e-6
        and elapsed <= 300.0
    )
    _report(
        "criterion 4 (10 doubly commuting instances dilate and verify)",
        ok,
        f"hat-DC {worst_hat:.2e}, items1-3 {worst_reg:.2e}, item4 {worst_item4:.2e}, "
        f"V-DC {worst_dc:.2e}, {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_5_brehmer_criterion_decides_dilatability():
    """The alternating-sum criterion on the box predicts kernel positivity."""
    worst_margin = 0.0
    worst_check = 0.0
    seen_negative = 0
    for inst in _suite_instances():
        rep = inst.representation
        ns_ok = True
        for v in [(1,), (2,), (1, 2)]:
            if min(brehmer_check_NS(rep, v, brehmer_rows(v, [(s1, s2) for s1 in (1, 2) for s2 in (1, 2)]))) < -1e-10:
                ns_ok = False
        window = window_gram(rep, (2, 2))
        if ns_ok:
            worst_margin = min(worst_margin, window.psd_margin)
            bundle = kolmogorov(window)
            worst_check = max(worst_check, max(verify_regular_dilation(bundle).values()))
        else:
            seen_negative += 1
            # reported, never asserted: the kernel margin for a failing instance
            print(f"    (info) failing-NS instance margin {window.psd_margin:.4f}")
    ok = worst_margin >= -1e-8 and worst_check <= 1e-6 and seen_negative >= 1
    _report(
        "criterion 5 (Brehmer-type criterion vs kernel positivity)",
        ok,
        f"worst satisfied-NS margin {worst_margin:.3e} (floor -1e-8), "
        f"worst verification residual {worst_check:.2e}, {seen_negative} negatives seen",
    )


def test_criterion_6_factorization_backends_agree(dc_bundles):
    """Eigen and pivoted-Cholesky factorizations give the same dilation."""
    worst = 0.0
    for inst, bundle in dc_bundles[:4]:
        worst = max(worst, compare_minimal_dilations(bundle, 1e-10))
    ok = worst <= 1e-9
    _report(
        "criterion 6 (backend-independence of the minimal dilation)",
        ok,
        f"worst cross-backend deviation {worst:.3e} (tol 1e-9)",
    )


def test_criterion_7_isometric_representation_is_its_own_dilation(mult_m2):
    """An isometric representation dilates to itself: K_min = H."""
    bundle = kolmogorov(window_gram(mult_m2.representation, (2, 2)))
    gen0 = gen_block(bundle, (0, 0))
    rng = np.random.default_rng(9)
    worst = 0.0
    for i, s in [(0, (1, 0)), (1, (0, 1)), (0, (2, 1))]:
        m = mult_m2.system.fiber_dim(s)
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v = build_Vs(bundle, s, x)
        t = mult_m2.representation.t_raw(s) @ np.kron(x[:, None], np.eye(2))
        worst = max(worst, float(opnorm(gen0.conj().T @ v @ gen0 - t)))
    rank = bundle.k_min_rank()
    ok = worst <= 1e-10 and rank == mult_m2.representation.dim
    _report(
        "criterion 7 (isometric representation: compression exact, K_min = H)",
        ok,
        f"compression residual {worst:.3e} (tol 1e-10), "
        f"K_min rank {rank} vs dim H {mult_m2.representation.dim}",
    )


def test_criterion_8_reports_are_deterministic(tmp_path):
    """Repeated pipeline runs produce byte-identical reports modulo timing."""
    path = str(INSTANCES_DIR / "scalar_pair.json")
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main(["dilate", path, "--L", "2", "--out", str(out)]) == cli.EXIT_OK
        data = json.loads(out.read_text())
        data.pop("timing", None)
        texts.append(json.dumps(data, sort_keys=True))
    ok = texts[0] == texts[1]
    _report(
        "criterion 8 (byte-deterministic reports modulo timing)",
        ok,
        f"{len(texts[0])} canonical bytes compared",
    )
