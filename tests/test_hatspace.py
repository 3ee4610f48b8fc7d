import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import dilationlab
from dilationlab import lattice
from dilationlab.families import generate
from dilationlab.hatspace import TruncatedFock, hat_checks
from dilationlab.instances import parse_instance
from dilationlab.linalg import opnorm
from dilationlab.representation import brehmer_check_NS, brehmer_rows, doubly_commuting_check
from oracles import (
    DenseFock,
    a_action,
    adjoint,
    brehmer_check_hat,
    check_hat_semigroup,
    check_technology,
    element,
    hat_doubly_commuting_dense,
    hat_semigroup_dense,
    mul,
    random_element,
    technology_dense,
)
from test_acceptance import _suite_instances


def test_scalar_space_dimensions(half_scalar):
    space = TruncatedFock(half_scalar.representation, (2,))
    assert space.dim == 3
    dense = DenseFock(space)
    assert [dense.block_slice(s) for s in space.blocks] == [
        slice(0, 1),
        slice(1, 2),
        slice(2, 3),
    ]


def test_m2_space_dimension(mult_m2):
    # each fiber of M_2 localized over C^2 has rank 2; box (1, 1) has 4 blocks
    space = TruncatedFock(mult_m2.representation, (1, 1))
    assert space.dim == 8


def test_hat_zero_is_identity(half_scalar):
    dense = DenseFock(TruncatedFock(half_scalar.representation, (2,)))
    assert np.array_equal(dense.hat((0,)), np.eye(3))


def test_hat_scalar_entries(half_scalar):
    dense = DenseFock(TruncatedFock(half_scalar.representation, (2,)))
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 2] = 0.5
    assert np.allclose(dense.hat((1,)), expected, atol=1e-14)
    assert np.allclose(dense.hat((2,)), np.diag([0.25], k=2), atol=1e-14)


def test_hat_vanishes_beyond_bound(half_scalar):
    dense = DenseFock(TruncatedFock(half_scalar.representation, (2,)))
    assert opnorm(dense.hat((3,))) == 0.0


def test_hat_semigroup(scalar_pair, mult_m2):
    for inst, bound in [(scalar_pair, (2, 2)), (mult_m2, (2, 2))]:
        space = TruncatedFock(inst.representation, bound)
        pts = lattice.box(bound)
        worst = max(check_hat_semigroup(space, s, t) for s in pts for t in pts)
        assert worst <= 1e-10
        # sums falling off the box are exact as well: both sides vanish there
        assert check_hat_semigroup(space, bound, bound) <= 1e-12


def test_hat_norm_contractive(scalar_pair, mult_m2, nilpotent_pair):
    for inst in (scalar_pair, mult_m2, nilpotent_pair):
        dense = DenseFock(TruncatedFock(inst.representation, (2, 2)))
        for s in dense.space.blocks:
            assert opnorm(dense.hat(s)) <= 1.0 + 1e-10


def test_technology(mult_m2):
    space = TruncatedFock(mult_m2.representation, (2, 1))
    dense = DenseFock(space)
    rng = np.random.default_rng(5)
    for s in [(1, 0), (0, 1), (2, 1)]:
        m = mult_m2.system.fiber_dim(s)
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert check_technology(dense, s, x, h) <= 1e-10
    assert hat_checks(space)["technology"] <= 1e-10


def test_a_action_star_homomorphism(mult_m2):
    dense = DenseFock(TruncatedFock(mult_m2.representation, (2, 2)))
    alg = mult_m2.algebra
    rng = np.random.default_rng(3)
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    pa, pb = a_action(dense, a), a_action(dense, b)
    assert opnorm(a_action(dense, element(alg, alg.unit)) - np.eye(dense.dim)) <= 1e-12
    assert opnorm(pa @ pb - a_action(dense, mul(a, b))) <= 1e-10
    assert opnorm(a_action(dense, adjoint(a)) - pa.conj().T) <= 1e-12


def test_a_action_commutes_with_hat(mult_m2):
    dense = DenseFock(TruncatedFock(mult_m2.representation, (2, 2)))
    pa = a_action(dense, random_element(mult_m2.algebra, np.random.default_rng(4)))
    for s in dense.space.blocks:
        hs = dense.hat(s)
        assert opnorm(pa @ hs - hs @ pa) <= 1e-10


def test_brehmer_hat_half_scalar(half_scalar):
    dense = DenseFock(TruncatedFock(half_scalar.representation, (4,)))
    assert brehmer_check_hat(dense, (1,), (1,)) == pytest.approx(0.75, abs=1e-12)


def test_ns_implies_hat_brehmer(scalar_pair, mult_m2):
    # whenever the one-dimensional-lattice-free criterion holds on the box,
    # the truncated-space alternating sum stays essentially nonnegative
    for inst in (scalar_pair, mult_m2):
        rep = inst.representation
        dense = DenseFock(TruncatedFock(rep, (2, 2)))
        for v in [(1,), (2,), (1, 2)]:
            for s in itertools.product([1, 2], repeat=2):
                if any(s[i - 1] == 0 for i in v):
                    continue
                assert brehmer_check_NS(rep, v, brehmer_rows(v, [s]))[0] >= -1e-10
                assert brehmer_check_hat(dense, v, s) >= -1e-9


def test_nilpotent_hat_brehmer_negative(nilpotent_pair):
    dense = DenseFock(TruncatedFock(nilpotent_pair.representation, (2, 2)))
    assert brehmer_check_hat(dense, (1, 2), (1, 1)) < -0.5


def _blockwise_cases():
    """The criterion-1 corpus at L = (3, 3), plus k = 3 instances at L = (2, 2, 2),
    one of them not doubly commuting."""
    cases = [(inst, (3, 3)) for inst in _suite_instances()]
    for family in ("random-contractive", "diagonal-doubly-commuting"):
        cases.append((parse_instance(generate(family, seed=1, k=3, dims=2)), (2, 2, 2)))
    return cases


def test_blockwise_checks_match_dense_oracle():
    """Each blockwise residual equals the norm of the dense T^ identity."""
    worst = 0.0
    dc_seen = 0.0
    for inst, bound in _blockwise_cases():
        space = TruncatedFock(inst.representation, bound)
        dense = DenseFock(space)
        semi = [
            (check_hat_semigroup(space, s, t), hat_semigroup_dense(dense, s, t))
            for s in space.blocks
            for t in space.blocks
        ]
        worst = max([worst] + [abs(a - b) for a, b in semi])
        checks = hat_checks(space)
        # the package takes the generator steps (e_i, t): a subset of the
        # blocks of all pairs, so never more than the all-pairs value
        k = inst.system.k
        steps = [
            hat_semigroup_dense(dense, lattice.unit(k, i), t)
            for i in range(1, k + 1)
            for t in space.blocks
        ]
        worst = max(worst, abs(checks["hat_semigroup"] - max(steps)))
        assert checks["hat_semigroup"] <= max(a for a, _ in semi)
        worst = max(worst, abs(checks["technology"] - technology_dense(dense)))
        for j, l in itertools.permutations(range(1, k + 1), 2):
            got = doubly_commuting_check(inst.representation, j, l, space.bound)
            worst = max(worst, abs(got - hat_doubly_commuting_dense(dense, j, l)))
            dc_seen = max(dc_seen, got)
    assert worst <= 1e-13
    assert dc_seen > 1e-3  # the comparison covers a nonzero doubly-commuting defect


def test_package_forms_no_dense_hat():
    """The package checks T^ block by block; a dim H_L square T^ matrix is a
    test oracle only (tests/oracles.py DenseFock)."""
    pattern = re.compile(r"\bHatOperator\b|\bdef hat\(|\.hat\(")
    package = Path(dilationlab.__file__).parent
    hits = [
        f"{path.relative_to(package)}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if pattern.search(line)
    ]
    assert hits == []
    assert not hasattr(TruncatedFock, "hat")
