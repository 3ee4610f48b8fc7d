import sys

import numpy as np
import pytest

from dilationlab import cstar, lattice
from dilationlab.correspondence import descend_map
from dilationlab.errors import InvalidArgumentError, NotWellDefinedError
from dilationlab.families import _scalar_instance, generate
from dilationlab.hatspace import TruncatedFock
from dilationlab.instances import parse_instance
from dilationlab.linalg import opnorm
from dilationlab.representation import (
    AlgebraRepresentation,
    brehmer_check_NS,
    doubly_commuting_check,
    doubly_commuting_keys,
    validate_representation,
    validate_sigma,
)
from oracles import (
    DenseFock,
    brehmer_sum_scalar,
    commutation_residual_raw_pair,
    doubly_commuting_defect_quotient,
    is_fully_coisometric,
    is_isometric,
    lowering_raw,
    lowering_raw_quotient,
    sigma_residuals_loop,
)


def test_fixtures_validate(scalar_pair, nilpotent_pair, half_scalar, mult_m2):
    for inst in (scalar_pair, nilpotent_pair, half_scalar, mult_m2):
        report = validate_representation(inst.representation)
        assert max(report.values()) <= 1e-10, report


def test_contraction_violation_flagged():
    inst = parse_instance(_scalar_instance([np.array([[1.5]])]))
    report = validate_representation(inst.representation)
    assert report["contraction_1"] == pytest.approx(0.5, abs=1e-12)


def test_commutation_violation_flagged():
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    inst = parse_instance(_scalar_instance([e12, e12.T.copy()]))
    report = validate_representation(inst.representation)
    assert report["commutation_1_2"] > 1e-6


def test_t_raw_semigroup(scalar_pair):
    rep = scalar_pair.representation
    # T(1,1) acting on loc coordinates equals the product of the scalars
    t = rep.t_raw((2, 1))
    assert t.shape == (1, 1)
    assert t[0, 0] == pytest.approx(0.6**2 * 0.8, abs=1e-12)


def test_multiplication_rep_is_isometric(mult_m2):
    rep = mult_m2.representation
    for s in [(1, 0), (0, 1), (2, 1)]:
        assert is_isometric(rep, s)
        assert is_fully_coisometric(rep, s)


def test_scalar_not_isometric(half_scalar):
    assert not is_isometric(half_scalar.representation, (1,))


def test_doubly_commuting_scalar_and_diagonal(scalar_pair):
    assert doubly_commuting_check(scalar_pair.representation, 1, 2, (1, 1)) < 1e-12
    assert doubly_commuting_check(scalar_pair.representation, 2, 1, (3, 2)) < 1e-12


def test_doubly_commuting_fails_for_jordan_pair():
    j = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    inst = parse_instance(_scalar_instance([j, j]))
    assert max(validate_representation(inst.representation).values()) <= 1e-10
    assert doubly_commuting_check(inst.representation, 1, 2, (1, 1)) == pytest.approx(
        0.09, abs=1e-10
    )


def test_doubly_commuting_check_arguments(scalar_pair):
    with pytest.raises(InvalidArgumentError):
        doubly_commuting_check(scalar_pair.representation, 1, 1, (1, 1))


def test_doubly_commuting_keys_per_block():
    """Four keys per block r with b <= r and r + a <= bound: at a + b the
    one block r = b; none when the box leaves no room for a."""
    assert doubly_commuting_keys(2, 1, 2, (1, 1)) == [
        ((1, 0), (1, 0)),
        ((0, 1), (0, 1)),
        ((1, 1), (0, 1)),
        ((1, 1), (1, 0)),
    ]
    blocks = [keys[1][0] for keys in _chunks(doubly_commuting_keys(3, 2, 1, (2, 1, 1)), 4)]
    assert blocks == [(1, 0, 0), (1, 0, 1), (2, 0, 0), (2, 0, 1)]  # in the order of lattice.box
    assert doubly_commuting_keys(2, 1, 2, (0, 3)) == []


def _chunks(items, size):
    return [items[x : x + size] for x in range(0, len(items), size)]


@pytest.mark.parametrize(
    "v,s",
    [
        ((1,), (1, 0)),
        ((2,), (0, 1)),
        ((1, 2), (1, 1)),
        ((1, 2), (2, 1)),
        ((1, 2), (1, 2)),
        ((1, 2), (2, 2)),
    ],
)
def test_brehmer_matches_scalar_oracle(scalar_pair, v, s):
    [got] = brehmer_check_NS(scalar_pair.representation, v, [s])
    want = brehmer_sum_scalar((0.6, 0.8), v, s)
    assert got == pytest.approx(want, abs=1e-12)


def test_brehmer_nilpotent_is_minus_one(nilpotent_pair):
    [got] = brehmer_check_NS(nilpotent_pair.representation, (1, 2), [(1, 1)])
    assert got == pytest.approx(-1.0, abs=1e-12)


def test_brehmer_isometric_is_zero(mult_m2):
    [got] = brehmer_check_NS(mult_m2.representation, (1, 2), [(1, 1)])
    assert got == pytest.approx(0.0, abs=1e-10)


def test_lowering_block_zero_shift_is_identity(mult_m2, scalar_pair):
    # loc(0) is H itself, not X(0) (x) H: the zero shift must be sized by loc(t)
    for inst in (mult_m2, scalar_pair):
        rep = inst.representation
        for t in [(0, 0), (1, 0), (1, 1)]:
            block = rep.lowering_block(t, (0, 0))
            assert np.array_equal(block, np.eye(rep.loc(t).rank))


def test_validate_sigma_matches_loop_oracle(mult_m2):
    """The stacked *-homomorphism residuals equal the per-pair loop's, on
    representations of M_2, M_3 and C + M_2, and on random matrices (nonzero
    residuals)."""
    m3 = parse_instance(generate("multiplication-isometric", seed=0, k=2, dims=3))
    sigmas = [mult_m2.representation.sigma, m3.representation.sigma]
    rng = np.random.default_rng(8)
    for blocks, d in (([1, 2], 3), ([3], 2)):
        alg = cstar.CStarAlgebra(blocks)
        mats = rng.standard_normal((alg.dim, d, d)) + 1j * rng.standard_normal((alg.dim, d, d))
        sigmas.append(AlgebraRepresentation(alg, d, mats))
    for sigma in sigmas:
        alg = sigma.algebra
        res = validate_sigma(sigma)
        want = sigma_residuals_loop(alg.mul_table, alg.adj_table, sigma.mats)
        got = (res["multiplicative"], res["star_preserving"])
        assert np.allclose(got, want, rtol=0, atol=1e-13), (got, want)


def _quotient_cases(request):
    """Representations with non-trivial module quotients (M_3, M_2 k=3), a
    non-identity flip, and nonzero doubly-commuting defects."""
    def rep_of(family, **kwargs):
        return parse_instance(generate(family, **kwargs)).representation

    yield "M3 k=2", rep_of("multiplication-isometric", k=2, dims=3)
    yield "M2 k=3", rep_of("multiplication-isometric", k=3, dims=2)
    yield "unitary flip", request.getfixturevalue("unitary_flip_rep")
    for seed in (0, 1):
        yield f"random-contractive {seed}", rep_of("random-contractive", seed=seed)
    j = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    yield "jordan", parse_instance(_scalar_instance([j, j])).representation


def test_lowering_raw_matches_quotient_split(request):
    """The per-key raw lowering map, split through the Hermitian solve
    mu^H (mu mu^H)^{-1}, equals the q^H U^{-1} split for every 0 < s < t in
    the box."""
    for name, rep in _quotient_cases(request):
        box = lattice.box((2,) * rep.system.k)
        for t in box:
            for s in box:
                if lattice.is_zero(s) or s == t or not lattice.leq(s, t):
                    continue
                got = lowering_raw(rep, t, s)
                want = lowering_raw_quotient(rep, t, s)
                assert np.abs(got - want).max() <= 1e-12, (name, t, s)


def test_doubly_commuting_defect_matches_quotient_oracle(request):
    """At bound a + b the one block of the check, built from its keys, is
    the negated adjoint of the defect of (sigma, T) on the localized
    reduced pairs, and the check is its norm."""
    seen_nonzero = False
    for name, rep in _quotient_cases(request):
        k = rep.system.k
        for j in range(1, k + 1):
            for l in range(1, k + 1):
                if j == l:
                    continue
                bound = lattice.add(lattice.unit(k, j), lattice.unit(k, l))
                a_a, b_b, ab_b, ab_a = rep.build(keys=doubly_commuting_keys(k, j, l, bound))
                block = a_a.conj().T @ b_b - ab_b @ ab_a.conj().T
                want = doubly_commuting_defect_quotient(rep, j, l)
                assert np.abs(block + want.conj().T).max() <= 1e-13, (name, j, l)
                got = doubly_commuting_check(rep, j, l, bound)
                assert abs(got - opnorm(want)) <= 1e-13, (name, j, l)
                seen_nonzero |= np.abs(want).max() > 1e-3
    assert seen_nonzero


def test_doubly_commuting_defect_is_hat_block(request):
    """On the box up to a + b the dense T^_a^H T^_b - T^_b T^_a^H vanishes
    outside its block loc(b) -> loc(a), so the check there, of (sigma, T),
    is that block's norm."""
    seen_nonzero = False
    for name, rep in _quotient_cases(request):
        k = rep.system.k
        for j in range(1, k + 1):
            for l in range(1, k + 1):
                if j == l:
                    continue
                a, b = lattice.unit(k, j), lattice.unit(k, l)
                bound = lattice.add(a, b)
                dense = DenseFock(TruncatedFock(rep, bound))
                hat_a, hat_b = dense.hat(a), dense.hat(b)
                hat_defect = hat_a.conj().T @ hat_b - hat_b @ hat_a.conj().T
                rows, cols = dense.block_slice(a), dense.block_slice(b)
                block = hat_defect[rows, cols].copy()
                hat_defect[rows, cols] = 0.0
                assert np.abs(hat_defect).max() <= 1e-13, (name, j, l)
                got = doubly_commuting_check(rep, j, l, bound)
                assert abs(got - opnorm(block)) <= 1e-13, (name, j, l)
                seen_nonzero |= np.abs(block).max() > 1e-3
    assert seen_nonzero


def _forbid_svd(monkeypatch):
    """Make numpy's svd and pinv raise, in numpy.linalg and in every loaded
    numpy.linalg submodule that holds them (numpy calls them internally)."""
    for name in ("svd", "pinv"):
        original = getattr(np.linalg, name)

        def refuse(*_args, _name=name, **_kwargs):
            raise AssertionError(f"np.linalg.{_name} called")

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("numpy.linalg") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize(
    "family, gen_args",
    [("diagonal-doubly-commuting", dict(seed=1, k=2, dims=3)), ("multiplication-isometric", dict(k=3, dims=2))],
)
def test_lowering_blocks_and_passing_descents_take_no_svd(monkeypatch, family, gen_args):
    """Building every lowering block over the box, and a passing descend_map,
    use no SVD: the split is a Hermitian solve and a descent passes on the
    Frobenius bound of its defect. Only the product system's inverse flips,
    one pinv per generator pair, are taken before numpy's SVD is disabled."""
    rep = parse_instance(generate(family, **gen_args)).representation
    sys_ = rep.system
    for i in range(1, sys_.k + 1):
        for j in range(1, i):
            sys_.flip_for(i, j)
    _forbid_svd(monkeypatch)
    with pytest.raises(AssertionError, match="svd called"):
        np.linalg.norm(np.eye(2), 2)
    box = lattice.box((2,) * sys_.k)
    for t in box:
        for s in box:
            if lattice.leq(s, t):
                theta = rep.lowering_block(t, s)
                assert theta.shape == (rep.loc(lattice.sub(t, s)).rank, rep.loc(t).rank)
    e_1 = lattice.unit(sys_.k, 1)
    b, failures = descend_map(rep.t_raw(e_1)[None], [rep.loc(e_1)], [rep.loc(lattice.zero(sys_.k))], rep.tol)
    assert failures == {} and np.array_equal(b[0], rep.lowering_block(e_1, e_1))


def test_singular_split_is_not_well_defined():
    """A multiplication map that is not onto its fiber has a singular
    mu mu^H; the lowering split names the pair instead of dividing by it."""
    rep = parse_instance(generate("diagonal-doubly-commuting", seed=0, k=2, dims=2)).representation
    rest, s = (1, 0), (0, 1)
    mu = rep.system.mult_iso(rest, s)
    rep.system._isos[(rest, s)] = np.zeros_like(mu)
    with pytest.raises(NotWellDefinedError, match=r"\(\(1, 0\), \(0, 1\)\)"):
        rep.lowering_block((1, 1), s)


def test_commutation_residual_matches_raw_pair_oracle(request):
    """The commutation residual, read off the lowering blocks on the
    localized reduced pair X(e_i + e_j), equals the one normed on the
    localized raw pair E_i (x) E_j."""
    seen_nonzero = False
    for name, rep in _quotient_cases(request):
        report = validate_representation(rep)
        k = rep.system.k
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                got = report[f"commutation_{i}_{j}"]
                want = commutation_residual_raw_pair(rep, i, j)
                assert abs(got - want) <= 1e-13 * max(1.0, want), (name, i, j, got, want)
                seen_nonzero |= want > 1e-3
    assert seen_nonzero
