"""The builders that apply maps of the form A (x) I factor by factor, against
their former Kronecker-product bodies, and a guard that they form no
Kronecker product or raw tensor."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from dilationlab import correspondence, cstar, lattice, prodsys
from dilationlab.correspondence import Correspondence, algebra_correspondence, congruent_gram, trivial_correspondence
from dilationlab.dilation import DilationBundle, kolmogorov, window_gram
from dilationlab.errors import InvalidFlipError
from dilationlab.families import FAMILIES, generate
from dilationlab.instances import parse_instance
from dilationlab.prodsys import ProductSystem
from dilationlab.representation import AlgebraRepresentation, CCRepresentation
from oracles import (
    append_map_kron,
    flip_residual_bounds,
    flip_residual_dense,
    lowering_raw,
    lowering_raw_kron,
    mult_iso_kron,
    pair_word_surjection,
    t_raw_kron,
    targets_kron,
)
from sweep import CASES as SWEEP_CASES

TOL = 1e-13


def _multiplication_rep(blocks, k=2):
    """A acting on C^n by multiplication, k generators A with identity flips."""
    alg = cstar.CStarAlgebra(blocks)
    corr = algebra_correspondence(alg)
    m = corr.dim
    flips = {(i, j): np.eye(m * m) for i in range(1, k + 1) for j in range(i + 1, k + 1)}
    system = ProductSystem(alg, [corr] * k, flips)
    sigma = AlgebraRepresentation(alg, alg.rep_dim, alg.basis_mats)
    return CCRepresentation(system, sigma, [alg.basis_mats] * k)


def _degenerate_rep():
    """Generators C^3 over C with random rank-2 Grams B_i^H B_i and swap
    flips; T_i(e_a) = sum_c B_i[c, a] S_ic vanishes on the null vectors."""
    alg = cstar.CStarAlgebra([1])
    rng = np.random.default_rng(5)
    eye = np.eye(3)[None]
    swap = np.eye(9).reshape(3, 3, 3, 3).transpose(1, 0, 2, 3).reshape(9, 9)
    gens, t_maps = [], []
    for _ in range(2):
        b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        gens.append(Correspondence(alg, (b.conj().T @ b)[:, :, None], eye, eye))
        s = 0.1 * (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
        t_maps.append(np.tensordot(b, s, axes=(0, 0)))
    system = ProductSystem(alg, gens, {(1, 2): swap})
    sigma = AlgebraRepresentation(alg, 2, np.eye(2, dtype=complex)[None])
    return CCRepresentation(system, sigma, t_maps)


def _zero_fiber_rep():
    """Scalar pair whose first generator has Gram 0: every fiber X(s) with
    s_1 > 0 is zero-dimensional."""
    alg = cstar.CStarAlgebra([1])
    one = np.ones((1, 1, 1), dtype=complex)
    gens = [Correspondence(alg, 0.0 * one, one, one), trivial_correspondence(alg, 1)]
    system = ProductSystem(alg, gens, {(1, 2): np.eye(1)})
    sigma = AlgebraRepresentation(alg, 1, one)
    return CCRepresentation(system, sigma, [0.0 * one, 0.8 * one])


CASES = {
    "M2": lambda request: _multiplication_rep([2]),
    "M3": lambda request: _multiplication_rep([3]),
    "C+M2": lambda request: _multiplication_rep([1, 2]),
    "degenerate Gram": lambda request: _degenerate_rep(),
    "zero-dimensional fiber": lambda request: _zero_fiber_rep(),
    "unitary flip": lambda request: request.getfixturevalue("unitary_flip_rep"),
}
BOX = (2, 2)


def _bundle(rep, bound):
    """A bundle over the window at `bound`: the Kolmogorov factor where the
    kernel is PSD, else (targets being linear in it) a random factor."""
    window = window_gram(rep, bound)
    if window.psd_margin >= -1e-10:
        return kolmogorov(window)
    rng = np.random.default_rng(0)
    n = window.gram.shape[0]
    return DilationBundle(window, rng.standard_normal((n, n)) + 0j)


@pytest.mark.parametrize("name", sorted(CASES))
def test_product_system_builders_match_kron_bodies(request, name):
    """Append maps, multiplication maps and flip residuals equal their
    Kronecker-product bodies on the same fibers."""
    system = CASES[name](request).system
    box = lattice.box(BOX)
    for s in box:
        word = ProductSystem.normal_word(s)
        for i in range(1, system.k + 1):
            got = system._append_map(word, i)
            assert np.abs(got - append_map_kron(system, word, i)).max(initial=0.0) <= TOL, (word, i)
    for s in box:
        for t in box:
            if lattice.leq(lattice.add(s, t), BOX):
                got = system.mult_iso(s, t)
                assert np.abs(got - mult_iso_kron(system, s, t)).max(initial=0.0) <= TOL, (s, t)
    for (i, j), phi in system.flips.items():
        got = system._flip_residual(i, j, phi, _swapped_word(system, i, j))
        assert got == system.validation[f"flip_{i}_{j}"]
        dense = flip_residual_dense(system, i, j, phi)
        assert got <= 1e-12 and dense <= 1e-12
        bound_reduced, bound_dense = flip_residual_bounds(system, i, j, phi, got)
        assert got <= bound_reduced + TOL and dense <= bound_dense + TOL


def _swapped_word(system, i, j):
    """The non-normal word (j, i), as the flip check builds it."""
    [word] = correspondence.interior_tensor([(system.generators[j - 1], system.generators[i - 1])], system.tol)
    return word


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e-1])
@pytest.mark.parametrize("name", sorted(CASES))
def test_flip_residual_bounds_hold_for_perturbed_flips(request, name, scale):
    """The two-sided bound between the reduced flip residual and the
    raw-Gram residual holds off the valid flips too: each flip plus a
    random perturbation, which also moves null vectors off the null
    space."""
    system = CASES[name](request).system
    rng = np.random.default_rng(3)
    for (i, j), phi in system.flips.items():
        noise = rng.standard_normal(phi.shape) + 1j * rng.standard_normal(phi.shape)
        bad = phi + scale * noise / np.linalg.norm(noise, 2)
        got = system._flip_residual(i, j, bad, _swapped_word(system, i, j))
        bound_reduced, bound_dense = flip_residual_bounds(system, i, j, bad, got)
        assert got <= bound_reduced + TOL
        assert flip_residual_dense(system, i, j, bad) <= bound_dense + TOL


def test_flip_sending_a_null_vector_off_the_null_space_is_invalid():
    """Over C, with rank-2 Grams on C^3, the swap plus a map that vanishes
    off the null space of E_1 (x) E_2 and sends the null vector n (x) e_0
    (n null in E_1) to a vector of positive norm in E_2 (x) E_1: the same
    map on the quotients, so only the null-vanishing term sees it. The
    raw-Gram reference flags it too."""
    alg = cstar.CStarAlgebra([1])
    rng = np.random.default_rng(5)
    eye = np.eye(3)[None]
    swap = np.eye(9).reshape(3, 3, 3, 3).transpose(1, 0, 2, 3).reshape(9, 9)
    gens, kept = [], []
    for _ in range(2):
        b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        gens.append(Correspondence(alg, (b.conj().T @ b)[:, :, None], eye, eye))
        kept.append(np.linalg.svd(b)[2])  # rows: two kept directions, then the null one
    null_ij = np.kron(kept[0][2].conj(), np.eye(3)[0])
    target = np.kron(kept[1][0].conj(), kept[0][0].conj())
    bad = swap + np.outer(target, null_ij.conj())
    valid = ProductSystem(alg, gens, {(1, 2): swap})
    hat = lambda phi, q_ji: q_ji @ phi @ pair_word_surjection(valid, 1, 2).conj().T
    q_ji = _swapped_word(valid, 1, 2)[1]
    assert np.abs(hat(bad, q_ji) - hat(swap, q_ji)).max() <= TOL
    with pytest.raises(InvalidFlipError, match="flip \\(1, 2\\) is not a correspondence isomorphism"):
        ProductSystem(alg, gens, {(1, 2): bad})
    assert flip_residual_dense(valid, 1, 2, bad) > 1e-3


def _weighted_sum(base, weights, rng):
    """The direct sum of copies of `base` with Grams scaled by `weights`,
    in a basis that mixes the copies by a random orthogonal matrix."""
    u, _ = np.linalg.qr(rng.standard_normal((len(weights), len(weights))))
    mix = np.kron(u, np.eye(base.dim))
    n = len(weights) * base.dim
    gram = np.einsum("kl,abp->kalbp", np.diag(weights), base.gram).reshape(n, n, base.gram.shape[2])
    right = np.kron(np.eye(len(weights)), base.right_action)
    left = np.kron(np.eye(len(weights)), base.left_action)
    return Correspondence(base.algebra, congruent_gram(gram, mix), mix.T @ right @ mix, mix.T @ left @ mix)


@pytest.mark.parametrize("blocks", [[1], [2], [1, 2]])
@pytest.mark.parametrize("weak", [1e-2, 1e-4])
def test_valid_flip_with_weak_directions_reads_rounding(blocks, weak):
    """Generators whose null traces keep eigenvalues far below their largest
    one (the direct sum of A and weak * A over A, or over C a Gram with
    eigenvalues 1, weak and 0): the identity flip's residual stays at
    rounding level. The coordinate norms of N = q' phi - F q and of the
    reduced intertwinings F A^_p - A^'_p F read the rounding of the two null
    splits amplified by the inverse of the weak eigenvalues: from 5e-13
    (weak = 1e-2) to 2e-8 (weak = 1e-4) on these cases."""
    alg = cstar.CStarAlgebra(blocks)
    rng = np.random.default_rng(7)
    if blocks == [1]:
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        gram = (u @ np.diag([1.0, weak, 0.0]) @ u.conj().T)[:, :, None]
        gen = Correspondence(alg, gram, np.eye(3)[None], np.eye(3)[None])
    else:
        gen = _weighted_sum(algebra_correspondence(alg), [1.0, weak], rng)
    system = ProductSystem(alg, [gen, gen], {(1, 2): np.eye(gen.dim**2)})
    assert system.validation["flip_1_2"] <= 1e-13


def test_flip_between_words_of_different_dimensions_is_invalid():
    """Over C (+) C, E_1 = C with left action chi_1, right action chi_2 and
    Gram p_2, and E_2 = C with both actions chi_2 and Gram p_2: E_1 (x) E_2
    has Gram p_2 and E_2 (x) E_1 has Gram chi_1(p_2) p_2 = 0, so no flip
    between them is an isomorphism. The raw-Gram reference flags it too."""
    alg = cstar.CStarAlgebra([1, 1])
    chi = [np.array([1.0, 0.0])[:, None, None], np.array([0.0, 1.0])[:, None, None]]
    gram = np.array([0.0, 1.0])[None, None, :]
    gens = [Correspondence(alg, gram, chi[1], chi[0]), Correspondence(alg, gram, chi[1], chi[1])]
    with pytest.raises(InvalidFlipError, match="its words have dimensions 1 and 0"):
        ProductSystem(alg, gens, {(1, 2): np.eye(1)})
    # the reference reads only the generators and the algebra
    assert flip_residual_dense(SimpleNamespace(algebra=alg, generators=gens), 1, 2, np.eye(1)) == 1.0


def test_building_the_m4_product_system_peaks_under_8_mb():
    """The flip check of multiplication-isometric M_4, k = 2, works on the
    16-dimensional pair words: no (256 x 256 x 16) raw Gram is formed."""
    system = parse_instance(generate("multiplication-isometric", k=2, dims=4)).system
    tracemalloc.start()
    try:
        ProductSystem(system.algebra, system.generators, system.flips)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("name", sorted(CASES))
def test_lowering_and_targets_match_kron_bodies(request, name):
    """The raw lowering maps for 0 < s < t of the per-key reference (whose
    descents the grouped build reproduces bit for bit) and the targets of
    every V_s over the box equal their Kronecker-product bodies."""
    rep = CASES[name](request)
    box = lattice.box(BOX)
    for t in box:
        for s in box:
            if lattice.is_zero(s) or s == t or not lattice.leq(s, t):
                continue
            got = lowering_raw(rep, t, s)
            assert np.abs(got - lowering_raw_kron(rep, t, s)).max(initial=0.0) <= TOL, (t, s)
    bundle = _bundle(rep, BOX)
    for s in box:
        got = bundle.targets(s)
        want = targets_kron(bundle, s)
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= TOL * max(1.0, np.abs(want).max(initial=0.0)), s


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_t_raw_matches_kron_body(family):
    """t_raw, composed by reshape and contraction, equals its
    Kronecker-product body at every point of the box of every sweep case
    of the family, within TOL of the body's largest entry."""
    for k, dims, bound in SWEEP_CASES:
        rep = parse_instance(generate(family, k=k, dims=dims)).representation
        for s in lattice.box((bound,) * rep.system.k):
            got, want = rep.t_raw(s), t_raw_kron(rep, s)
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= TOL * np.abs(want).max(initial=0.0), (k, dims, s)


def _forbid(monkeypatch, module, name):
    def refuse(*_args, **_kwargs):
        raise AssertionError(f"{module.__name__}.{name} called")

    monkeypatch.setattr(module, name, refuse)


def _generated_rep(k, dims):
    return parse_instance(generate("multiplication-isometric", k=k, dims=dims)).representation


GUARDED = {
    "M3 k=2": lambda request: _generated_rep(2, 3),
    "M2 k=3": lambda request: _generated_rep(3, 2),
    "unitary flip": lambda request: request.getfixturevalue("unitary_flip_rep"),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_builders_form_no_kron_or_raw_tensor(request, monkeypatch, name):
    """The package has no raw tensor builder, and with np.kron made to
    raise, the product system (its validation included) and the
    representation are rebuilt, and every fiber, multiplication map,
    lowering block and targets(s) over the box builds. Every word the
    system stores is a normal (sorted) word."""
    assert not hasattr(prodsys, "kron")
    assert not hasattr(correspondence, "_raw_tensor")
    given = GUARDED[name](request)
    _forbid(monkeypatch, np, "kron")
    system = ProductSystem(given.system.algebra, given.system.generators, given.system.flips)
    rep = CCRepresentation(system, given.sigma, given.t_maps)
    bound = (2,) * system.k if system.k == 2 else (1,) * system.k
    box = lattice.box(bound)
    for t in box:
        assert system.fiber(t).dim == system.fiber_dim(t)
        for s in box:
            if lattice.leq(lattice.add(s, t), bound):
                system.mult_iso(s, t)
            if lattice.leq(s, t):
                rep.lowering_block(t, s)
    bundle = _bundle(rep, bound)
    for s in box:
        assert bundle.targets(s).shape[0] == system.fiber_dim(s)
    assert all(list(word) == sorted(word) for word in system._words)


@pytest.mark.parametrize(
    "family, gen_args",
    [("diagonal-doubly-commuting", dict(seed=1, k=2, dims=2)), ("multiplication-isometric", dict(k=2, dims=2))],
)
def test_lowering_blocks_and_targets_take_no_tensordot(monkeypatch, family, gen_args):
    """Every lowering block over the (2, 2) box, the fibers and multiplication
    maps behind them, and a targets(s) call run each contraction as one
    matmul on reshaped operands: np.tensordot is made to raise once the
    instance (whose validation uses it) is built."""
    rep = parse_instance(generate(family, **gen_args)).representation
    _forbid(monkeypatch, np, "tensordot")
    with pytest.raises(AssertionError, match="called"):
        np.tensordot(np.eye(2), np.eye(2))
    box = lattice.box(BOX)
    for t in box:
        for s in box:
            if lattice.leq(s, t):
                rep.lowering_block(t, s)
    bundle = _bundle(rep, BOX)
    s = lattice.unit(rep.system.k, 1)
    assert bundle.targets(s).shape[0] == rep.system.fiber_dim(s)
