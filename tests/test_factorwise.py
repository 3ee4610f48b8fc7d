"""The builders that apply maps of the form A (x) I factor by factor, against
their former Kronecker-product bodies, and a guard that they form no
Kronecker product or raw tensor."""

import numpy as np
import pytest

from dilationlab import correspondence, cstar, lattice, prodsys
from dilationlab.correspondence import Correspondence, algebra_correspondence, trivial_correspondence
from dilationlab.dilation import DilationBundle, kolmogorov, window_gram
from dilationlab.families import FAMILIES, generate
from dilationlab.instances import parse_instance
from dilationlab.prodsys import ProductSystem
from dilationlab.representation import AlgebraRepresentation, CCRepresentation
from oracles import (
    append_map_kron,
    flip_residual_dense,
    lowering_raw,
    lowering_raw_kron,
    mult_iso_kron,
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
        got = system._flip_residual(i, j, phi)
        assert abs(got - flip_residual_dense(system, i, j, phi)) <= TOL
        assert got == system.validation[f"flip_{i}_{j}"]


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
    """With np.kron made to raise, the product system (its validation
    included) and the representation are rebuilt; with the raw tensor made
    to raise as well, every fiber, multiplication map, lowering block and
    targets(s) over the box builds. Only the validation's flip check, on
    the raw Gram of a generator pair, runs before the raw tensor is
    forbidden. Every word the system builds is a normal (sorted) word."""
    assert not hasattr(prodsys, "kron")
    given = GUARDED[name](request)
    _forbid(monkeypatch, np, "kron")
    system = ProductSystem(given.system.algebra, given.system.generators, given.system.flips)
    rep = CCRepresentation(system, given.sigma, given.t_maps)
    _forbid(monkeypatch, correspondence, "_raw_tensor")
    with pytest.raises(AssertionError, match="called"):
        correspondence._raw_tensor(system.generators[0], system.generators[0])
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
