import tracemalloc

import numpy as np
import pytest

from dilationlab import cstar, lattice
from dilationlab.correspondence import Correspondence, algebra_correspondence, trivial_correspondence
from dilationlab.errors import (
    IncoherentFlipsError,
    InvalidArgumentError,
    InvalidFlipError,
)
from dilationlab.families import generate
from dilationlab.instances import parse_instance
from dilationlab.prodsys import ProductSystem
from oracles import (
    append_map_dense,
    braid_residual_raw,
    check_associativity,
    mult_iso_quotient,
    mult_iso_unitarity,
)


@pytest.fixture(scope="module")
def scalar_system():
    alg = cstar.CStarAlgebra([1])
    gens = [trivial_correspondence(alg, 1) for _ in range(2)]
    return ProductSystem(alg, gens, {(1, 2): np.eye(1)})


@pytest.fixture(scope="module")
def m2_system():
    alg = cstar.CStarAlgebra([2])
    return ProductSystem(alg, [algebra_correspondence(alg)])


def test_scalar_fibers_and_iso(scalar_system):
    assert scalar_system.fiber_dim((3, 2)) == 1
    mu = scalar_system.mult_iso((1, 0), (0, 1))
    assert mu.shape == (1, 1)
    assert abs(abs(mu[0, 0]) - 1.0) < 1e-12


def test_m2_fiber_dims(m2_system):
    # M_2 (x)_{M_2} ... (x)_{M_2} M_2 = M_2 at every level
    for s in range(1, 4):
        assert m2_system.fiber_dim((s,)) == 4


def test_mult_iso_unitarity(m2_system, scalar_system):
    for s, t in [((0,), (2,)), ((1,), (0,)), ((1,), (1,)), ((2,), (1,))]:
        assert mult_iso_unitarity(m2_system, s, t) < 1e-10
    for s, t in [((0, 0), (1, 1)), ((1, 0), (0, 1)), ((1, 2), (2, 1))]:
        assert mult_iso_unitarity(scalar_system, s, t) < 1e-10


def test_associativity(m2_system, scalar_system):
    assert check_associativity(m2_system, (1,), (1,), (1,)) < 1e-10
    assert check_associativity(scalar_system, (1, 0), (0, 1), (1, 1)) < 1e-10
    assert check_associativity(scalar_system, (0, 0), (1, 0), (0, 1)) < 1e-10


def test_normal_word():
    assert ProductSystem.normal_word((2, 0, 1)) == (1, 1, 3)
    assert ProductSystem.normal_word((0, 0)) == ()


def test_invalid_flip_rejected():
    alg = cstar.CStarAlgebra([1])
    gens = [trivial_correspondence(alg, 1) for _ in range(2)]
    with pytest.raises(InvalidFlipError):
        ProductSystem(alg, gens, {(1, 2): np.array([[2.0]])})


def test_missing_and_misshapen_flips():
    alg = cstar.CStarAlgebra([1])
    gens = [trivial_correspondence(alg, 1) for _ in range(2)]
    with pytest.raises(InvalidArgumentError):
        ProductSystem(alg, gens)  # no flip for the pair
    with pytest.raises(InvalidArgumentError):
        ProductSystem(alg, gens, {(1, 2): np.eye(2)})
    with pytest.raises(InvalidArgumentError):
        ProductSystem(alg, gens, {(2, 1): np.eye(1)})


def _random_unitary(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(m)
    return q


def test_incoherent_flips_rejected():
    # three 2-dimensional generators over C with generic unitary flips:
    # each flip alone is a correspondence isomorphism, but the braid
    # (hexagon) identity fails for a generic triple
    alg = cstar.CStarAlgebra([1])
    gens = [trivial_correspondence(alg, 2) for _ in range(3)]
    rng = np.random.default_rng(7)
    flips = {pair: _random_unitary(rng, 4) for pair in [(1, 2), (1, 3), (2, 3)]}
    with pytest.raises(IncoherentFlipsError):
        ProductSystem(alg, gens, flips)
    # the plain swap is always coherent
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[b * 2 + a, a * 2 + b] = 1.0
    system = ProductSystem(alg, gens, {p: swap for p in flips})
    assert max(system.validation.values()) < 1e-12


@pytest.mark.parametrize("raw_dim", [2, 3])
def test_braid_residual_matches_full_word_reference(monkeypatch, raw_dim):
    """The braid check on the multiplication isomorphisms against the raw
    3-letter word reference, each on a freshly built system (mult_iso is
    memoized, so flips swapped after construction would go unseen).

    With identity Grams on C^2 (the swap system of
    test_incoherent_flips_rejected) every quotient surjection is unitary and
    the routes are unitary, so the two residuals are the same norm, for the
    swap and for random unitary flips (whose residual is O(1)). Random
    rank-2 Grams on C^3 quotient each word by its own null space, and the
    random flips are not correspondence isomorphisms there, so the two
    residuals measure different maps: both vanish for the swap and both are
    O(1) for random flips. Random flips fail validation, which is switched
    off to build them."""
    alg = cstar.CStarAlgebra([1])
    rng = np.random.default_rng(7)
    eye = np.eye(raw_dim)[None]
    gens = []
    for _ in range(3):
        b = np.eye(raw_dim) if raw_dim == 2 else rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        gens.append(Correspondence(alg, (b.conj().T @ b)[:, :, None], eye, eye))
    n = raw_dim
    swap = np.eye(n * n).reshape(n, n, n, n).transpose(1, 0, 2, 3).reshape(n * n, n * n)
    pairs = [(1, 2), (1, 3), (2, 3)]
    swapped = ProductSystem(alg, gens, {p: swap for p in pairs})
    monkeypatch.setattr(ProductSystem, "_validate", lambda self: {})
    randomized = ProductSystem(alg, gens, {p: _random_unitary(rng, n * n) for p in pairs})
    (got_swap, want_swap), (got_random, want_random) = (
        (system._braid_residual(1, 2, 3), braid_residual_raw(system, 1, 2, 3))
        for system in (swapped, randomized)
    )
    assert want_random > 0.1
    if raw_dim == 2:
        assert abs(got_swap - want_swap) <= 1e-13
        assert abs(got_random - want_random) <= 1e-13
    else:
        assert max(got_swap, want_swap) <= 1e-12
        assert got_random > 0.1


def test_long_fibers_stay_small():
    """Fibers and multiplication isomorphisms of 8-letter words over M_2 are
    built without maps on the raw 4^8-dimensional word coordinates."""
    system = _generated_system(2, 2)
    tracemalloc.start()
    try:
        system.fiber((4, 4))
        system.mult_iso((3, 4), (1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _generated_system(k, dims):
    return parse_instance(generate("multiplication-isometric", seed=0, k=k, dims=dims)).system


MU_SYSTEMS = {
    "scalar k=2": (lambda request: request.getfixturevalue("scalar_system"), (2, 2)),
    "M2": (lambda request: request.getfixturevalue("m2_system"), (3,)),
    "M3 k=2": (lambda request: _generated_system(2, 3), (2, 2)),
    "M2 k=3": (lambda request: _generated_system(3, 2), (2, 1, 1)),
    "C dims (2, 3), unitary flip": (
        lambda request: request.getfixturevalue("unitary_flip_rep").system,
        (2, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(MU_SYSTEMS))
def test_mu_is_the_projected_quotient_map(request, name):
    """For every pair with s + t in the box, mu equals U q on the quotient q
    of interior_tensor, and pinv(mu) equals q^H pinv(U)."""
    make, bound = MU_SYSTEMS[name]
    system = make(request)
    box = lattice.box(bound)
    pairs = [(s, t) for s in box for t in box if lattice.leq(lattice.add(s, t), bound)]
    for s, t in pairs:
        q, u = mult_iso_quotient(system, s, t)
        mu = system.mult_iso(s, t)
        assert np.abs(mu - u @ q).max() <= 1e-12, (s, t)
        split = q.conj().T @ np.linalg.pinv(u)
        assert np.abs(np.linalg.pinv(mu) - split).max() <= 1e-12, (s, t)


def test_append_map_matches_dense_flip(unitary_flip_rep):
    """The reshaped flip of _append_map equals the dense I (x) flip product
    on every normal word of the box and each appended letter."""
    system = unitary_flip_rep.system
    for s in lattice.box((2, 2)):
        word = ProductSystem.normal_word(s)
        for i in (1, 2):
            want = append_map_dense(system, word, i)
            assert np.abs(system._append_map(word, i) - want).max() <= 1e-12, (word, i)


def test_inverse_flip_is_computed_once(unitary_flip_rep):
    system = unitary_flip_rep.system
    inv = system.flip_for(2, 1)
    assert system.flip_for(2, 1) is inv
    assert np.abs(inv @ system.flips[(1, 2)] - np.eye(6)).max() <= 1e-12


def test_gram_pinv_treats_eigenvalues_at_most_tol_as_null():
    """Over C, a generator Gram with eigenvalues 1, 1e-9 and 0 gives
    reduced fibers whose Grams have eigenvalues 1e-9 and 1 (at e_1) and
    1e-9, 1e-9 and 1 (at 2 e_1). Their pseudo-inverses treat 1e-9 as null
    at tol 1e-8 (localize's null space) and invert it at tol 1e-10; each is
    computed once per (point, tol)."""
    alg = cstar.CStarAlgebra([1])
    eye = np.eye(3)[None]
    gram = np.diag([1.0, 1e-9, 0.0])[:, :, None]
    system = ProductSystem(alg, [Correspondence(alg, gram, eye, eye)])
    for s, nulls in (((1,), 1), ((2,), 2)):
        coarse = np.linalg.eigvalsh(system.gram_pinv(s, 1e-8)[..., 0])
        fine = np.linalg.eigvalsh(system.gram_pinv(s, 1e-10)[..., 0])
        assert np.allclose(coarse, [0.0] * nulls + [1.0], rtol=0.0, atol=1e-9)
        assert np.allclose(fine, [1.0] + [1e9] * nulls, rtol=1e-6)
    assert system.gram_pinv((1,), 1e-8) is system.gram_pinv((1,), 1e-8)


def test_gram_pinv_is_the_moore_penrose_inverse_in_the_algebra(m2_system):
    """Over M2, the coordinates embed to the Moore-Penrose inverse of the
    embedded fiber Gram: G G^+ G = G, G^+ G G^+ = G^+, both products
    Hermitian."""
    alg = m2_system.algebra
    for s in [(1,), (2,)]:
        p, n = m2_system.fiber_dim(s), alg.rep_dim
        gram = m2_system.fiber(s).gram_embedded()
        inv = np.tensordot(m2_system.gram_pinv(s, 1e-8), alg.basis_mats, axes=(2, 0))
        inv = inv.transpose(0, 2, 1, 3).reshape(p * n, p * n)
        assert np.allclose(gram @ inv @ gram, gram, atol=1e-12)
        assert np.allclose(inv @ gram @ inv, inv, atol=1e-12)
        assert np.allclose(gram @ inv, (gram @ inv).conj().T, atol=1e-12)
