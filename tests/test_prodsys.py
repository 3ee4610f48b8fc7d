import numpy as np
import pytest

from dilationlab import cstar
from dilationlab.correspondence import algebra_correspondence, trivial_correspondence
from dilationlab.errors import (
    IncoherentFlipsError,
    InvalidArgumentError,
    InvalidFlipError,
)
from dilationlab.prodsys import ProductSystem


@pytest.fixture(scope="module")
def scalar_system():
    alg = cstar.make_algebra([1])
    gens = [trivial_correspondence(alg, 1) for _ in range(2)]
    return ProductSystem(alg, gens, {(1, 2): np.eye(1)})


@pytest.fixture(scope="module")
def m2_system():
    alg = cstar.make_algebra([2])
    return ProductSystem(alg, [algebra_correspondence(alg)])


def test_scalar_fibers_and_iso(scalar_system):
    assert scalar_system.fiber_dim((3, 2)) == 1
    iso = scalar_system.mult_iso((1, 0), (0, 1))
    assert iso.mu.shape == (1, 1)
    assert abs(abs(iso.mu[0, 0]) - 1.0) < 1e-12


def test_m2_fiber_dims(m2_system):
    # M_2 (x)_{M_2} ... (x)_{M_2} M_2 = M_2 at every level
    for s in range(1, 4):
        assert m2_system.fiber_dim((s,)) == 4


def test_mult_iso_unitarity(m2_system, scalar_system):
    for s, t in [((0,), (2,)), ((1,), (0,)), ((1,), (1,)), ((2,), (1,))]:
        assert m2_system.mult_iso_unitarity(s, t) < 1e-10
    for s, t in [((0, 0), (1, 1)), ((1, 0), (0, 1)), ((1, 2), (2, 1))]:
        assert scalar_system.mult_iso_unitarity(s, t) < 1e-10


def test_associativity(m2_system, scalar_system):
    assert m2_system.check_associativity((1,), (1,), (1,)) < 1e-10
    assert scalar_system.check_associativity((1, 0), (0, 1), (1, 1)) < 1e-10
    assert scalar_system.check_associativity((0, 0), (1, 0), (0, 1)) < 1e-10


def test_normal_word():
    assert ProductSystem.normal_word((2, 0, 1)) == (1, 1, 3)
    assert ProductSystem.normal_word((0, 0)) == ()


def test_invalid_flip_rejected():
    alg = cstar.make_algebra([1])
    gens = [trivial_correspondence(alg, 1) for _ in range(2)]
    with pytest.raises(InvalidFlipError):
        ProductSystem(alg, gens, {(1, 2): np.array([[2.0]])})


def test_missing_and_misshapen_flips():
    alg = cstar.make_algebra([1])
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
    alg = cstar.make_algebra([1])
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
