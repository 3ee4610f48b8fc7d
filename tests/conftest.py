import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dilationlab.correspondence import Correspondence, trivial_correspondence
from dilationlab.cstar import CStarAlgebra
from dilationlab.families import _scalar_instance, generate
from dilationlab.instances import parse_instance
from dilationlab.prodsys import ProductSystem
from dilationlab.representation import AlgebraRepresentation, CCRepresentation

INSTANCES_DIR = Path(__file__).parent.parent / "instances"


def _scalar_pair_data() -> dict:
    return _scalar_instance([np.array([[0.6]]), np.array([[0.8]])])


@pytest.fixture(scope="session")
def scalar_pair():
    """T_1 = 0.6, T_2 = 0.8 on C: commuting, doubly commuting, dilatable."""
    return parse_instance(_scalar_pair_data())


@pytest.fixture
def scalar_pair_data():
    """The instance JSON of `scalar_pair`, a fresh copy per test."""
    return _scalar_pair_data()


@pytest.fixture(scope="session")
def nilpotent_pair():
    """T_1 = T_2 = e_12 on C^2: no regular isometric dilation."""
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    return parse_instance(_scalar_instance([e12, e12]))


@pytest.fixture(scope="session")
def half_scalar():
    """Single contraction T = 0.5 on C."""
    return parse_instance(_scalar_instance([np.array([[0.5]])]))


@pytest.fixture(scope="session")
def mult_m2():
    """M_2 acting on C^2 by multiplication, k = 2: isometric fixed point."""
    return parse_instance(generate("multiplication-isometric", seed=0, k=2, dims=2))


@pytest.fixture(scope="session")
def unitary_flip_rep():
    """k = 2 over C with generators C^2 and C^3, a random unitary flip and
    random (not commuting) T maps on C^2. Every generated family has
    identity flips; this representation is the one whose flip is not."""
    alg = CStarAlgebra([1])
    rng = np.random.default_rng(11)
    flip, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    system = ProductSystem(alg, [trivial_correspondence(alg, m) for m in (2, 3)], {(1, 2): flip})
    d = 2
    sigma = AlgebraRepresentation(alg, d, np.eye(d, dtype=complex)[None])
    t_maps = [0.3 * (rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))) for m in (2, 3)]
    return CCRepresentation(system, sigma, t_maps)


def degenerate_swap_rep(k: int = 2, projectors: bool = False) -> CCRepresentation:
    """k generators C^3 over C with random rank-2 Grams B_i^H B_i and swap
    flips; T_i(e_a) = sum_c B_i[c, a] S_ic vanishes on the null vectors.
    Every fiber quotients its raw word by a null space, and at k = 3 a
    letter appended to a normal word moves left past up to four larger
    letters on the box (2, 2, 2). With `projectors`, each B_i has
    orthonormal rows, so every kept eigenvalue of a fiber's null trace is
    1: with random B_i, the null eigenvalues of words of length 6 read
    rounding of the size of the absolute 1e-10 cutoff."""
    alg = CStarAlgebra([1])
    rng = np.random.default_rng(5)
    eye = np.eye(3)[None]
    swap = np.eye(9).reshape(3, 3, 3, 3).transpose(1, 0, 2, 3).reshape(9, 9)
    gens, t_maps = [], []
    for _ in range(k):
        b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        if projectors:
            b = np.linalg.qr(b.conj().T)[0].conj().T
        gens.append(Correspondence(alg, (b.conj().T @ b)[:, :, None], eye, eye))
        s = 0.1 * (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
        t_maps.append(np.tensordot(b, s, axes=(0, 0)))
    flips = {(i, j): swap for i in range(1, k + 1) for j in range(i + 1, k + 1)}
    system = ProductSystem(alg, gens, flips)
    sigma = AlgebraRepresentation(alg, 2, np.eye(2, dtype=complex)[None])
    return CCRepresentation(system, sigma, t_maps)
