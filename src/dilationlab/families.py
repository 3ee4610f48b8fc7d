"""Deterministic instance generators for the CLI and the test suites.

Every family produces an instance dict (the JSON file format) that parses
and validates; the structural families guarantee the property they are
named after by construction.
"""

from __future__ import annotations

import numpy as np

from .correspondence import algebra_correspondence, trivial_correspondence
from .cstar import CStarAlgebra
from .errors import InvalidArgumentError
from .instances import instance_to_json
from .linalg import opnorm
from .prodsys import ProductSystem
from .representation import AlgebraRepresentation, CCRepresentation


def _scalar_system(k: int) -> ProductSystem:
    algebra = CStarAlgebra([1])
    gens = [trivial_correspondence(algebra, 1) for _ in range(k)]
    flips = {
        (i, j): np.eye(1) for i in range(1, k + 1) for j in range(i + 1, k + 1)
    }
    return ProductSystem(algebra, gens, flips)


def _scalar_instance(t_mats: list[np.ndarray]) -> dict:
    """Instance over A = C with one-dimensional generators and given T_i."""
    k = len(t_mats)
    system = _scalar_system(k)
    d = t_mats[0].shape[0]
    sigma = AlgebraRepresentation(system.algebra, d, np.eye(d)[None, :, :])
    rep = CCRepresentation(system, sigma, [m[None, :, :] for m in t_mats])
    return instance_to_json(system, rep)


def _contraction(rng: np.random.Generator, d: int, radius: float = 0.9) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return radius * m / max(opnorm(m), 1e-12)


def scalar_commuting(seed: int = 0, k: int = 2, dims: int | None = None) -> dict:
    """Scalar contractions on H = C: always commuting and doubly commuting."""
    rng = np.random.default_rng(seed)
    vals = 0.95 * rng.uniform(0.1, 1.0, size=k) * np.exp(2j * np.pi * rng.uniform(size=k))
    return _scalar_instance([np.array([[v]]) for v in vals])


def diagonal_doubly_commuting(seed: int = 0, k: int = 2, dims: int | None = None) -> dict:
    """Commuting diagonal contractions: T_j T_l* = T_l* T_j holds exactly."""
    d = dims or 2
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(k):
        diag = 0.95 * rng.uniform(0.05, 1.0, size=d) * np.exp(2j * np.pi * rng.uniform(size=d))
        mats.append(np.diag(diag))
    return _scalar_instance(mats)


def multiplication_isometric(seed: int = 0, k: int = 2, dims: int | None = None) -> dict:
    """A = M_n acting on C^n by multiplication; every T~_s is unitary."""
    n = dims or 2
    algebra = CStarAlgebra([n])
    corr = algebra_correspondence(algebra)
    gens = [corr for _ in range(k)]
    m = corr.dim
    flips = {
        (i, j): np.eye(m * m)
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
    }
    system = ProductSystem(algebra, gens, flips)
    sigma = AlgebraRepresentation(algebra, n, algebra.basis_mats.copy())
    t_maps = [algebra.basis_mats.copy() for _ in range(k)]
    rep = CCRepresentation(system, sigma, t_maps)
    return instance_to_json(system, rep)


def random_contractive(seed: int = 0, k: int = 2, dims: int | None = None) -> dict:
    """Commuting contractions (polynomials in one random matrix), scaled.

    No structural guarantee beyond commutation: may or may not be doubly
    commuting or dilatable.
    """
    d = dims or 2
    rng = np.random.default_rng(seed)
    z = _contraction(rng, d, radius=1.0)
    mats = []
    for _ in range(k):
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        m = coeffs[0] * np.eye(d) + coeffs[1] * z + coeffs[2] * (z @ z)
        # random norms straddling the Brehmer boundary so the family
        # produces both dilatable and non-dilatable instances
        radius = rng.uniform(0.35, 0.95)
        mats.append(radius * m / max(opnorm(m), 1e-12))
    return _scalar_instance(mats)


def nilpotent_counterexample(seed: int = 0, k: int = 2, dims: int | None = None) -> dict:
    """T_1 = T_2 = e_12 on C^2: commuting contractions with no regular
    isometric dilation."""
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    return _scalar_instance([e12, e12])


FAMILIES = {
    "scalar-commuting": scalar_commuting,
    "diagonal-doubly-commuting": diagonal_doubly_commuting,
    "multiplication-isometric": multiplication_isometric,
    "random-contractive": random_contractive,
    "nilpotent-counterexample": nilpotent_counterexample,
}


def generate(family: str, seed: int = 0, k: int = 2, dims: int | None = None) -> dict:
    builder = FAMILIES.get(family)
    if builder is None:
        raise InvalidArgumentError(
            f"unknown family {family!r}; known: {', '.join(sorted(FAMILIES))}"
        )
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if dims is not None and dims < 1:
        raise InvalidArgumentError(f"dims must be >= 1, got {dims}")
    return builder(seed=seed, k=k, dims=dims)
