import numpy as np
import pytest

from dilationlab.cstar import CStarAlgebra
from dilationlab.errors import InvalidArgumentError
from oracles import (
    adjoint,
    adjoint_table_loop,
    basis_mats_loop,
    element,
    embed,
    from_matrix,
    is_positive,
    matrix_units,
    mul,
    multiplication_table_loop,
    norm,
    random_element,
)


def test_dimensions():
    alg = CStarAlgebra([2, 1])
    assert alg.dim == 5
    assert alg.rep_dim == 3
    assert alg.basis_mats.shape == (5, 3, 3)


def test_basis_is_matrix_units_block_major():
    alg = CStarAlgebra([2])
    units = matrix_units(2)
    for p in range(4):
        assert np.array_equal(alg.basis_mats[p], units[p])


def test_embed_roundtrip():
    alg = CStarAlgebra([2, 2])
    rng = np.random.default_rng(0)
    a = random_element(alg, rng)
    assert np.allclose(from_matrix(alg, embed(a)).coords, a.coords)


def test_mul_matches_matrix_product():
    alg = CStarAlgebra([2])
    rng = np.random.default_rng(1)
    a, b = random_element(alg, rng), random_element(alg, rng)
    assert np.allclose(embed(mul(a, b)), embed(a) @ embed(b))


def test_adjoint_and_norm():
    alg = CStarAlgebra([2])
    a = element(alg, [0, 1, 0, 0])  # e_12
    assert np.allclose(embed(adjoint(a)), embed(a).conj().T)
    assert norm(a) == pytest.approx(1.0)


def test_unit_and_positivity():
    alg = CStarAlgebra([1, 2])
    one = element(alg, alg.unit)
    assert np.allclose(embed(one), np.eye(3))
    assert is_positive(one)
    a = element(alg, [-1, 0, 0, 0, 0])
    assert not is_positive(a)
    # a* a is always positive
    rng = np.random.default_rng(2)
    b = random_element(alg, rng)
    assert is_positive(mul(adjoint(b), b))


def test_multiplication_table_structure():
    alg = CStarAlgebra([2])
    table = alg.mul_table
    # e_12 e_21 = e_11
    p12, p21, p11 = 1, 2, 0
    expected = np.zeros(4)
    expected[p11] = 1.0
    assert np.allclose(table[p12, p21], expected)


@pytest.mark.parametrize("blocks", [[1], [2], [3], [1, 2], [2, 1, 3]])
def test_tables_match_loops_and_are_read_only(blocks):
    """The basis, multiplication and adjoint tables built once per algebra
    equal their one-product-at-a-time loops and cannot be written."""
    alg = CStarAlgebra(blocks)
    assert np.array_equal(alg.basis_mats, basis_mats_loop(blocks))
    assert np.array_equal(alg.mul_table, multiplication_table_loop(alg))
    assert np.array_equal(alg.adj_table, adjoint_table_loop(alg))
    for table in (alg.basis_mats, alg.mul_table, alg.adj_table):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 2.0


@pytest.mark.parametrize("blocks", [[1], [2], [1, 2], [2, 1, 3]])
def test_unit_is_the_identity_and_read_only(blocks):
    """The unit's coordinates are those of the identity of the faithful
    representation: 1 on the diagonal matrix units, 0 elsewhere."""
    alg = CStarAlgebra(blocks)
    want = from_matrix(alg, np.eye(alg.rep_dim)).coords
    assert alg.unit.dtype == want.dtype and np.array_equal(alg.unit, want)
    assert not alg.unit.flags.writeable
    with pytest.raises(ValueError):
        alg.unit[0] = 2.0


def test_invalid_blocks():
    with pytest.raises(InvalidArgumentError):
        CStarAlgebra([])
    with pytest.raises(InvalidArgumentError):
        CStarAlgebra([0, 2])
