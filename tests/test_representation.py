import numpy as np
import pytest

from dilationlab.errors import InvalidArgumentError
from dilationlab.families import _scalar_instance
from dilationlab.instances import parse_instance
from dilationlab.representation import (
    brehmer_check_NS,
    doubly_commuting_check,
    is_fully_coisometric,
    is_isometric,
    validate_representation,
)
from oracles import brehmer_sum_scalar


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
    assert doubly_commuting_check(scalar_pair.representation, 1, 2, 1, 1) < 1e-12
    assert doubly_commuting_check(scalar_pair.representation, 2, 1, 2, 1) < 1e-12


def test_doubly_commuting_fails_for_jordan_pair():
    j = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    inst = parse_instance(_scalar_instance([j, j]))
    assert max(validate_representation(inst.representation).values()) <= 1e-10
    assert doubly_commuting_check(inst.representation, 1, 2, 1, 1) == pytest.approx(
        0.09, abs=1e-10
    )


def test_doubly_commuting_check_arguments(scalar_pair):
    with pytest.raises(InvalidArgumentError):
        doubly_commuting_check(scalar_pair.representation, 1, 1, 1, 1)
    with pytest.raises(InvalidArgumentError):
        doubly_commuting_check(scalar_pair.representation, 1, 2, 0, 1)


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
    got = brehmer_check_NS(scalar_pair.representation, v, s)
    want = brehmer_sum_scalar((0.6, 0.8), v, s)
    assert got == pytest.approx(want, abs=1e-12)


def test_brehmer_nilpotent_is_minus_one(nilpotent_pair):
    got = brehmer_check_NS(nilpotent_pair.representation, (1, 2), (1, 1))
    assert got == pytest.approx(-1.0, abs=1e-12)


def test_brehmer_isometric_is_zero(mult_m2):
    got = brehmer_check_NS(mult_m2.representation, (1, 2), (1, 1))
    assert got == pytest.approx(0.0, abs=1e-10)


def test_lowering_block_zero_shift_is_identity(mult_m2, scalar_pair):
    # loc(0) is H itself, not X(0) (x) H: the zero shift must be sized by loc(t)
    for inst in (mult_m2, scalar_pair):
        rep = inst.representation
        for t in [(0, 0), (1, 0), (1, 1)]:
            block = rep.lowering_block(t, (0, 0))
            assert np.array_equal(block, np.eye(rep.loc(t).rank))
        assert rep.lowering_raw((0, 0), (0, 0)).shape == (rep.dim, rep.dim)
