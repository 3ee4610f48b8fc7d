import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilationlab import lattice

points = st.tuples(st.integers(0, 5), st.integers(0, 5))


def test_zero_and_unit():
    assert lattice.zero(3) == (0, 0, 0)
    assert lattice.unit(3, 2) == (0, 1, 0)
    with pytest.raises(ValueError):
        lattice.unit(2, 3)


@given(points, points)
def test_pos_neg_parts_decompose(s, t):
    m = lattice.meet(s, t)
    assert lattice.leq(m, s) and lattice.leq(m, t)
    # s - m and t - m are the positive and negative parts of s - t
    pos, neg = lattice.sub(s, m), lattice.sub(t, m)
    assert lattice.sub(pos, neg) == lattice.sub(s, t)
    assert all(a == 0 or b == 0 for a, b in zip(pos, neg, strict=True))


@given(points, points)
def test_leq_is_componentwise(s, t):
    assert lattice.leq(s, t) == all(a <= b for a, b in zip(s, t, strict=True))


def test_box_graded_lex_order():
    pts = lattice.box((2, 1))
    assert pts[0] == (0, 0)
    grades = [sum(p) for p in pts]
    assert grades == sorted(grades)
    assert len(pts) == 6
    assert len(set(pts)) == 6


def test_restrict_and_support():
    assert lattice.restrict((3, 4, 5), {1, 3}) == (3, 0, 5)
    assert lattice.support((0, 2, 0, 1)) == (2, 4)


def test_subsets_order():
    subs = list(lattice.subsets((1, 2)))
    assert subs == [(), (1,), (2,), (1, 2)]


@pytest.mark.parametrize("name", ["add", "sub", "leq", "meet"])
def test_binary_helpers_reject_points_of_different_lengths(name):
    helper = getattr(lattice, name)
    with pytest.raises(ValueError):
        helper((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        helper((1, 2, 3), (1, 2))
