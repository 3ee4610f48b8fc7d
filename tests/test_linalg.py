import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilationlab
from dilationlab.correspondence import LocalizedSpace, descend_map, trivial_localized
from dilationlab.errors import NotWellDefinedError
from dilationlab.linalg import (
    lstsq_map,
    max_opnorm,
    null_split,
    opnorm,
    pinv_and_range,
    pivoted_cholesky,
    psd_factor,
)


def random_psd(rng, n, rank):
    a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return a @ a.conj().T


def test_package_calls_no_numpy_kron():
    """np.kron's per-call overhead made it the largest self-time item of a
    dilate run; the package applies a Kronecker product with an identity by
    reshaping its operand and contracting the other factor, and forms none."""
    pattern = re.compile(r"\b(np|numpy)\.kron\(")
    package = Path(dilationlab.__file__).parent
    hits = [
        f"{path.relative_to(package)}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if pattern.search(line)
    ]
    assert hits == []


def _max_opnorm_cases():
    rng = np.random.default_rng(11)

    def rand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return {
        "no-blocks": [],
        "zero-size": [np.zeros((0, 3)), np.zeros((2, 0))],
        "zero-size-and-one": [np.zeros((0, 3)), rand(2, 2)],
        "one-block": [rand(4, 3)],
        "mixed-shapes": [rand(3, 3), rand(2, 5), rand(3, 3) * 2.0, rand(5, 2), np.zeros((3, 3))],
        "real-and-complex": [rng.standard_normal((2, 2)) * 3.0, rand(2, 2)],
        "zeros": [np.zeros((2, 2)), np.zeros((2, 2))],
    }


@pytest.mark.parametrize("name", sorted(_max_opnorm_cases()))
def test_max_opnorm_equals_max_of_opnorms(name):
    blocks = _max_opnorm_cases()[name]
    want = max((opnorm(b) for b in blocks), default=0.0)
    got = max_opnorm(blocks)
    assert isinstance(got, float)
    assert abs(got - want) <= 1e-14 * max(1.0, want)
    # any iterable of blocks, a generator or a 3-D stack, gives the same
    assert max_opnorm(b for b in blocks) == got


def test_max_opnorm_of_zero_blocks_takes_no_svd(monkeypatch):
    """Exactly zero blocks, such as an identity flip's defects, are normed
    0.0 without an SVD; a nonzero block among them still takes one."""
    blocks = np.zeros((4, 81, 81), dtype=complex)
    want = max_opnorm(np.concatenate([blocks, np.eye(81)[None]]))

    def refuse(*_args, **_kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    got = max_opnorm(blocks)
    assert isinstance(got, float) and got == 0.0
    with pytest.raises(AssertionError, match="svd called"):
        max_opnorm(np.concatenate([blocks, np.eye(81)[None]]))
    assert abs(want - 1.0) <= 1e-14


def test_max_opnorm_takes_a_stack():
    stack = np.random.default_rng(2).standard_normal((6, 3, 4))
    assert abs(max_opnorm(stack) - max(opnorm(b) for b in stack)) <= 1e-14


def test_psd_factor_reconstructs():
    rng = np.random.default_rng(0)
    g = random_psd(rng, 6, 3)
    factor, vals, _ = psd_factor(*np.linalg.eigh(g), 1e-10, "gram")
    assert factor.shape[0] == 3
    assert np.allclose(factor.conj().T @ factor, g, atol=1e-10)
    assert np.all(vals > 0)


def test_null_split_dimensions():
    rng = np.random.default_rng(1)
    g = random_psd(rng, 5, 2)
    [kept] = null_split(g[None], 1e-10, "gram")
    assert kept.shape == (5, 2)
    assert opnorm(kept.conj().T @ kept - np.eye(2)) < 1e-12
    assert opnorm(g - kept @ kept.conj().T @ g) < 1e-9


def test_null_split_of_a_stack_equals_each_split():
    """A stacked null_split gives each matrix the kept basis of its own
    split, whatever the kept dimensions of the others."""
    rng = np.random.default_rng(2)
    grams = np.stack([random_psd(rng, 5, rank) for rank in (2, 5, 0, 3)])
    for g, rank, kept in zip(grams, (2, 5, 0, 3), null_split(grams, 1e-10, "gram")):
        [kept_one] = null_split(g[None], 1e-10, "gram")
        assert np.array_equal(kept, kept_one)
        assert kept.shape == (5, rank)
        assert opnorm(g - kept @ kept.conj().T @ g) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 7), st.integers(0, 7), st.integers(0, 2**32 - 1))
def test_pivoted_cholesky_reconstructs(n, rank, seed):
    rank = min(rank, n)
    rng = np.random.default_rng(seed)
    g = random_psd(rng, n, rank) if rank else np.zeros((n, n), dtype=complex)
    r = pivoted_cholesky(g)
    assert r.shape[0] == rank
    assert np.allclose(r.conj().T @ r, g, atol=1e-9 * max(1.0, opnorm(g)))


def test_lstsq_map_exact_and_inconsistent():
    rng = np.random.default_rng(2)
    b_true = rng.standard_normal((3, 3))
    dom = rng.standard_normal((3, 5))
    b = lstsq_map(b_true @ dom, dom, np.linalg.pinv(dom), 1e-12, "test")
    assert np.allclose(b, b_true)
    # inconsistent targets: domain rank-deficient but targets full
    dom2 = np.array([[1.0, 1.0], [0.0, 0.0]])
    tgt2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NotWellDefinedError) as info:
        lstsq_map(tgt2, dom2, np.linalg.pinv(dom2), 1e-8, "test")
    assert info.value.residual > 0.5
    # the residual is the operator norm of B @ domain - targets
    defect = tgt2 @ np.linalg.pinv(dom2) @ dom2 - tgt2
    assert info.value.residual == opnorm(defect)


def test_lstsq_map_stack_shares_one_solve():
    """A (c, m, n) stack of targets gives the per-slice maps, and the
    residual is the largest per-slice residual."""
    rng = np.random.default_rng(4)
    dom = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    tgts = rng.standard_normal((4, 2, 5)) + 1j * rng.standard_normal((4, 2, 5))
    b = lstsq_map(tgts, dom, np.linalg.pinv(dom), np.inf, "test")
    assert b.shape == (4, 2, 3)
    slices = [lstsq_map(t, dom, np.linalg.pinv(dom), np.inf, "test") for t in tgts]
    for got, want in zip(b, slices):
        assert np.abs(got - want).max() <= 1e-12
    residuals = []
    for t in tgts:
        with pytest.raises(NotWellDefinedError) as info:
            lstsq_map(t, dom, np.linalg.pinv(dom), 0.0, "test")
        residuals.append(info.value.residual)
    with pytest.raises(NotWellDefinedError) as info:
        lstsq_map(tgts, dom, np.linalg.pinv(dom), 0.0, "test")
    assert info.value.residual == pytest.approx(max(residuals), rel=1e-12)
    assert info.value.residual > 0.1


@pytest.mark.parametrize("rank", [0, 2, 3])
def test_pinv_and_range_is_pinv_and_an_orthonormal_range(rank):
    """One SVD gives np.linalg.pinv's pseudo-inverse, to rounding, and an
    orthonormal basis of the column space that keeps the singular values
    above 1e-8 * max(1, largest one)."""
    rng = np.random.default_rng(6)
    m = (rng.standard_normal((5, rank)) + 1j * rng.standard_normal((5, rank))) @ (
        rng.standard_normal((rank, 4)) + 1j * rng.standard_normal((rank, 4))
    )
    m[:, 0] += 1e-12  # a singular value below the basis cutoff, above pinv's
    pinv, basis = pinv_and_range(m)
    want = np.linalg.pinv(m)
    assert np.allclose(pinv, want, rtol=0.0, atol=1e-12 * np.abs(want).max(initial=0.0))
    assert basis.shape == (5, rank)
    assert np.allclose(basis.conj().T @ basis, np.eye(rank))
    assert np.allclose(basis @ (basis.conj().T @ m), m, atol=1e-10)


def _spectral_between_tol():
    """A defect stack whose Frobenius norm exceeds tol while every slice's
    operator norm stays below it, and one slice's operator norm above."""
    dom = np.eye(4)[:2]  # B @ dom keeps the first two columns of each target
    tgts = np.zeros((3, 3, 4), dtype=complex)
    tgts[:, :, 2:] = 0.1 * np.eye(3)[:, :2]  # each slice's defect has norm 0.1
    tgts[1, :, 3] += 0.05 * np.array([1.0, 1.0j, -1.0])
    return dom, tgts


def test_lstsq_map_residual_is_exact_largest_slice_norm():
    """The Frobenius bound only lets a consistent stack through; a failure
    reports the exact largest per-slice operator norm, and a stack whose
    Frobenius norm exceeds tol but whose slices are within it passes."""
    dom, tgts = _spectral_between_tol()
    defects = tgts - tgts @ np.linalg.pinv(dom) @ dom
    exact = max(opnorm(d) for d in defects)
    assert np.linalg.norm(defects) > 1.2 * exact  # the bound is not tight here
    with pytest.raises(NotWellDefinedError) as info:
        lstsq_map(tgts, dom, np.linalg.pinv(dom), 0.9 * exact, "test")
    assert info.value.residual == pytest.approx(exact, rel=1e-14)
    assert "test: descent residual" in str(info.value)
    b = lstsq_map(tgts, dom, np.linalg.pinv(dom), 1.01 * exact, "test")
    assert np.allclose(b @ dom, tgts @ np.linalg.pinv(dom) @ dom)


def test_failing_descend_map_reports_exact_spectral_residual():
    """descend_map decides by the Frobenius bound, but a map that does not
    descend reports the exact operator norm of its defect, and one whose
    defect is within tol in operator norm only still passes."""
    # the source quotient kills raw coordinates 2 and 3, which m does not
    src = LocalizedSpace(3, 1, np.eye(3, dtype=complex)[:1], np.eye(3, dtype=complex)[:, :1])
    tgt = trivial_localized(3)
    m = np.array([[1.0, 0.3, 0.0], [0.0, 0.0, 0.4j], [2.0, 0.0, 0.0]], dtype=complex)
    b = tgt.factor @ m @ src.lift
    defect = b @ src.factor - tgt.factor @ m
    exact = opnorm(defect)
    assert np.linalg.norm(defect) > 1.2 * exact
    # a stack of the bad map and its part on the kept coordinate: only the
    # bad map fails
    maps = np.stack([m, m * np.array([1.0, 0.0, 0.0])])
    _b, failures = descend_map(maps, [src, src], [tgt, tgt], 0.9 * exact)
    assert list(failures) == [0] and isinstance(failures[0], NotWellDefinedError)
    assert failures[0].residual == exact
    assert "descend_map: descent residual" in str(failures[0])
    got, failures = descend_map(m[None], [src], [tgt], 1.01 * exact)
    assert failures == {} and np.array_equal(got[0], b)


def test_opnorm_empty():
    assert opnorm(np.zeros((0, 3))) == 0.0
