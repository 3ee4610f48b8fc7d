import numpy as np
import pytest

from dilationlab import cstar
from dilationlab.correspondence import (
    Correspondence,
    algebra_correspondence,
    congruent_gram,
    descend_map,
    interior_tensor,
    localize,
    passes,
    reduce_null,
    trivial_correspondence,
    validate_correspondence,
)
from dilationlab.errors import InvalidArgumentError, NotWellDefinedError

from oracles import (
    axiom_residuals_einsum,
    compressed_action_einsum,
    congruent_gram_einsum,
    gram_of,
    homomorphism_residuals_loop,
    interior_tensor_dense,
    raw_tensor,
    raw_tensor_gram,
    raw_tensor_gram_loop,
)


@pytest.fixture(scope="module")
def m2():
    return cstar.CStarAlgebra([2])


@pytest.fixture(scope="module")
def scalars():
    return cstar.CStarAlgebra([1])


def test_trivial_correspondence_validates(scalars):
    corr = trivial_correspondence(scalars, 3)
    assert corr.dim == 3
    report = validate_correspondence(corr)
    assert passes(report)


def test_trivial_correspondence_needs_scalars(m2):
    with pytest.raises(InvalidArgumentError):
        trivial_correspondence(m2, 2)


def test_algebra_correspondence_validates(m2):
    corr = algebra_correspondence(m2)
    assert corr.dim == 4
    assert passes(validate_correspondence(corr))
    # the embedded Gram [<e_i, e_j>] must be PSD
    vals = np.linalg.eigvalsh(corr.gram_embedded())
    assert vals.min() > -1e-12


def test_gram_of_matches_embedding(m2):
    corr = algebra_correspondence(m2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    # <x, y> = x* y inside M_2
    xm = np.tensordot(x, m2.basis_mats, axes=(0, 0))
    ym = np.tensordot(y, m2.basis_mats, axes=(0, 0))
    got = np.tensordot(gram_of(corr, x, y), m2.basis_mats, axes=(0, 0))
    assert np.allclose(got, xm.conj().T @ ym, atol=1e-12)


def test_interior_tensor_m2_quotient(m2):
    corr = algebra_correspondence(m2)
    # M_2 (x)_{M_2} M_2 = M_2: raw dimension 16 collapses to 4
    [(tensor, surjection)] = interior_tensor([(corr, corr)])
    assert surjection.shape == (4, 16)
    assert tensor.dim == 4
    assert passes(validate_correspondence(tensor))


def test_reduce_null_keeps_nondegenerate(m2):
    """With no null vector the quotient is the correspondence itself, with
    the identity surjection."""
    corr = algebra_correspondence(m2)
    reduced, q = reduce_null(corr)
    assert reduced is corr
    assert np.array_equal(q, np.eye(4))


def test_localize_trivial_over_scalars(scalars):
    corr = trivial_correspondence(scalars, 3)
    sigma = np.eye(2, dtype=complex)[None, :, :]
    [loc] = localize([corr], sigma)
    assert loc.rank == 6
    assert np.allclose(loc.factor.conj().T @ loc.factor, np.eye(6), atol=1e-12)
    assert np.allclose(loc.factor @ loc.lift, np.eye(6), atol=1e-12)


def test_localize_m2_over_identity_rep(m2):
    # M_2 (x)_{id} C^2 = C^2: rank 2 out of raw dimension 8
    corr = algebra_correspondence(m2)
    [loc] = localize([corr], m2.basis_mats)
    assert loc.source_dim == 8
    assert loc.rank == 2
    gram_loc = loc.factor.conj().T @ loc.factor
    assert np.allclose(
        gram_loc,
        np.einsum("ijp,pkl->ikjl", corr.gram, m2.basis_mats).reshape(8, 8),
        atol=1e-12,
    )


def test_localize_zero_gram(scalars):
    eye = np.eye(1, dtype=complex)[None, :, :]
    corr = Correspondence(scalars, np.zeros((1, 1, 1), dtype=complex), eye, eye)
    [loc] = localize([corr], np.eye(1, dtype=complex)[None, :, :])
    assert loc.rank == 0


def test_descend_map_rejects_bad_map(scalars):
    # Gram [[1, 1], [1, 1]] identifies e_1 with e_2; diag(1, 0) does not descend
    gram = np.ones((2, 2, 1), dtype=complex)
    eye = np.eye(2, dtype=complex)[None, :, :]
    corr = Correspondence(scalars, gram, eye, eye)
    [loc] = localize([corr], np.eye(1, dtype=complex)[None, :, :])
    assert loc.rank == 1
    # the identity always descends
    maps = np.stack([np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex)])
    b, failures = descend_map(maps, [loc, loc], [loc, loc])
    assert list(failures) == [0] and isinstance(failures[0], NotWellDefinedError)
    assert np.allclose(b[1], np.eye(1), atol=1e-12)


def test_shape_validation(m2):
    eye4 = np.stack([np.eye(4, dtype=complex)] * m2.dim)
    with pytest.raises(InvalidArgumentError):
        Correspondence(m2, np.zeros((4, 4, 3)), eye4, eye4)
    with pytest.raises(InvalidArgumentError):
        Correspondence(m2, np.zeros((4, 4, 4)), np.zeros((2, 4, 4)), eye4)


# -- contraction kernels against the einsum references -------------------------


def _degenerate_scalar():
    """Over C, Gram [[1, 1], [1, 1]]: e_1 and e_2 coincide in the quotient."""
    alg = cstar.CStarAlgebra([1])
    eye = np.eye(2, dtype=complex)[None, :, :]
    return Correspondence(alg, np.ones((2, 2, 1), dtype=complex), eye, eye)


def _random_arrays(seed: int, blocks, me: int, mf: int):
    """Correspondence-shaped arrays with no structure: the contractions are
    identities of multilinear algebra and must hold for any entries."""
    alg = cstar.CStarAlgebra(blocks)
    rng = np.random.default_rng(seed)

    def arr(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(np.prod(shape))

    e = Correspondence(alg, arr(me, me, alg.dim), arr(alg.dim, me, me), arr(alg.dim, me, me))
    f = Correspondence(alg, arr(mf, mf, alg.dim), arr(alg.dim, mf, mf), arr(alg.dim, mf, mf))
    return e, f


def _rotated_m2():
    """M_2 over itself in a random complex basis: the kept eigenvectors of
    its null quotients are complex."""
    corr = algebra_correspondence(cstar.CStarAlgebra([2]))
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    uh = u.conj().T
    return Correspondence(
        corr.algebra,
        congruent_gram_einsum(corr.gram, u),
        uh @ corr.right_action @ u,
        uh @ corr.left_action @ u,
    )


TENSOR_PAIRS = {
    "C": lambda: (trivial_correspondence(cstar.CStarAlgebra([1]), 2),) * 2,
    "C-degenerate": lambda: (_degenerate_scalar(), trivial_correspondence(cstar.CStarAlgebra([1]), 3)),
    "M2": lambda: (algebra_correspondence(cstar.CStarAlgebra([2])),) * 2,
    "M3": lambda: (algebra_correspondence(cstar.CStarAlgebra([3])),) * 2,
    "C+M2": lambda: (algebra_correspondence(cstar.CStarAlgebra([1, 2])),) * 2,
    "M2-rotated": lambda: (_rotated_m2(),) * 2,
    "M2-reduced": lambda: (
        interior_tensor([(algebra_correspondence(cstar.CStarAlgebra([2])),) * 2])[0][0],
        algebra_correspondence(cstar.CStarAlgebra([2])),
    ),
    "C+M2-random": lambda: _random_arrays(3, [1, 2], 4, 3),
}


@pytest.mark.parametrize("name", sorted(TENSOR_PAIRS))
def test_raw_tensor_gram_matches_loop_oracle(name):
    e, f = TENSOR_PAIRS[name]()
    got = raw_tensor_gram(e, f)
    want = raw_tensor_gram_loop(e.gram, f.gram, f.left_action)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(TENSOR_PAIRS))
def test_raw_tensor_actions_match_kron_stacks(name):
    e, f = TENSOR_PAIRS[name]()
    raw = raw_tensor(e, f)
    right = np.stack([np.kron(np.eye(e.dim), r) for r in f.right_action])
    left = np.stack([np.kron(l, np.eye(f.dim)) for l in e.left_action])
    assert raw.right_action.tobytes() == right.tobytes()
    assert raw.left_action.tobytes() == left.tobytes()


def _zero_gram_scalar():
    """C^2 over C with zero Gram: every tensor with it is null."""
    alg = cstar.CStarAlgebra([1])
    eye = np.eye(2, dtype=complex)[None]
    return Correspondence(alg, np.zeros((2, 2, 1)), eye, eye)


def _empty_scalar():
    alg = cstar.CStarAlgebra([1])
    return Correspondence(alg, np.zeros((0, 0, 1)), np.zeros((1, 0, 0)), np.zeros((1, 0, 0)))


FACTORWISE_PAIRS = {
    **TENSOR_PAIRS,
    "zero Gram": lambda: (_zero_gram_scalar(), trivial_correspondence(cstar.CStarAlgebra([1]), 3)),
    "empty": lambda: (trivial_correspondence(cstar.CStarAlgebra([1]), 2), _empty_scalar()),
}


@pytest.mark.parametrize("name", sorted(FACTORWISE_PAIRS))
def test_interior_tensor_matches_dense_body(name):
    """The factor-wise interior tensor is the null quotient of the dense raw
    tensor: the same kept space, and the same Gram and actions in the basis
    U = q q_dense^H that relates the two surjections. A kept basis is fixed
    only up to rotations within repeated eigenvalues, which a rounding-level
    change of the null trace can turn (the degenerate Gram has such
    eigenvalues); where the arithmetic is exact, the surjections are equal."""
    e, f = FACTORWISE_PAIRS[name]()
    [(got, q)] = interior_tensor([(e, f)])
    want, q_dense = interior_tensor_dense(e, f)
    assert q.shape == q_dense.shape
    if name in ("C", "M2", "M3", "C+M2", "zero Gram", "empty"):
        assert np.array_equal(q, q_dense)
    u = q @ q_dense.conj().T
    assert np.abs(u @ u.conj().T - np.eye(q.shape[0])).max(initial=0.0) <= 1e-13
    assert np.abs(q.conj().T @ q - q_dense.conj().T @ q_dense).max(initial=0.0) <= 1e-13
    uh = u.conj().T
    np.testing.assert_allclose(got.gram, congruent_gram(want.gram, uh), rtol=0, atol=1e-13)
    np.testing.assert_allclose(got.right_action, u @ want.right_action @ uh, rtol=0, atol=1e-13)
    np.testing.assert_allclose(got.left_action, u @ want.left_action @ uh, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", sorted(set(TENSOR_PAIRS) - {"C+M2-random"}))
def test_reduce_null_matches_einsum_oracle(name):
    raw = raw_tensor(*TENSOR_PAIRS[name]())
    reduced, surjection = reduce_null(raw)
    if name != "C":
        assert reduced.dim < raw.dim  # the raw tensor is rank-deficient
    w = surjection.conj().T
    np.testing.assert_allclose(reduced.gram, congruent_gram_einsum(raw.gram, w), rtol=0, atol=1e-12)
    for got, action in ((reduced.right_action, raw.right_action), (reduced.left_action, raw.left_action)):
        np.testing.assert_allclose(got, compressed_action_einsum(action, w), rtol=0, atol=1e-12)


def _swap(m: int) -> np.ndarray:
    """The flip e_a (x) e_b -> e_b (x) e_a on C^m (x) C^m."""
    swap = np.zeros((m * m, m * m))
    for a in range(m):
        for b in range(m):
            swap[b * m + a, a * m + b] = 1.0
    return swap


def test_flip_gram_matches_einsum_oracle():
    for gen in (
        trivial_correspondence(cstar.CStarAlgebra([1]), 2),
        algebra_correspondence(cstar.CStarAlgebra([2])),
    ):
        gram = raw_tensor_gram(gen, gen)
        swap = _swap(gen.dim)
        np.testing.assert_allclose(
            congruent_gram(gram, swap), congruent_gram_einsum(gram, swap), rtol=0, atol=1e-12
        )
    e, f = _random_arrays(5, [3], 3, 3)
    gram = raw_tensor_gram(f, e)
    rng = np.random.default_rng(6)
    phi = (rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))) / 3
    np.testing.assert_allclose(congruent_gram(gram, phi), congruent_gram_einsum(gram, phi), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(TENSOR_PAIRS))
def test_homomorphism_residuals_match_loop_oracle(name):
    """The stacked right/left homomorphism residuals equal the per-pair
    loop's; the random arrays make them nonzero."""
    for corr in TENSOR_PAIRS[name]():
        res = validate_correspondence(corr)
        want = homomorphism_residuals_loop(
            corr.algebra.mul_table, corr.right_action, corr.left_action
        )
        got = (res["right_homomorphism"], res["left_homomorphism"])
        assert np.allclose(got, want, rtol=0, atol=1e-13), (got, want)


@pytest.mark.parametrize("name", sorted(TENSOR_PAIRS))
def test_axiom_residuals_match_einsum_oracle(name):
    """The Gram and compatibility residuals, taken as 2-D GEMMs, equal their
    einsum bodies up to rounding; the random arrays make them nonzero."""
    for corr in TENSOR_PAIRS[name]():
        got = validate_correspondence(corr)
        for key, want in axiom_residuals_einsum(corr).items():
            assert abs(got[key] - want) <= 1e-13 * max(1.0, want), (key, got[key], want)
