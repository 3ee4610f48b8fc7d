import numpy as np
import pytest

from dilationlab import cstar
from dilationlab.dilation import (
    compare_minimal_dilations,
    kolmogorov,
    verify_doubly_commuting_V,
    verify_hat_doubly_commuting,
    verify_regular_dilation,
    window_gram,
)
from dilationlab.errors import NotPositiveDefiniteError
from dilationlab.families import _scalar_instance, generate
from dilationlab.hatspace import TruncatedFock
from dilationlab.instances import parse_instance
from oracles import full_window_gram, schaffer_inner_products, toeplitz_margin_scalar, window_points


def bundle_of(inst, bound, method="eig"):
    space = TruncatedFock(inst.representation, bound)
    return kolmogorov(window_gram(space, bound), method=method)


def test_unitary_scalar_generating_gram():
    inst = parse_instance(_scalar_instance([np.array([[1.0]])]))
    bundle = bundle_of(inst, (3,))
    g = bundle.generating_matrix()
    gram = g.conj().T @ g
    assert np.allclose(gram, np.ones((4, 4)), atol=1e-12)
    assert bundle.k_min_rank() == 1


def test_ar1_generating_gram(half_scalar):
    bundle = bundle_of(half_scalar, (2,))
    g = bundle.generating_matrix()
    gram = (g.conj().T @ g).real
    expected = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    assert np.allclose(gram, expected, atol=1e-12)
    assert bundle.k_min_rank() == 3


def test_generating_gram_matches_schaffer(half_scalar):
    bundle = bundle_of(half_scalar, (3,))
    g = bundle.generating_matrix()
    oracle = schaffer_inner_products(np.array([[0.5]], dtype=complex), 3)
    assert np.abs(g.conj().T @ g - oracle).max() <= 1e-12


SMALL_WINDOWS = [
    ("scalar_pair", (2, 2)),
    ("nilpotent_pair", (2, 2)),
    ("half_scalar", (3,)),
    ("mult_m2", (2, 1)),
]


@pytest.mark.parametrize("name, bound", SMALL_WINDOWS)
def test_kernel_is_generating_subblock_of_full_gram(request, name, bound):
    inst = request.getfixturevalue(name)
    space = TruncatedFock(inst.representation, bound)
    window = window_gram(space, bound)
    full, full_margin = full_window_gram(space, bound)
    assert list(window.points) == window_points(bound)
    rows = np.concatenate(
        [a * space.dim + np.arange(space.dim)[space.block_slice(t)] for a, t in enumerate(window.points)]
    )
    assert window.gram.shape == (rows.size, rows.size)
    assert np.abs(window.gram - full[np.ix_(rows, rows)]).max() <= 1e-12
    assert abs(window.psd_margin - full_margin) <= 1e-10


def test_scalar_margins_match_toeplitz_oracle(scalar_pair, half_scalar):
    cases = [(scalar_pair, (3, 3)), (half_scalar, (4,))]
    cases += [(parse_instance(generate("scalar-commuting", seed=seed)), (2, 2)) for seed in range(4)]
    cases.append((parse_instance(generate("scalar-commuting", seed=7, k=3)), (1, 2, 1)))
    for inst, bound in cases:
        ts = tuple(complex(t[0, 0, 0]) for t in inst.representation.t_maps)
        window = window_gram(TruncatedFock(inst.representation, bound), bound)
        assert abs(window.psd_margin - toeplitz_margin_scalar(ts, bound)) <= 1e-12, (ts, bound)


def test_window_rank_is_k_min(scalar_pair, mult_m2):
    for inst in (scalar_pair, mult_m2):
        bundle = bundle_of(inst, (2, 2))
        assert bundle.rank == bundle.k_min_rank()
        assert bundle.window.gram.shape[0] == sum(inst.representation.loc(s).rank for s in bundle.window.points)


def test_kolmogorov_rejects_nilpotent(nilpotent_pair):
    space = TruncatedFock(nilpotent_pair.representation, (2, 2))
    window = window_gram(space, (2, 2))
    assert window.psd_margin < -0.1
    with pytest.raises(NotPositiveDefiniteError):
        kolmogorov(window)


def test_hat_V_shifts_kappa(half_scalar):
    bundle = bundle_of(half_scalar, (2,))
    v1 = bundle.build_Vs((1,), np.array([1.0]))
    assert np.linalg.norm(v1 @ bundle.gen_block((0,)) - bundle.gen_block((1,))) <= 1e-12
    assert np.linalg.norm(v1 @ bundle.gen_block((1,)) - bundle.gen_block((2,))) <= 1e-12
    # isometric on its domain
    dom = np.concatenate([bundle.gen_block((0,)), bundle.gen_block((1,))], axis=1)
    assert np.linalg.norm(dom.conj().T @ (v1.conj().T @ v1) @ dom - dom.conj().T @ dom) <= 1e-12


def test_verify_regular_dilation_scalar(scalar_pair):
    bundle = bundle_of(scalar_pair, (2, 2))
    checks = verify_regular_dilation(bundle)
    expected = {
        "regular_item1",
        "regular_item2",
        "regular_item3",
        "regular_item4",
        "V_isometry",
        "V_semigroup",
        "V0_star_hom",
    }
    assert set(checks) == expected
    assert max(checks.values()) <= 1e-10


def test_verify_regular_dilation_multiplication(mult_m2):
    bundle = bundle_of(mult_m2, (2, 2))
    checks = verify_regular_dilation(bundle)
    assert max(checks.values()) <= 1e-8


def test_V0_star_homomorphism(mult_m2):
    bundle = bundle_of(mult_m2, (2, 2))
    alg = mult_m2.algebra
    rng = np.random.default_rng(1)
    a = cstar.random_element(alg, rng)
    b = cstar.random_element(alg, rng)
    va, vb = bundle.build_V0(a), bundle.build_V0(b)
    vab = bundle.build_V0(cstar.mul(a, b))
    gen = bundle.generating_matrix()
    assert np.linalg.norm((va @ vb - vab) @ gen) <= 1e-10


def test_Vs_covariance(mult_m2):
    # V_s(x . a) = V_s(x) V_0(a) on the minimal dilation space
    bundle = bundle_of(mult_m2, (2, 2))
    alg = mult_m2.algebra
    rng = np.random.default_rng(1)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = cstar.random_element(alg, rng)
    xa = mult_m2.system.generators[0].act_right(a.coords) @ x
    lhs = bundle.build_Vs((1, 0), xa)
    rhs = bundle.build_Vs((1, 0), x) @ bundle.build_V0(a)
    gen = bundle.generating_matrix()
    assert np.linalg.norm((lhs - rhs) @ gen) <= 1e-10


def test_Vs_compresses_to_T(mult_m2):
    bundle = bundle_of(mult_m2, (2, 2))
    rng = np.random.default_rng(2)
    gen0 = bundle.gen_block((0, 0))
    for i, s in [(0, (1, 0)), (1, (0, 1))]:
        m = mult_m2.system.generators[i].dim
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v = bundle.build_Vs(s, x)
        t = np.tensordot(x, mult_m2.representation.t_maps[i], axes=(0, 0))
        assert np.linalg.norm(gen0.conj().T @ v @ gen0 - t) <= 1e-10


def test_uniqueness_across_backends(scalar_pair, mult_m2):
    for inst in (scalar_pair, mult_m2):
        a = bundle_of(inst, (2, 2), method="eig")
        b = bundle_of(inst, (2, 2), method="chol")
        assert compare_minimal_dilations(a, b) <= 1e-9


def test_uniqueness_across_windows(scalar_pair):
    space = TruncatedFock(scalar_pair.representation, (3, 3))
    small = kolmogorov(window_gram(space, (2, 2)))
    big = kolmogorov(window_gram(space, (3, 3)))
    assert compare_minimal_dilations(small, big) <= 1e-9


def test_doubly_commuting_checks(scalar_pair):
    space = TruncatedFock(scalar_pair.representation, (2, 2))
    assert verify_hat_doubly_commuting(space, 1, 2, 1, 1) <= 1e-12
    assert verify_hat_doubly_commuting(space, 1, 2, 2, 1) <= 1e-12
    bundle = bundle_of(scalar_pair, (2, 2))
    assert verify_doubly_commuting_V(bundle, 1, 2) <= 1e-6
