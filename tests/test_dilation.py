import json
import sys

import numpy as np
import pytest

from dilationlab import dilation
from dilationlab.dilation import (
    DilationBundle,
    compare_minimal_dilations,
    kolmogorov,
    verify_doubly_commuting_V,
    verify_regular_dilation,
    window_gram,
)
from dilationlab.errors import InvalidArgumentError, NotPositiveDefiniteError
from dilationlab.families import _scalar_instance, generate
from dilationlab.hatspace import TruncatedFock
from dilationlab.instances import parse_instance
from dilationlab.representation import doubly_commuting_check, validate_module
from oracles import (
    DenseFock,
    build_Vs,
    build_Vs_loop,
    build_Vs_raw,
    doubly_commuting_bound,
    doubly_commuting_V_inline,
    full_window_gram,
    gen_block,
    generating_matrix,
    generator_step_bounds,
    isometric_maps_two_paths,
    item4_two_orth,
    mul,
    random_element,
    schaffer_inner_products,
    toeplitz_margin_scalar,
    v_raw,
    v_raw_loop,
    v_semigroup_pairs,
    verify_regular_dilation_loop,
    weak_form_bound,
    window_points,
)


def bundle_of(inst, bound):
    return kolmogorov(window_gram(inst.representation, bound))


def test_unitary_scalar_generating_gram():
    inst = parse_instance(_scalar_instance([np.array([[1.0]])]))
    bundle = bundle_of(inst, (3,))
    g = generating_matrix(bundle)
    gram = g.conj().T @ g
    assert np.allclose(gram, np.ones((4, 4)), atol=1e-12)
    assert bundle.k_min_rank() == 1


def test_ar1_generating_gram(half_scalar):
    bundle = bundle_of(half_scalar, (2,))
    g = generating_matrix(bundle)
    gram = (g.conj().T @ g).real
    expected = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    assert np.allclose(gram, expected, atol=1e-12)
    assert bundle.k_min_rank() == 3


def test_generating_gram_matches_schaffer(half_scalar):
    bundle = bundle_of(half_scalar, (3,))
    g = generating_matrix(bundle)
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
    window = window_gram(inst.representation, bound)
    dense = DenseFock(space)
    full, full_margin = full_window_gram(dense, bound)
    assert list(window.points) == window_points(bound)
    rows = np.concatenate(
        [a * space.dim + np.arange(space.dim)[dense.block_slice(t)] for a, t in enumerate(window.points)]
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
        window = window_gram(inst.representation, bound)
        assert abs(window.psd_margin - toeplitz_margin_scalar(ts, bound)) <= 1e-12, (ts, bound)


def test_window_rank_is_k_min(scalar_pair, mult_m2):
    for inst in (scalar_pair, mult_m2):
        bundle = bundle_of(inst, (2, 2))
        assert bundle.rank == bundle.k_min_rank()
        assert bundle.window.gram.shape[0] == sum(inst.representation.loc(s).rank for s in bundle.window.points)


def test_kolmogorov_rejects_nilpotent(nilpotent_pair):
    window = window_gram(nilpotent_pair.representation, (2, 2))
    assert window.psd_margin < -0.1
    with pytest.raises(NotPositiveDefiniteError):
        kolmogorov(window)


def test_hat_V_shifts_kappa(half_scalar):
    bundle = bundle_of(half_scalar, (2,))
    v1 = build_Vs(bundle, (1,), np.array([1.0]))
    assert np.linalg.norm(v1 @ gen_block(bundle, (0,)) - gen_block(bundle, (1,))) <= 1e-12
    assert np.linalg.norm(v1 @ gen_block(bundle, (1,)) - gen_block(bundle, (2,))) <= 1e-12
    # isometric on its domain
    dom = np.concatenate([gen_block(bundle, (0,)), gen_block(bundle, (1,))], axis=1)
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
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    v0 = bundle.isometric_rep.sigma
    va, vb = v0.apply(a.coords), v0.apply(b.coords)
    vab = v0.apply(mul(a, b).coords)
    gen = generating_matrix(bundle)
    assert np.linalg.norm((va @ vb - vab) @ gen) <= 1e-10


def test_Vs_covariance(mult_m2):
    # V_s(x . a) = V_s(x) V_0(a) on the minimal dilation space
    bundle = bundle_of(mult_m2, (2, 2))
    alg = mult_m2.algebra
    rng = np.random.default_rng(1)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = random_element(alg, rng)
    xa = mult_m2.system.generators[0].act_right(a.coords) @ x
    lhs = build_Vs(bundle, (1, 0), xa)
    rhs = build_Vs(bundle, (1, 0), x) @ bundle.isometric_rep.sigma.apply(a.coords)
    gen = generating_matrix(bundle)
    assert np.linalg.norm((lhs - rhs) @ gen) <= 1e-10


def test_Vs_compresses_to_T(mult_m2):
    bundle = bundle_of(mult_m2, (2, 2))
    rng = np.random.default_rng(2)
    gen0 = gen_block(bundle, (0, 0))
    for i, s in [(0, (1, 0)), (1, (0, 1))]:
        m = mult_m2.system.generators[i].dim
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v = build_Vs(bundle, s, x)
        t = np.tensordot(x, mult_m2.representation.t_maps[i], axes=(0, 0))
        assert np.linalg.norm(gen0.conj().T @ v @ gen0 - t) <= 1e-10


def test_uniqueness_across_backends(scalar_pair, mult_m2):
    for inst in (scalar_pair, mult_m2):
        assert compare_minimal_dilations(bundle_of(inst, (2, 2)), 1e-10) <= 1e-9


@pytest.mark.parametrize("fault", ["last row dropped", "row scaled"])
def test_uniqueness_fails_on_another_factor(monkeypatch, mult_m2, fault):
    """A Cholesky factor of another rank gives inf, one with other inner
    products a residual above the report's 1e-9 threshold; the true factor
    passes."""
    bundle = bundle_of(mult_m2, (2, 2))
    assert compare_minimal_dilations(bundle, 1e-10) <= 1e-9
    cholesky = dilation.pivoted_cholesky

    def faulty(gram, rel_tol):
        c = cholesky(gram, rel_tol=rel_tol)
        if fault == "last row dropped":
            return c[:-1]
        c[0] *= 1.1
        return c

    monkeypatch.setattr(dilation, "pivoted_cholesky", faulty)
    res = compare_minimal_dilations(bundle, 1e-10)
    if fault == "last row dropped":
        assert res == float("inf")
    else:
        assert 1e-9 < res < float("inf")


def test_uniqueness_across_windows(scalar_pair):
    """The larger window's generating vectors at the smaller window's points
    have the smaller window's Gram and rank."""
    small = bundle_of(scalar_pair, (2, 2))
    big = bundle_of(scalar_pair, (3, 3))
    g_small, g_big = small.factor, big.localized((2, 2))
    assert np.abs(g_small.conj().T @ g_small - g_big.conj().T @ g_big).max() <= 1e-9
    assert np.linalg.matrix_rank(g_big, tol=1e-8) == small.k_min_rank()


def test_eig_split_reads_the_factor_off_the_window(mult_m2):
    """The eig bundle's kept eigenpairs are its factor's,
    R = Lambda^{1/2} W^H, and give its pseudo-inverse W Lambda^{-1/2}; the
    discarded eigenvectors span R's null space."""
    a = bundle_of(mult_m2, (2, 2))
    vals, vecs, null = a.eig_split
    assert np.array_equal(a.factor, np.sqrt(vals)[:, None] * vecs.conj().T)
    want = np.linalg.pinv(a.factor)
    assert np.allclose(vecs / np.sqrt(vals), want, rtol=0.0, atol=1e-10 * np.abs(want).max())
    assert null.shape == (a.window.gram.shape[0], a.window.gram.shape[0] - a.rank)
    assert np.abs(a.factor @ null).max(initial=0.0) <= 1e-12


def test_factor_rank_is_taken_once_per_bundle(monkeypatch, mult_m2):
    """k_min_rank reads the eig factor's rank off its kept eigenvalues and
    takes no SVD. compare_minimal_dilations takes two SVDs and no pinv:
    the singular values of its Cholesky factor C for C's rank, and the
    intertwiner residual, C on the eig factor's discarded eigenvectors."""
    a = bundle_of(mult_m2, (2, 2))
    chol = dilation.pivoted_cholesky(a.window.gram, rel_tol=1e-10)
    calls = []
    originals = {name: getattr(np.linalg, name) for name in ("svd", "pinv")}

    def counting(name):
        def counted(*args, **kwargs):
            calls.append((name, args[0].shape))
            return originals[name](*args, **kwargs)

        return counted

    for name, original in originals.items():
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("numpy.linalg") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name))
    assert a.k_min_rank() == a.rank
    assert calls == []
    assert compare_minimal_dilations(a, 1e-10) <= 1e-9
    null_dim = a.window.gram.shape[0] - a.rank
    assert null_dim > 0
    assert calls == [("svd", chol.shape), ("svd", (chol.shape[0], null_dim))]


def test_doubly_commuting_checks(scalar_pair):
    space = TruncatedFock(scalar_pair.representation, (2, 2))
    assert doubly_commuting_check(scalar_pair.representation, 1, 2, space.bound) <= 1e-12
    assert doubly_commuting_check(scalar_pair.representation, 2, 1, space.bound) <= 1e-12
    bundle = bundle_of(scalar_pair, (2, 2))
    assert verify_doubly_commuting_V(bundle, 1, 2) <= 1e-6


DOUBLY_COMMUTING_V_CASES = [
    ("scalar_pair", None, (2, 2)),
    ("mult_m2", None, (2, 2)),
    ("multiplication-isometric", dict(k=3, dims=2), (1, 1, 1)),
    ("multiplication-isometric", dict(k=2, dims=3), (2, 2)),
    # dilatable but not doubly commuting: a nonzero residual
    ("random-contractive", dict(seed=1, k=2), (2, 2)),
]


@pytest.mark.parametrize("name, gen_args, bound", DOUBLY_COMMUTING_V_CASES)
def test_doubly_commuting_V_bounds_the_inline_oracle(request, name, gen_args, bound):
    """verify_doubly_commuting_V is the weak form of the identity between
    the generating vectors and the guarded ones. The operator-norm residual
    of the inline oracle, through localizations over V_0, stays within the
    bound stated from it (doubly_commuting_bound); both are rounding noise
    on the doubly commuting instances, allowed for by 1e-13, and both are
    far from it on the one that is not."""
    if gen_args is None:
        inst = request.getfixturevalue(name)
    else:
        inst = parse_instance(generate(name, **gen_args))
    bundle = bundle_of(inst, bound)
    k = inst.system.k
    for j in range(1, k + 1):
        for l in range(1, k + 1):
            if j != l:
                got = verify_doubly_commuting_V(bundle, j, l)
                old = doubly_commuting_V_inline(bundle, j, l)
                assert old <= doubly_commuting_bound(bundle, j, l, got) + 1e-13, (j, l, got, old)
                if name == "random-contractive":
                    assert min(got, old) > 1e-3, (j, l, got, old)
                else:
                    assert max(got, old) <= 1e-12, (j, l, got, old)


def test_isometric_rep_sigma_restricts_to_sigma(scalar_pair, mult_m2):
    for inst in (scalar_pair, mult_m2):
        bundle = bundle_of(inst, (2, 2))
        gen0 = gen_block(bundle, (0, 0))
        v0 = bundle.isometric_rep.sigma.mats
        assert np.abs(gen0.conj().T @ v0 @ gen0 - inst.representation.sigma.mats).max() <= 1e-10


def test_doubly_commuting_V_needs_distinct_directions(scalar_pair):
    bundle = bundle_of(scalar_pair, (2, 2))
    with pytest.raises(InvalidArgumentError):
        verify_doubly_commuting_V(bundle, 1, 1)


STACKED_VERIFY_CASES = [
    ("scalar_pair", None, (2, 2)),
    ("half_scalar", None, (3,)),
    ("mult_m2", None, (2, 2)),
    ("multiplication-isometric", dict(k=2, dims=3), (2, 2)),
    ("multiplication-isometric", dict(k=3, dims=2), (1, 1, 1)),
    ("diagonal-doubly-commuting", dict(seed=2, k=2, dims=3), (3, 3)),
    ("random-contractive", dict(seed=1, k=2), (2, 2)),
]


def _push_off_the_dilation(bundle, eps: float) -> None:
    """Perturb the recovered V_0 and generator isometries V_{e_i} (the
    `solves`, which isometric_rep is rebuilt from) by about eps, and with
    them every composed V_s, so that the verification residuals are of
    that size instead of rounding noise."""
    rng = np.random.default_rng(0)

    def noise(shape):
        return eps * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    solves = {s: (v + noise(v.shape), basis) for s, (v, basis) in bundle.solves.items()}
    bundle.__dict__["solves"] = solves
    bundle.__dict__.pop("isometric_rep", None)


def _instance(request, name, gen_args):
    if gen_args is None:
        return request.getfixturevalue(name)
    return parse_instance(generate(name, **gen_args))


def _generator_steps(bundle):
    k = bundle.rep.system.k
    return [tuple(int(j == i) for j in range(k)) for i in range(k)]


@pytest.mark.parametrize("name, gen_args, bound", STACKED_VERIFY_CASES)
def test_recovered_maps_are_kept_in_one_basis(request, name, gen_args, bound):
    """`solves` keeps each V_{e_i} over the reduced basis of X(e_i);
    isometric_rep's T map over E_i's basis is its one conversion, so the
    reduced fiber's coordinates (q-bar applied to it, or t_raw(e_i)) give
    the solve back up to rounding, and V_0 is the solve itself."""
    bundle = bundle_of(_instance(request, name, gen_args), bound)
    iso = bundle.isometric_rep
    sys_ = iso.system
    (_zero, (v0, _basis)), *steps = bundle.solves.items()
    assert iso.sigma.mats is v0
    for i, (s, (v, _basis)) in enumerate(steps, start=1):
        q = sys_.word_data((i,)).last_q
        back = np.tensordot(q.conj(), iso.t_maps[i - 1], axes=(1, 0))
        raw = iso.t_raw(s).reshape(iso.dim, q.shape[0], iso.dim).transpose(1, 0, 2)
        scale = max(1.0, float(np.abs(v).max(initial=0.0)))
        assert np.abs(back - v).max(initial=0.0) <= 1e-13 * scale, (s, "q-bar")
        assert np.abs(raw - v).max(initial=0.0) <= 1e-13 * scale, (s, "t_raw")


@pytest.mark.parametrize("name, gen_args, bound", STACKED_VERIFY_CASES)
@pytest.mark.parametrize("guard", [0, 1])
@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_generator_steps_bound_the_loop_oracle(request, name, gen_args, bound, guard, eps):
    """verify_regular_dilation checks V_0 and the generator steps only. At
    every window point, the composite-point values of the loop oracle
    (item 3, item 4, isometry, semigroup) are at most the generator
    residuals times the constants of generator_step_bounds, plus its
    associativity defects, on the recovered dilation and on one pushed off
    it; on the dilation both sides are rounding noise, allowed for by
    1e-13. Items 1 and 2 keep their values, and V0_star_hom adds the
    unital residual to the loop's *-homomorphism residuals."""
    bundle = bundle_of(_instance(request, name, gen_args), bound)
    if eps:
        _push_off_the_dilation(bundle, eps)
    got = verify_regular_dilation(bundle, guard=guard)
    want = verify_regular_dilation_loop(bundle, guard=guard)
    assert list(got) == list(want)
    for key in ("regular_item1", "regular_item2"):
        assert abs(got[key] - want[key]) <= 1e-13 * max(1.0, want[key]), (key, got[key], want[key])
    # V0_star_hom is the weak form, on the factor, of the loop's operator norms
    assert want["V0_star_hom"] <= weak_form_bound(bundle.factor, got["V0_star_hom"]) + 1e-13
    slack = 0.0 if eps else 1e-13
    for key, bound_ in generator_step_bounds(bundle, got, guard=guard).items():
        assert want[key] <= bound_ + slack, (key, want[key], bound_)
    if eps and guard == 0:  # every check has blocks when nothing is guarded away
        assert min(got["V_isometry"], got["V_semigroup"], got["regular_item1"], got["V0_star_hom"]) > 1e-5


@pytest.mark.parametrize(
    "name, gen_args, bound",
    [
        ("diagonal-doubly-commuting", dict(seed=0, k=2, dims=2), (3, 3)),
        ("diagonal-doubly-commuting", dict(seed=2, k=2, dims=3), (3, 3)),
        ("multiplication-isometric", dict(k=2, dims=3), (2, 2)),
        ("multiplication-isometric", dict(k=3, dims=2), (1, 1, 1)),
    ],
)
@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_item4_bounds_the_two_orthonormalisation_oracle(name, gen_args, bound, eps):
    """Item 4 through the projector P_domain - P_H at the generator steps
    equals item 4 through a second orthonormalisation of domain (-) H
    there, and with the V_semigroup residual it bounds the second form at
    every window point by the constant of generator_step_bounds, on the
    recovered dilation and on one pushed off it. For the isometric
    multiplication family K_min = H, so domain (-) H is zero and so is
    item 4."""
    bundle = bundle_of(parse_instance(generate(name, **gen_args)), bound)
    if eps:
        _push_off_the_dilation(bundle, eps)
    got = verify_regular_dilation(bundle)
    assert abs(got["regular_item4"] - item4_two_orth(bundle, _generator_steps(bundle))) <= 1e-12
    want = item4_two_orth(bundle)
    assert want <= generator_step_bounds(bundle, got)["regular_item4"] + (0.0 if eps else 1e-13)
    assert (bundle.rank > bundle.rep.dim) == (name == "diagonal-doubly-commuting")
    if eps and bundle.rank > bundle.rep.dim:
        assert got["regular_item4"] > 1e-5
    if bundle.rank == bundle.rep.dim:  # P_domain - P_H is rounding noise
        assert want == 0.0 and got["regular_item4"] <= 1e-13


@pytest.mark.parametrize(
    "name, gen_args, bound",
    [
        ("diagonal-doubly-commuting", dict(seed=2, k=2, dims=3), (3, 3)),
        ("multiplication-isometric", dict(k=3, dims=2), (1, 1, 1)),
    ],
)
def test_steps_are_built_once_per_bundle(monkeypatch, name, gen_args, bound):
    """isometric_rep and verify_regular_dilation together build the targets
    at 0 and at each generator step once, k + 1 calls, and factor each
    generator's domain once, k calls of pinv_and_range, whose SVD serves
    both the solve and item 4's projector; V_0's solve takes the eig
    factor's pseudo-inverse, so no pinv is taken."""
    bundle = bundle_of(parse_instance(generate(name, **gen_args)), bound)
    calls = {"targets": 0, "pinv_and_range": 0, "pinv": 0}
    targets, pinv_and_range, pinv = DilationBundle.targets, dilation.pinv_and_range, np.linalg.pinv

    def counted_targets(self, s):
        calls["targets"] += 1
        return targets(self, s)

    def counted_pinv_and_range(*args, **kwargs):
        calls["pinv_and_range"] += 1
        return pinv_and_range(*args, **kwargs)

    def counted_pinv(*args, **kwargs):
        calls["pinv"] += 1
        return pinv(*args, **kwargs)

    monkeypatch.setattr(DilationBundle, "targets", counted_targets)
    monkeypatch.setattr(dilation, "pinv_and_range", counted_pinv_and_range)
    monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
    assert bundle.isometric_rep is not None
    verify_regular_dilation(bundle)
    k = bundle.rep.system.k
    assert calls == {"targets": k + 1, "pinv_and_range": k, "pinv": 0}


def test_one_dilate_takes_six_p_square_factorizations(monkeypatch, tmp_path):
    """One `dilate` of a k = 2 instance with p = dim K_min = 48 (and a
    window kernel of dimension 48) factors a p-square matrix, or a stack of
    them, six times: the eigh of the window kernel, one SVD per generator
    domain (its solve and item 4's projector), the V_semigroup defects in
    two stacks (V_0's and the generators' shape) and the rank of the
    Cholesky factor. V_0's solve, the eig factor's rank and the uniqueness
    intertwiner read the window's eigh, and the doubly-commuting and
    *-homomorphism checks of the recovered maps are weak forms that take
    no factorization. A p-square operand has both trailing dimensions at
    least p / 2."""
    from dilationlab import cli

    path = tmp_path / "diag.json"
    path.write_text(json.dumps(generate("diagonal-doubly-commuting", seed=1000005, k=2, dims=3)))
    calls = []
    for name in ("eigh", "eigvalsh", "pinv", "svd"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("numpy.linalg") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    out = tmp_path / "report.json"
    assert cli.main(["dilate", str(path), "--L", "3", "--out", str(out)]) == 0
    p = json.loads(out.read_text())["window"]["rank"]
    assert p == 48
    square = [(name, shape) for name, shape in calls if len(shape) >= 2 and min(shape[-2:]) >= p // 2]
    assert sorted(name for name, _shape in square) == ["eigh"] + ["svd"] * 5, square


def test_recovered_representation_goes_through_validate_module(mult_m2):
    """The sigma, covariance and null-vanishing residuals of the recovered
    representation are part of V0_star_hom and V_semigroup: breaking the
    covariance of the recovered maps shows in V_semigroup."""
    bundle = bundle_of(mult_m2, (2, 2))
    _push_off_the_dilation(bundle, 1e-3)
    got = verify_regular_dilation(bundle)
    module = validate_module(bundle.isometric_rep, bundle.factor)
    assert module["covariance_1"] > 1e-5
    assert got["V_semigroup"] >= max(v for n, v in module.items() if not n.startswith("sigma."))
    assert got["V0_star_hom"] == max(v for n, v in module.items() if n.startswith("sigma."))


@pytest.mark.parametrize(
    "name, gen_args, bound",
    [
        ("multiplication-isometric", dict(k=2, dims=3), (2, 2)),
        ("multiplication-isometric", dict(k=3, dims=2), (1, 1, 1)),
        ("diagonal-doubly-commuting", dict(seed=2, k=2, dims=3), (3, 3)),
    ],
)
def test_blocked_build_Vs_matches_per_vector_loop(name, gen_args, bound):
    """v_raw (one build_Vs of the identity block) and build_Vs of a random
    block equal the per-vector solves on the localized generating vectors;
    a single vector keeps its p x p shape."""
    bundle = bundle_of(parse_instance(generate(name, **gen_args)), bound)
    rng = np.random.default_rng(3)
    for s in bundle.window.points:
        if not any(s):
            continue
        assert np.abs(v_raw(bundle, s) - v_raw_loop(bundle, s)).max() <= 1e-12, s
        p_s = bundle.rep.system.fiber_dim(s)
        x = rng.standard_normal((p_s, 2)) + 1j * rng.standard_normal((p_s, 2))
        want = np.concatenate([build_Vs_loop(bundle, s, col) for col in x.T], axis=1)
        assert np.abs(build_Vs(bundle, s, x) - want).max() <= 1e-12, s
        single = build_Vs(bundle, s, x[:, 0])
        assert single.shape == (bundle.rank, bundle.rank)
        assert np.abs(single - want[:, : bundle.rank]).max() <= 1e-12, s


@pytest.mark.parametrize(
    "name, gen_args, bound",
    [
        ("multiplication-isometric", dict(k=2, dims=3), (2, 2)),
        ("multiplication-isometric", dict(k=3, dims=2), (1, 1, 1)),
        ("diagonal-doubly-commuting", dict(seed=2, k=2, dims=3), (3, 3)),
        ("random-contractive", dict(seed=1, k=2), (2, 2)),
    ],
)
def test_localized_build_Vs_equals_raw_domain_solve(name, gen_args, bound):
    """The localized generating vectors span what the raw fiber (x) H ones
    span, so the least-squares V_s(x) on C^p is the same operator."""
    bundle = bundle_of(parse_instance(generate(name, **gen_args)), bound)
    rng = np.random.default_rng(4)
    for s in bundle.window.points:
        if not any(s):
            continue
        p_s = bundle.rep.system.fiber_dim(s)
        x = rng.standard_normal(p_s) + 1j * rng.standard_normal(p_s)
        assert np.abs(build_Vs(bundle, s, x) - build_Vs_raw(bundle, s, x)).max() <= 1e-12, s


@pytest.mark.parametrize("name, gen_args, bound", STACKED_VERIFY_CASES)
@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_V_semigroup_bounds_the_pairwise_law(request, name, gen_args, bound, eps):
    """The per-pair law V_{s+t}(U_{s,t}(x (x) y)) = V_s(x) V_t(y) is at most
    the stated constant times the per-point semigroup residual of the loop
    oracle, which test_generator_steps_bound_the_loop_oracle bounds by the
    generator-step V_semigroup, on the recovered dilation and on one pushed
    off it. On the dilation both sides are rounding noise, and the
    associativity defect of the product system (also rounding) is allowed
    for by 1e-13."""
    bundle = bundle_of(_instance(request, name, gen_args), bound)
    if eps:
        _push_off_the_dilation(bundle, eps)
    # guard 0 compares every pair with s + t in the window
    per_point = verify_regular_dilation_loop(bundle, guard=0)["V_semigroup"]
    pairs, const = v_semigroup_pairs(bundle, guard=0)
    assert pairs <= const * per_point + (0.0 if eps else 1e-13), (pairs, const, per_point)
    if eps:
        assert per_point > 1e-5


@pytest.mark.parametrize("name, gen_args, bound", STACKED_VERIFY_CASES)
def test_one_recovery_path_matches_the_former_two(request, name, gen_args, bound):
    """V_0 and the generator maps of isometric_rep, all solved by one path
    on localized targets, equal the former raw-coordinate V_0 solve and the
    v_raw generator solves."""
    if gen_args is None:
        inst = request.getfixturevalue(name)
    else:
        inst = parse_instance(generate(name, **gen_args))
    bundle = bundle_of(inst, bound)
    iso = bundle.isometric_rep
    v0, t_maps = isometric_maps_two_paths(bundle)
    assert np.abs(iso.sigma.mats - v0).max() <= 1e-12
    for got, want in zip(iso.t_maps, t_maps, strict=True):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


def test_generating_vectors_are_stored_localized_only():
    """The bundle keeps its generating vectors as the factor's localized
    columns only: no raw fiber (x) H copy and no general V_s solve remain
    in the package."""
    from pathlib import Path

    import dilationlab
    from dilationlab.dilation import DilationBundle

    inst = parse_instance(generate("multiplication-isometric", seed=0, k=2, dims=2))
    bundle = bundle_of(inst, (1, 1))
    removed = ("gen_block", "generating_matrix", "build_Vs", "v_raw", "generators", "_cols")
    assert [n for n in removed if hasattr(bundle, n) or hasattr(DilationBundle, n)] == []
    src = Path(dilationlab.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert [n for n in removed[:4] if n in text] == [], path.name
