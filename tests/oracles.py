"""Independent oracles the test suite compares the engine against.

Everything here is implemented from first principles (classical formulas,
brute-force sums, explicit matrix units) and deliberately shares no code
with the package internals beyond numpy, with these kinds of exception:
`doubly_commuting_V_inline`, `commutation_residual_raw_pair` and
`doubly_commuting_defect_quotient` build on the correspondence primitives
(localization, raw and interior tensors, descent) and the raw maps of the
representation, but not on its lowering blocks; the
dense T^ references (`DenseFock` and the functions taking one) assemble
the lowering blocks `CCRepresentation.lowering_block` into dim H_L square
matrices, where the package only ever norms blocks; the loop references
reproduce a stacked package check one basis pair at a time; and the
multiplication-isomorphism references rebuild U_{s,t} on the quotient of
`interior_tensor`, from the package's word surjections, as the unitary
the package once stored next to that quotient, and `raw_word_maps` rebuilds
the raw-word surjections and lifts the package once kept for every word;
the algebra elements (`AlgebraElement`, `element`, `embed`,
`from_matrix`), their arithmetic (`mul`, `adjoint`, `norm`, `is_positive`,
`random_element`) and `gram_of` go through an algebra's embedded matrix
units and a correspondence's Gram array; and the raw generating-vector and
least-squares V_s references (`gen_block`, `generating_matrix`,
`build_Vs`, `v_raw`) rebuild, from a bundle's factor, targets and domains,
the raw fiber (x) H copy and the general solve the package once kept; and
the Kronecker-product builders (`raw_tensor_gram`, `raw_tensor`,
`interior_tensor_dense`, `flip_residual_dense`, `pair_word_surjection`,
`append_map_kron`, `mult_iso_kron`,
`lowering_raw_kron`, `t_raw_kron`, `targets_kron`) are the dense bodies
of the builders the package now contracts factor by factor, run on the
package's own fibers and surjections, and `flip_residual_bounds` computes
from them the constants of the two-sided bound between the package's
reduced flip residual and `flip_residual_dense`; and the per-key bodies
(`interior_tensor_pair`, `localize_point`, `loc_point`, `descend_map_loop`,
`lowering_raw`, `lowering_block_loop`, `brehmer_sum_point`) are the
one-at-a-time forms of the computations the package now runs in stacks grouped
by shape, on the package's fibers, multiplication maps and raw T maps; and
`generator_step_bounds` computes,
from a bundle's factor, the recovered maps and `loc_action`, the bounds
by which verify_regular_dilation's generator-step residuals control the
composite-point values of `verify_regular_dilation_loop`; and
`weak_form_bound` and `doubly_commuting_bound` compute, from a bundle's
factor, its localized vectors and `localize_point` over the recovered V_0,
the bounds by which the weak V0_star_hom and doubly_commuting_V residuals
control the former operator norms; and `json_to_complex_array` is the instance reader cast to complex128, which
runs a real instance all in complex arithmetic: the reference a run in
real arithmetic is compared with; and `array_to_json_loop` is the
entry-by-entry instance writer the package once used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from dilationlab.errors import InvalidArgumentError
from dilationlab.instances import json_to_array


def herm_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root via eigendecomposition (clipping tiny negatives)."""
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def schaffer_inner_products(t: np.ndarray, m_max: int) -> np.ndarray:
    """Gram matrix of {V^n e_i : 0 <= n <= m_max} for the Schaffer-form
    minimal isometric dilation V of a single contraction t on C^d.

    V acts on H (+) D (+) ... (+) D (m_max + 1 defect copies): V|_H = t into
    H plus the defect operator into the first copy, then a pure shift.
    Returned as an ((m_max+1)d) x ((m_max+1)d) matrix indexed (n, i).
    """
    d = t.shape[0]
    defect = herm_sqrt(np.eye(d) - t.conj().T @ t)
    size = d * (m_max + 2)
    v = np.zeros((size, size), dtype=complex)
    v[0:d, 0:d] = t
    v[d : 2 * d, 0:d] = defect
    for j in range(1, m_max + 1):
        v[(j + 1) * d : (j + 2) * d, j * d : (j + 1) * d] = np.eye(d)
    cols = []
    power = np.eye(size, dtype=complex)
    for _ in range(m_max + 1):
        cols.append(power[:, 0:d])
        power = v @ power
    stacked = np.concatenate(cols, axis=1)
    return stacked.conj().T @ stacked


def brehmer_sum_scalar(ts: tuple[complex, ...], v: tuple[int, ...], s: tuple[int, ...]) -> float:
    """Brute-force alternating Brehmer sum for commuting scalar contractions:
    sum over u subset v of (-1)^|u| prod_{i in u} |t_i|^{2 s_i}."""
    total = 0.0
    v = tuple(v)
    for r in range(len(v) + 1):
        for u in itertools.combinations(v, r):
            term = 1.0
            for i in u:
                term *= abs(ts[i - 1]) ** (2 * s[i - 1])
            total += (-1) ** len(u) * term
    return total


def toeplitz_margin_scalar(ts: tuple[complex, ...], bound: tuple[int, ...]) -> float:
    """Minimum eigenvalue of the brute-force scalar Toeplitz moment matrix
    [K(n, m)] over the window box, K(n, m) = conj(t^(m-n)_-) t^(m-n)_+."""
    pts = window_points(bound)

    def power(exps):
        out = 1.0 + 0.0j
        for t, e in zip(ts, exps, strict=True):
            out *= t**e
        return out

    gram = np.zeros((len(pts), len(pts)), dtype=complex)
    for a, n in enumerate(pts):
        for b, m in enumerate(pts):
            diff = tuple(x - y for x, y in zip(m, n, strict=True))
            neg = tuple(max(0, -x) for x in diff)
            pos = tuple(max(0, x) for x in diff)
            gram[a, b] = np.conj(power(neg)) * power(pos)
    return float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min())


def window_points(bound: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Lattice points of the window box in graded-lexicographic order."""
    pts = list(itertools.product(*(range(b + 1) for b in bound)))
    pts.sort(key=lambda p: (sum(p), p))
    return pts


def full_window_gram(dense, bound: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """The T^ window Gram over one copy of the truncated space per window
    point, block (t, s) = T^_{(s-t)_-}^H T^_{(s-t)_+}, and its minimum
    eigenvalue.

    `dense` only has to provide `dim` and the lowering operators as dense
    matrices `dense.hat(point)` (a `DenseFock`); everything else is computed
    here. The Gram has dimension |W| dim H_L, so this is for small windows
    only.
    """
    pts = window_points(bound)
    n = dense.dim
    gram = np.zeros((len(pts) * n, len(pts) * n), dtype=complex)
    for a, t in enumerate(pts):
        for b, s in enumerate(pts):
            diff = tuple(x - y for x, y in zip(s, t, strict=True))
            neg = dense.hat(tuple(max(0, -x) for x in diff))
            pos = dense.hat(tuple(max(0, x) for x in diff))
            gram[a * n : (a + 1) * n, b * n : (b + 1) * n] = neg.conj().T @ pos
    margin = float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min())
    return gram, margin


def raw_tensor_gram_loop(e_gram: np.ndarray, f_gram: np.ndarray, f_left: np.ndarray) -> np.ndarray:
    """Algebra-valued Gram of the raw tensor E (x) F, one (i, k) block at a
    time: <e_i (x) f_j, e_k (x) f_l> = <f_j, <e_i, e_k> . f_l>.

    `e_gram`, `f_gram` have shape (m, m, dim A) and `f_left` (dim A, m_F, m_F);
    the raw index of e_i (x) f_j is i * m_F + j.
    """
    me, mf, adim = e_gram.shape[0], f_gram.shape[0], e_gram.shape[2]
    gram = np.zeros((me * mf, me * mf, adim), dtype=complex)
    for i in range(me):
        for k in range(me):
            act = np.tensordot(e_gram[i, k], f_left, axes=(0, 0))  # <e_i,e_k> . f_l
            block = np.einsum("ql,jqp->jlp", act, f_gram)
            gram[i * mf : (i + 1) * mf, k * mf : (k + 1) * mf, :] = block
    return gram


def congruent_gram_einsum(gram: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Algebra-valued Gram of the columns of w, sum_ij conj(w_ia) w_jb G_ijp,
    as a single three-operand einsum."""
    return np.einsum("ia,jb,ijp->abp", np.conj(w), w, gram)


def compressed_action_einsum(action: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W^H A_p W for every p, as a single three-operand einsum."""
    return np.einsum("ia,pij,jb->pab", np.conj(w), action, w)


def matrix_units(n: int) -> list[np.ndarray]:
    """Matrix units of M_n in row-major order (the canonical algebra basis)."""
    units = []
    for i in range(n):
        for j in range(n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            units.append(m)
    return units


def doubly_commuting_V_inline(bundle, j: int, k: int, guard: int = 1) -> float:
    """Residual of V~_k^H V~_j = (I (x) V~_j)(t (x) I)(I (x) V~_k^H) for a
    recovered dilation, assembled directly from the correspondence
    primitives instead of through CCRepresentation.

    `bundle` provides the recovered V_0 (as `isometric_rep.sigma.mats`),
    `rank` and the window bound; the raw maps are `v_raw(bundle, s)` and the
    guarded vectors `generating_matrix(bundle, bound)`.
    The identity is restricted to x (x) (generating vectors at points at
    least max(guard, 1) inside the window).
    """
    from dilationlab.correspondence import trivial_localized

    sys_ = bundle.rep.system
    a = tuple(int(i == j - 1) for i in range(sys_.k))
    b = tuple(int(i == k - 1) for i in range(sys_.k))
    p = bundle.rank
    rho = bundle.isometric_rep.sigma.mats

    corr_a = sys_.fiber(a)
    corr_b = sys_.fiber(b)
    loc_a = localize_point(corr_a, rho, 1e-8)
    loc_b = localize_point(corr_b, rho, 1e-8)
    vt_a = descend_map_loop(v_raw(bundle, a), loc_a, trivial_localized(p), 1e-6)
    vt_b = descend_map_loop(v_raw(bundle, b), loc_b, trivial_localized(p), 1e-6)
    rhs = vt_b.conj().T @ vt_a

    pair_ab, q_ab = interior_tensor_pair(corr_a, corr_b, bundle.rep.tol)
    pair_ba, q_ba = interior_tensor_pair(corr_b, corr_a, bundle.rep.tol)
    loc_ab = localize_point(pair_ab, rho, 1e-8)
    loc_ba = localize_point(pair_ba, rho, 1e-8)
    ext_ab = descend_map_loop(
        np.kron(np.eye(sys_.fiber_dim(a)), v_raw(bundle, b)) @ np.kron(q_ab.conj().T, np.eye(p)),
        loc_ab,
        loc_a,
        1e-6,
    )
    ext_ba = descend_map_loop(
        np.kron(np.eye(sys_.fiber_dim(b)), v_raw(bundle, a)) @ np.kron(q_ba.conj().T, np.eye(p)),
        loc_ba,
        loc_b,
        1e-6,
    )
    u_ab = sys_.mult_iso(a, b) @ q_ab.conj().T
    u_ba = sys_.mult_iso(b, a) @ q_ba.conj().T
    t_mod = np.linalg.pinv(u_ba) @ u_ab
    t_loc = descend_map_loop(np.kron(t_mod, np.eye(p)), loc_ab, loc_ba, 1e-6)
    lhs = ext_ba @ t_loc @ ext_ab.conj().T

    gbound = tuple(max(0, m - max(guard, 1)) for m in bundle.window.bound)
    u, svals, _ = np.linalg.svd(generating_matrix(bundle, gbound), full_matrices=False)
    p_guard = u[:, svals > 1e-8 * max(svals.max(initial=0.0), 1.0)]
    proj = np.kron(np.eye(sys_.fiber_dim(a)), p_guard @ p_guard.conj().T)
    proj_loc = loc_a.factor @ proj @ loc_a.lift
    return float(np.linalg.norm((lhs - rhs) @ proj_loc, 2))


def _smallest_kept_sval(m: np.ndarray, rtol: float = 1e-8) -> float:
    svals = np.linalg.svd(m, compute_uv=False)
    return float(svals[svals > rtol * max(svals.max(initial=0.0), 1.0)].min())


def weak_form_bound(vectors: np.ndarray, weak: float) -> float:
    """Bound on the operator norm ||D|| of a d x d defect from its weak form
    max |G^H D G| on the n columns of G, which span C^d:
    n max |G^H D G| / sigma_min(G)^2, as representation.validate_sigma
    states it."""
    return vectors.shape[1] * weak / _smallest_kept_sval(vectors) ** 2


def doubly_commuting_bound(bundle, j: int, k: int, weak: float, guard: int = 1) -> float:
    """Bound on the operator-norm residual of the doubly-commuting identity
    on x (x) (guarded generating vectors), `doubly_commuting_V_inline`, from
    the weak residual of dilation.verify_doubly_commuting_V:
    sqrt(p_a p_b n n') max |W| / (sigma_min(Phi_b) sigma_min(Phi_a)), with
    Phi_x = F_x (I (x) G) the localized images over V_0 of the n generating
    vectors G (on the left, x = b) and of the n' guarded ones (on the right,
    x = a), F_x the factor of `localize_point`."""
    sys_ = bundle.rep.system
    a = tuple(int(i == j - 1) for i in range(sys_.k))
    b = tuple(int(i == k - 1) for i in range(sys_.k))
    rho = bundle.isometric_rep.sigma.mats
    gbound = tuple(max(0, m - max(guard, 1)) for m in bundle.window.bound)
    gens, guarded = bundle.factor, bundle.localized(gbound)
    phi = {}
    for x, vectors in ((a, guarded), (b, gens)):
        loc = localize_point(sys_.fiber(x), rho, 1e-8)
        phi[x] = loc.factor @ np.kron(np.eye(sys_.fiber_dim(x)), vectors)
    size = sys_.fiber_dim(a) * sys_.fiber_dim(b) * gens.shape[1] * guarded.shape[1]
    return np.sqrt(size) * weak / (_smallest_kept_sval(phi[a]) * _smallest_kept_sval(phi[b]))


# -- dense references for the blockwise package checks --------------------------


def _opnorm(m: np.ndarray) -> float:
    return 0.0 if m.size == 0 else float(np.linalg.norm(m, 2))


def _leq(s, t) -> bool:
    return all(a <= b for a, b in zip(s, t, strict=True))


def _sub(s, t) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(s, t, strict=True))


def _add(s, t) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(s, t, strict=True))


class DenseFock:
    """H_L of a package TruncatedFock with every T^_s as a dense dim H_L
    square matrix. For small L only.

    Block loc(r) of the box occupies a contiguous coordinate slice, in the
    order of `space.blocks`, and T^_s has block (r - s, r) equal to
    `rep.lowering_block(r, s)` for every r >= s in the box. Only the blocks
    come from the package; the layout, the products and the norms are
    computed here.
    """

    def __init__(self, space):
        self.space = space
        self.rep = space.rep
        self.dim = sum(loc.rank for loc in space.locs)
        self._slices = {}
        self._locs = {}
        start = 0
        for s, loc in zip(space.blocks, space.locs, strict=True):
            self._slices[s] = slice(start, start + loc.rank)
            self._locs[s] = loc
            start += loc.rank
        self._hats = {}

    def block_slice(self, s) -> slice:
        return self._slices[tuple(s)]

    def block_loc(self, s):
        return self._locs[tuple(s)]

    def hat(self, s) -> np.ndarray:
        """T^_s on H_L."""
        s = tuple(s)
        if s not in self._hats:
            if not any(s):
                mat = np.eye(self.dim, dtype=complex)
            else:
                mat = np.zeros((self.dim, self.dim), dtype=complex)
                for r in self.space.blocks:
                    if _leq(s, r):
                        mat[self.block_slice(_sub(r, s)), self.block_slice(r)] = self.rep.lowering_block(r, s)
            self._hats[s] = mat
        return self._hats[s]

    def delta(self, s, x, h) -> np.ndarray:
        """Coordinates of delta_s . (x (x) h); for s = 0, x is ignored."""
        s = tuple(s)
        out = np.zeros(self.dim, dtype=complex)
        h = np.asarray(h, dtype=complex)
        if not any(s):
            out[self.block_slice(s)] = h
        else:
            out[self.block_slice(s)] = self.block_loc(s).factor @ np.kron(np.asarray(x, dtype=complex), h)
        return out


def check_hat_semigroup(space, s, t) -> float:
    """|| T^_s T^_t - T^_{s+t} || on H_L for one pair, from the package's
    defect blocks (exact, not truncated)."""
    from dilationlab.hatspace import _semigroup_defects
    from dilationlab.linalg import max_opnorm

    return max_opnorm(_semigroup_defects(space, [(tuple(s), tuple(t))]))


def hat_semigroup_dense(dense: DenseFock, s, t) -> float:
    """|| T^_s T^_t - T^_{s+t} || from the dense matrices."""
    return _opnorm(dense.hat(s) @ dense.hat(t) - dense.hat(_add(s, t)))


def technology_dense(dense: DenseFock) -> float:
    """max over 0 < s <= L of || (T^_s restricted to block s, into block 0) F_s - T_s ||."""
    zero = tuple(0 for _ in dense.space.bound)
    worst = 0.0
    for s in dense.space.blocks:
        if any(s):
            block = dense.hat(s)[dense.block_slice(zero), dense.block_slice(s)]
            worst = max(worst, _opnorm(block @ dense.block_loc(s).factor - dense.rep.t_raw(s)))
    return worst


def check_technology(dense: DenseFock, s, x, h) -> float:
    """|| T^_s (delta_s . x (x) h) - delta_0 . T_s(x) h || for one vector."""
    s = tuple(s)
    zero = tuple(0 for _ in s)
    raw = np.kron(np.asarray(x, dtype=complex), np.asarray(h, dtype=complex))
    expected = dense.delta(zero, None, dense.rep.t_raw(s) @ raw)
    return float(np.linalg.norm(dense.hat(s) @ dense.delta(s, x, h) - expected))


def hat_doubly_commuting_dense(dense: DenseFock, j: int, k: int) -> float:
    """|| T^_a^H T^_b - T^_b T^_a^H || for a = e_j, b = e_k."""
    nlat = len(dense.space.bound)
    a = dense.hat(tuple(int(i == j - 1) for i in range(nlat)))
    b = dense.hat(tuple(int(i == k - 1) for i in range(nlat)))
    return _opnorm(a.conj().T @ b - b @ a.conj().T)


def a_action(dense: DenseFock, a) -> np.ndarray:
    """Block-diagonal left action of an algebra element on H_L."""

    rep = dense.rep
    mat = np.zeros((dense.dim, dense.dim), dtype=complex)
    for s in dense.space.blocks:
        sl = dense.block_slice(s)
        if not any(s):
            mat[sl, sl] = rep.sigma.apply(a.coords)
        else:
            corr = rep.system.fiber(s)
            loc = dense.block_loc(s)
            raw = np.kron(corr.act_left(a.coords), np.eye(rep.dim))
            mat[sl, sl] = descend_map_loop(raw, loc, loc, rep.tol)
    return mat


def brehmer_check_hat(dense: DenseFock, v, s) -> float:
    """Minimum eigenvalue of sum over u subset v of (-1)^|u| T^_{s[u]}^H T^_{s[u]}."""
    total = np.zeros((dense.dim, dense.dim), dtype=complex)
    v = tuple(sorted(v))
    for r in range(len(v) + 1):
        for u in itertools.combinations(v, r):
            su = tuple(c if i + 1 in u else 0 for i, c in enumerate(s))
            hat = dense.hat(su)
            total += (-1) ** len(u) * (hat.conj().T @ hat)
    if dense.dim == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (total + total.conj().T)).min())


# -- per-pair loop references for the stacked package checks ------------------


def homomorphism_residuals_loop(mul_table: np.ndarray, right: np.ndarray, left: np.ndarray) -> tuple[float, float]:
    """max over basis pairs (p, q) of || right(f_p f_q) - right(f_q) right(f_p) ||
    and || left(f_p f_q) - left(f_p) left(f_q) ||, one pair at a time."""
    r_hom = l_hom = 0.0
    n = mul_table.shape[0]
    for p in range(n):
        for q in range(n):
            combo_r = np.tensordot(mul_table[p, q], right, axes=(0, 0))
            r_hom = max(r_hom, _opnorm(combo_r - right[q] @ right[p]))
            combo_l = np.tensordot(mul_table[p, q], left, axes=(0, 0))
            l_hom = max(l_hom, _opnorm(combo_l - left[p] @ left[q]))
    return r_hom, l_hom


def sigma_residuals_loop(mul_table: np.ndarray, adj: np.ndarray, mats: np.ndarray) -> tuple[float, float]:
    """Multiplicative and *-preserving residuals of a representation given by
    its basis images `mats`, one basis element or pair at a time."""
    _, left_hom = homomorphism_residuals_loop(mul_table, mats, mats)
    star = 0.0
    for p in range(mats.shape[0]):
        combo = np.tensordot(adj[p], mats, axes=(0, 0))
        star = max(star, _opnorm(combo - mats[p].conj().T))
    return left_hom, star


def verify_regular_dilation_loop(bundle, guard: int = 1) -> dict[str, float]:
    """The composite-point form of verify_regular_dilation, as the package
    computed it before it checked V_0 and the generator steps only: item 3,
    item 4, the isometry and the semigroup law at every window point s > 0,
    with one operator norm per basis pair or per point and fiber basis
    vector, and one Kronecker product per point of a target; item 4 is
    `item4_two_orth`. Every V_s is the composition of the recovered
    generator isometries, isometric_rep.t_raw(s), and the isometry and
    semigroup checks run on the localized generating vectors
    (`loc_domain_and_targets`). Item 2 compares the factor's localized
    columns with the lowering blocks Theta(s, s), and item 3 the composed
    V_s on H with the raw generating vectors `gen_block`. `V0_star_hom` is
    the multiplicative and *-preserving part only. The bounds of
    `generator_step_bounds` hold for these values."""

    def support(s):
        return {i for i, c in enumerate(s) if c}

    rep = bundle.rep
    sys_ = rep.system
    alg = sys_.algebra
    points = bundle.window.points
    gbound = tuple(max(0, b - guard) for b in bundle.window.bound)
    zero = tuple(0 for _ in bundle.window.bound)
    gen0 = gen_block(bundle, zero)
    p_h = gen0 @ gen0.conj().T
    iso = bundle.isometric_rep
    v0 = iso.sigma
    rank = bundle.rank
    d = rep.dim

    def v_of(s, a):
        return iso.t_raw(s)[:, a * rank : (a + 1) * rank]

    item1 = 0.0
    for p in range(alg.dim):
        item1 = max(item1, _opnorm(v0.mats[p] @ p_h - p_h @ v0.mats[p]))
        item1 = max(item1, _opnorm(gen0.conj().T @ v0.mats[p] @ gen0 - rep.sigma.mats[p]))
    star_hom = max(sigma_residuals_loop(alg.mul_table, alg.adj_table, v0.mats))

    slice_of = dict(zip(points, bundle.window.slices))
    item2 = 0.0
    for s_neg in points:
        for s_pos in points:
            if support(s_neg) & support(s_pos):
                continue
            lhs = bundle.factor[:, slice_of[s_neg]].conj().T @ bundle.factor[:, slice_of[s_pos]]
            rhs = rep.lowering_block(s_neg, s_neg).conj().T @ rep.lowering_block(s_pos, s_pos)
            item2 = max(item2, _opnorm(lhs - rhs))

    item3 = 0.0
    for s in points:
        if any(s):
            g_s = gen_block(bundle, s)
            for a in range(sys_.fiber_dim(s)):
                item3 = max(item3, _opnorm(v_of(s, a) @ gen0 - g_s[:, a * d : (a + 1) * d]))

    item4 = item4_two_orth(bundle)

    iso_res = 0.0
    semi_res = 0.0
    for s in points:
        if not any(s):
            continue
        corr = sys_.fiber(s)
        basis = np.eye(sys_.fiber_dim(s))
        for a in range(sys_.fiber_dim(s)):
            dom, tgt = loc_domain_and_targets(bundle, s, basis[a])
            semi_res = max(semi_res, _opnorm(v_of(s, a) @ dom - tgt))
            if not _leq(s, gbound):
                continue
            va = v_of(s, a) @ dom
            for b in range(sys_.fiber_dim(s)):
                vb = v_of(s, b) @ dom
                v0g = v0.apply(corr.gram[a, b])
                iso_res = max(iso_res, float(np.abs(va.conj().T @ vb - dom.conj().T @ v0g @ dom).max()))

    return {
        "regular_item1": item1,
        "regular_item2": item2,
        "regular_item3": float(item3),
        "regular_item4": item4,
        "V_isometry": iso_res,
        "V_semigroup": semi_res,
        "V0_star_hom": star_hom,
    }


def v_semigroup_pairs(bundle, guard: int = 1) -> tuple[float, float]:
    """The per-pair semigroup law V_{s+t}(U_{s,t}(e_a (x) e_b)) = V_s(e_a) V_t(e_b)
    on the localized generating vectors at the points r with s + t + r in
    the window, for s, t > 0 with s + t at least `guard` inside it, with
    every V_s = isometric_rep.t_raw(s): (largest residual, constant).

    The constant is the largest C(s, t, a, b) = ||mu_{s,t} e_ab||_1 +
    max_r ||A_{t,r}(e_b)|| + ||V_s(e_a)|| over the same pairs, with
    A_{t,r}(x) = `loc_action(bundle, t, x, r)`. With the associativity of
    the product system, the pair residual is at most C times the
    V_semigroup residual of verify_regular_dilation (one comparison per
    point), because the pair defect at r is
    sum_g mu[g, ab] E_{s+t,g} at r - E_{s,a} at t + r times A_{t,r}(e_b)
    - V_s(e_a) E_{t,b} at r, with E_{u,c} = V_u(e_c) domain(u) - targets.
    """
    sys_ = bundle.rep.system
    iso = bundle.isometric_rep
    rank = bundle.rank
    bound = bundle.window.bound
    gbound = tuple(max(0, b - guard) for b in bound)
    points = [s for s in bundle.window.points if any(s)]
    worst = 0.0
    const = 0.0
    for s in points:
        for t in points:
            st = _add(s, t)
            if not _leq(st, gbound):
                continue
            mu = sys_.mult_iso(s, t)
            dom, _ = loc_domain_and_targets(bundle, st, np.eye(sys_.fiber_dim(st))[0])
            rs = [r for r in bundle.window.points if _leq(_add(st, r), bound)]
            p_t = sys_.fiber_dim(t)
            basis_t = np.eye(p_t)
            for a in range(sys_.fiber_dim(s)):
                v_a = iso.t_raw(s)[:, a * rank : (a + 1) * rank]
                for b in range(p_t):
                    lhs = iso.t_raw(st) @ np.kron(mu[:, [a * p_t + b]], np.eye(rank))
                    rhs = v_a @ iso.t_raw(t)[:, b * rank : (b + 1) * rank]
                    worst = max(worst, _opnorm((lhs - rhs) @ dom))
                    a_norm = max(_opnorm(loc_action(bundle, t, basis_t[b], r)) for r in rs)
                    const = max(const, np.abs(mu[:, a * p_t + b]).sum() + a_norm + _opnorm(v_a))
    return worst, const


def _orth_cols(m: np.ndarray, rtol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of the column space: the left singular vectors of
    the singular values above rtol * max(1, largest one)."""
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=m.dtype)
    u, svals, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, svals > rtol * max(svals.max(initial=0.0), 1.0)]


def item4_two_orth(bundle, points=None) -> float:
    """Item 4 of verify_regular_dilation, max over points s (default: every
    window point s > 0) and fiber basis vectors e_a of ||P_H V_s(e_a) Q||,
    with Q an orthonormal basis of domain (-) H found by orthonormalising
    the localized domain and then its part orthogonal to H, as the package
    computed it before it took the projector P_domain - P_H."""
    rank = bundle.rank
    gen0 = gen_block(bundle, tuple(0 for _ in bundle.window.bound))
    p_h = gen0 @ gen0.conj().T
    item4 = 0.0
    for s in bundle.window.points if points is None else points:
        if any(s):
            dom, _ = loc_domain_and_targets(bundle, s, np.eye(bundle.rep.system.fiber_dim(s))[0])
            q_dom = _orth_cols(dom)
            q_perp = _orth_cols(q_dom - p_h @ q_dom)
            v = bundle.isometric_rep.t_raw(s)
            for a in range(bundle.rep.system.fiber_dim(s)):
                item4 = max(item4, _opnorm(gen0.conj().T @ v[:, a * rank : (a + 1) * rank] @ q_perp))
    return item4


def generator_step_bounds(bundle, residuals: dict[str, float], guard: int = 1) -> dict[str, float]:
    """Upper bounds, from verify_regular_dilation's generator-step
    `residuals`, for the composite-point values of
    `verify_regular_dilation_loop` (item 3, item 4, isometry, semigroup).

    Every window point s > 0 that is no generator is s = u + e_i with i the
    largest generator of s, and V_s(e_c) = sum over (a, b) of
    conj(q_s[c, ab]) V_u(e_a) T_b, with q_s the point's last_q and T_b the
    map of E_i's basis vector e_b. On domain(s), T_b = V_{e_i}(q_i e_b) +
    T(N e_b), N the null projector of E_i, maps the generating vectors at t
    to those at e_i + t up to its defect E_b, with ||E_b|| <= eps_raw =
    (lam_i + ||domain(e_i)||) g, lam_i the largest column 1-norm of q_i and
    g the V_semigroup residual (which covers the null vanishing). With
    rho_s the largest row 1-norm of q_s, A_b the block action of q_i e_b
    from t to e_i + t (norm nS), and alpha(s) the associativity defect of
    the targets themselves, the semigroup defect satisfies

        B(s) = rho_s (max_a ||V_u(e_a)|| eps_raw + nS B(u)) + alpha(s),

    with B(e_i) = g; unrolled, B(s) is |s| times g, times the products of
    these norms, plus the alpha. Item 3 is the t = 0 part of the same
    defect, so it is bounded by B(s) as well. Item 4 on a unit k in
    domain(s) (-) H = domain(s) c, ||c|| <= 1/sigma_s, splits as
    P_H V_u P_H T_b k + P_H V_u (I - P_H) T_b k, where (I - P_H) T_b k lies
    in domain(u) (-) H up to E_b c:

        B4(s) = rho_s (||V_u|| (lam_i g4 + g) + B4(u) (||T_b|| + eps_raw/sigma_s)
                       + ||V_u|| eps_raw/sigma_s),

    with B4(e_i) = g4, the item 4 residual. The isometry at s is the
    window kernel's own shift defect kappa(s) = targets(s)[a]^H
    targets(s)[b] - domain(s)^H V_0-targets(<e_a, e_b>) plus the defect
    terms:

        Biso(s) = kappa(s) + (2 ||targets(s)|| + B(s)) B(s)
                  + ||domain(s)|| |<e_a, e_b>|_1 g,

    as V_0's defect on every generating vector is part of g. alpha and
    kappa vanish for exact data (associativity of the product system and
    of the kernel); they are computed here from the localized actions
    `loc_action`, independently of the recovered maps.
    """
    rep = bundle.rep
    sys_ = rep.system
    iso = bundle.isometric_rep
    p = bundle.rank
    bound = bundle.window.bound
    k = sys_.k
    gbound = tuple(max(0, b - guard) for b in bound)
    zero = tuple(0 for _ in bound)
    slice_of = dict(zip(bundle.window.points, bundle.window.slices))
    g, g4 = residuals["V_semigroup"], residuals["regular_item4"]

    def unit(i):
        return tuple(int(j == i - 1) for j in range(k))

    def gens_at(s):
        return bundle.factor[:, slice_of[s]]

    def action(s, x, t):
        # x in X(s) acting loc(t) -> loc(s + t); sigma(x) for s = t = 0
        if not any(s) and not any(t):
            return rep.sigma.apply(x)
        return loc_action(bundle, s, x, t)

    def domain(s):
        return np.concatenate([gens_at(t) for t in window_points(_sub(bound, s))], axis=1)

    def targets(s, x, shift=None):
        # the images V_s(x) must give domain(shift), by default domain(s)
        ts = window_points(_sub(bound, s if shift is None else shift))
        return np.concatenate([gens_at(_add(s, t)) @ action(s, x, t) for t in ts], axis=1)

    def v_of(s, a):
        return iso.t_raw(s)[:, a * p : (a + 1) * p]

    memo = {}

    def basis_targets(s):
        if s not in memo:
            memo[s] = [targets(s, e) for e in np.eye(sys_.fiber_dim(s))]
        return memo[s]

    def svals(m):
        return np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(1)

    step = {}
    for i in range(1, k + 1):
        q_i = sys_.word_data((i,)).last_q
        dom_i = domain(unit(i))
        step[i] = dict(
            q=q_i,
            eps_raw=(np.abs(q_i).sum(axis=0).max() + _opnorm(dom_i)) * g,
            lam=np.abs(q_i).sum(axis=0).max(),
            n_t=max(_opnorm(t_b) for t_b in iso.t_maps[i - 1]),
        )
    semi = {}
    item4 = {}
    isometry = {}
    for s in window_points(bound):  # u = s - e_i comes before s
        if not any(s):
            continue
        if sum(s) == 1:
            semi[s], item4[s] = g, g4
        else:
            i = max(j + 1 for j, c in enumerate(s) if c)
            e_i, st = unit(i), step[i]
            u = _sub(s, e_i)
            q_s = sys_.point_data(s).last_q
            m_i = st["q"].shape[1]
            rho = np.abs(q_s).sum(axis=1).max()
            n_v = max(_opnorm(v_of(u, a)) for a in range(sys_.fiber_dim(u)))
            ts = window_points(_sub(bound, s))
            p_u = sys_.fiber_dim(u)
            acts_u = [[action(u, e, _add(e_i, t)) for t in ts] for e in np.eye(p_u)]
            acts_i = [[action(e_i, st["q"][:, b], t) for t in ts] for b in range(m_i)]
            n_s = max(_opnorm(x) for row in acts_i for x in row)
            # the targets of V_u(e_a) T_b on domain(s), as (p_u, m_i, p, n_s)
            pairs = np.array(
                [
                    [
                        np.concatenate(
                            [gens_at(_add(s, t)) @ x @ y for t, x, y in zip(ts, xs, ys)], axis=1
                        )
                        for ys in acts_i
                    ]
                    for xs in acts_u
                ]
            )
            composed = np.tensordot(q_s.conj().reshape(-1, p_u, m_i), pairs, axes=([1, 2], [0, 1]))
            alpha = max(_opnorm(x - y) for x, y in zip(composed, basis_targets(s)))
            sv = svals(domain(s))
            sigma_s = sv[sv > 1e-8 * max(sv.max(), 1.0)].min()
            semi[s] = rho * (n_v * st["eps_raw"] + n_s * semi[u]) + alpha
            item4[s] = rho * (
                n_v * (st["lam"] * g4 + g)
                + item4[u] * (st["n_t"] + st["eps_raw"] / sigma_s)
                + n_v * st["eps_raw"] / sigma_s
            )
        if _leq(s, gbound):
            dom = domain(s)
            gram = sys_.fiber(s).gram
            p_s = sys_.fiber_dim(s)
            tgts = basis_targets(s)
            # V_0's targets on domain(s) are linear in the algebra element
            v0_basis = np.array([targets(zero, e, s) for e in np.eye(sys_.algebra.dim)])
            v0_tgts = np.tensordot(gram, v0_basis, axes=(2, 0))
            kappa = max(
                float(np.abs(tgts[a].conj().T @ tgts[b] - dom.conj().T @ v0_tgts[a, b]).max())
                for a in range(p_s)
                for b in range(p_s)
            )
            n_tgt = max(_opnorm(t) for t in tgts)
            ell = np.abs(gram).sum(axis=2).max()
            isometry[s] = kappa + (2 * n_tgt + semi[s]) * semi[s] + _opnorm(dom) * ell * g
    worst = max(semi.values(), default=0.0)
    return {
        "regular_item3": worst,
        "regular_item4": max(item4.values(), default=0.0),
        "V_isometry": max(isometry.values(), default=0.0),
        "V_semigroup": worst,
    }


def commutation_residual_raw_pair(rep, i: int, j: int) -> float:
    """The commutation residual of validate_representation normed on the
    localization of the raw, unreduced pair E_i (x) E_j."""

    ei, ej = rep.system.generators[i - 1], rep.system.generators[j - 1]
    d = rep.dim
    ti, tj = rep.gen_t_raw(i), rep.gen_t_raw(j)
    lhs = ti @ np.kron(np.eye(ei.dim), tj)
    rhs = tj @ np.kron(np.eye(ej.dim), ti) @ np.kron(rep.system.flips[(i, j)], np.eye(d))
    loc_pair = localize_point(raw_tensor(ei, ej), rep.sigma.mats, rep.tol)
    return _opnorm((lhs - rhs) @ loc_pair.lift)


def loc_action(bundle, s, x, t) -> np.ndarray:
    """x . (-): loc(t) -> loc(s + t) for one element x of X(s), in localized
    coordinates: F_{s+t} (U_{s,t}(x (x) -) (x) I_H) lift_t, and F_s (x (x) I_H)
    on loc(0) = H."""
    rep = bundle.rep
    sys_ = rep.system
    x = np.asarray(x, dtype=complex).reshape(-1, 1)
    if not any(t):
        raw = np.kron(x, np.eye(rep.dim))
    else:
        raw = np.kron(sys_.mult_iso(s, t) @ np.kron(x, np.eye(sys_.fiber_dim(t))), np.eye(rep.dim))
    return rep.loc(_add(s, t)).factor @ raw @ rep.loc(t).lift


def loc_domain_and_targets(bundle, s, x) -> tuple[np.ndarray, np.ndarray]:
    """The localized generating vectors on which V_s is defined, one factor
    slice per window point t with s + t in the window, and the images
    V_s(x) must give them: the slice at s + t times `loc_action`."""
    s = tuple(s)
    window = bundle.window
    slice_of = dict(zip(window.points, window.slices))
    doms, tgts = [], []
    for t in window.points:
        st = _add(s, t)
        if not _leq(st, window.bound):
            continue
        doms.append(bundle.factor[:, slice_of[t]])
        tgts.append(bundle.factor[:, slice_of[st]] @ loc_action(bundle, s, x, t))
    return np.concatenate(doms, axis=1), np.concatenate(tgts, axis=1)


def build_Vs_loop(bundle, s, x) -> np.ndarray:
    """V_s(x) for one fiber element x, by one least-squares solve on the
    localized generating vectors of `loc_domain_and_targets`."""
    dom, tgt = loc_domain_and_targets(bundle, s, x)
    return tgt @ np.linalg.pinv(dom)


def build_Vs_raw(bundle, s, x) -> np.ndarray:
    """V_s(x) for one fiber element x, by one Kronecker product per window
    point and one least-squares solve on the raw fiber (x) H generating
    vectors, as the package built it before it solved on localized ones."""
    s = tuple(s)
    sys_ = bundle.rep.system
    d = bundle.rep.dim
    x = np.asarray(x, dtype=complex).reshape(-1, 1)
    doms, tgts = [], []
    for t in bundle.window.points:
        st = _add(s, t)
        if not _leq(st, bundle.window.bound):
            continue
        doms.append(gen_block(bundle, t))
        if not any(t):
            raw = np.kron(x, np.eye(d))
        else:
            mu = sys_.mult_iso(s, t)
            raw = np.kron(mu @ np.kron(x, np.eye(sys_.fiber_dim(t))), np.eye(d))
        tgts.append(gen_block(bundle, st) @ raw)
    return np.concatenate(tgts, axis=1) @ np.linalg.pinv(np.concatenate(doms, axis=1))


def v_raw_loop(bundle, s) -> np.ndarray:
    """The V_s(e_alpha) side by side, one `build_Vs_loop` per basis vector."""
    basis = np.eye(bundle.rep.system.fiber_dim(tuple(s)))
    return np.concatenate([build_Vs_loop(bundle, s, e) for e in basis], axis=1)


def gen_block(bundle, s) -> np.ndarray:
    """Images in C^p of the generating vectors delta_s . x (x) h, columns
    indexed by raw fiber (x) H coordinates (by H basis for s = 0): the
    factor's localized columns at s times the localization factor F_s."""
    slice_of = dict(zip(bundle.window.points, bundle.window.slices))
    return bundle.factor[:, slice_of[tuple(s)]] @ bundle.rep.loc(s).factor


def generating_matrix(bundle, bound=None) -> np.ndarray:
    """`gen_block` of every window point <= bound (default: the window's
    bound), side by side."""
    bound = bundle.window.bound if bound is None else tuple(bound)
    return np.concatenate(
        [gen_block(bundle, s) for s in bundle.window.points if _leq(s, bound)], axis=1
    )


def build_Vs(bundle, s, x) -> np.ndarray:
    """V_s(x) on C^p for one fiber element x (a p x p result) or a (p_s, c)
    block of them (a p x (c p) result), by one least-squares solve of the
    package's targets contracted with x on its domain(s)."""
    from dilationlab.dilation import LSQ_TOL
    from dilationlab.linalg import lstsq_map

    x = np.asarray(x, dtype=complex)
    x = x.reshape(-1, 1) if x.ndim < 2 else x
    tgts = np.tensordot(x, bundle.targets(s), axes=(0, 0))
    dom = bundle.domain(s)
    vs = lstsq_map(tgts, dom, np.linalg.pinv(dom), LSQ_TOL, f"build_Vs at {tuple(s)}")
    return vs.transpose(1, 0, 2).reshape(bundle.rank, -1)


def v_raw(bundle, s) -> np.ndarray:
    """p x (p_s p) map x (x) k -> V_s(x) k: the V_s(e_alpha) side by side."""
    return build_Vs(bundle, s, np.eye(bundle.rep.system.fiber_dim(tuple(s))))


def isometric_maps_two_paths(bundle) -> tuple[np.ndarray, list[np.ndarray]]:
    """(V_0, [T_i]) of the recovered representation by the two solves the
    package once used: V_0 by one solve on all generating vectors with
    targets in raw fiber (x) H coordinates, sigma at 0 and the stacked
    left actions kron(phi(a), I_H) elsewhere; each V_{e_i} as `v_raw`, taken
    to E_i's basis by kron(last_q, I_p)."""
    from dilationlab.dilation import LSQ_TOL
    from dilationlab.linalg import lstsq_map

    rep = bundle.rep
    sys_ = rep.system
    p = bundle.rank
    tgts = []
    for s in bundle.window.points:
        if any(s):
            acts = np.stack([np.kron(left, np.eye(rep.dim)) for left in sys_.fiber(s).left_action])
        else:
            acts = rep.sigma.mats
        tgts.append(gen_block(bundle, s) @ acts @ rep.loc(s).lift)
    gens = bundle.factor
    v0 = lstsq_map(np.concatenate(tgts, axis=2), gens, np.linalg.pinv(gens), LSQ_TOL, "V_0")
    t_maps = []
    for i, gen in enumerate(sys_.generators, start=1):
        e_i = tuple(int(j == i - 1) for j in range(sys_.k))
        raw = v_raw(bundle, e_i) @ np.kron(sys_.word_data((i,)).last_q, np.eye(p))
        t_maps.append(raw.reshape(p, gen.dim, p).transpose(1, 0, 2))
    return v0, t_maps


# -- multiplication isomorphisms on the interior-tensor quotient --------------


def _word(s) -> tuple[int, ...]:
    return tuple(i + 1 for i, c in enumerate(s) for _ in range(c))


def append_map_dense(system, word, i) -> np.ndarray:
    """Reduced map X(word) (x) E_i -> X(sorted(word + (i,))), flipping with
    the dense I_{p_prefix} (x) flip and inverting flips afresh."""
    word = tuple(word)
    if not word or word[-1] <= i:
        return system.word_data(word + (i,)).last_q
    prefix, j = word[:-1], word[-1]
    m_i = system.generators[i - 1].dim
    m_j = system.generators[j - 1].dim
    p_prefix = system.word_data(prefix).corr.dim if prefix else 1
    flip = np.linalg.pinv(system.flips[(i, j)])  # E_j (x) E_i -> E_i (x) E_j, i < j
    peel = np.kron(system.word_data(word).last_q.conj().T, np.eye(m_i))
    inner = np.kron(append_map_dense(system, prefix, i), np.eye(m_j))
    rejoin = append_map_dense(system, tuple(sorted(prefix + (i,))), j)
    return rejoin @ inner @ np.kron(np.eye(p_prefix), flip) @ peel


def mult_iso_quotient(system, s, t) -> tuple[np.ndarray, np.ndarray]:
    """(q, U): the surjection q of interior_tensor_pair(X(s), X(t)) and the
    unitary U on its quotient, with the multiplication map projected onto
    the quotient (mu = U q) at every step of the recursion over t."""

    s, t = tuple(s), tuple(t)
    cs = system.fiber(s)
    ct = system.fiber(t)
    _, q = interior_tensor_pair(cs, ct, system.tol)
    adim = system.algebra.dim
    if not any(s):
        raw = np.transpose(ct.left_action, (1, 0, 2)).reshape(ct.dim, adim * ct.dim)
    elif not any(t):
        raw = np.transpose(cs.right_action, (1, 2, 0)).reshape(cs.dim, cs.dim * adim)
    else:
        i = max(j + 1 for j, c in enumerate(t) if c)
        t_prev = tuple(c - (j == i - 1) for j, c in enumerate(t))
        split = np.kron(np.eye(cs.dim), system.word_data(_word(t)).last_q.conj().T)
        if not any(t_prev):
            raw = append_map_dense(system, _word(s), i) @ split
        else:
            q_prev, u_prev = mult_iso_quotient(system, s, t_prev)
            m_i = system.generators[i - 1].dim
            raw = (
                append_map_dense(system, _word(_add(s, t_prev)), i)
                @ np.kron(u_prev @ q_prev, np.eye(m_i))
                @ split
            )
    return q, raw @ q.conj().T


def lowering_raw_quotient(rep, t, s) -> np.ndarray:
    """Raw X(t) (x) H -> X(t-s) (x) H map of I (x) T~_s, split through
    q^H U^{-1} for 0 < s < t."""
    rest = _sub(t, s)
    q, u = mult_iso_quotient(rep.system, rest, s)
    split = q.conj().T @ np.linalg.pinv(u)
    p_rest = rep.system.fiber_dim(rest)
    return np.kron(np.eye(p_rest), rep.t_raw(s)) @ np.kron(split, np.eye(rep.dim))


def _t_tilde(rep, s) -> np.ndarray:
    """T~_s: loc(s) -> H, the descent of `rep.t_raw(s)` onto H itself."""
    from dilationlab.correspondence import trivial_localized

    return descend_map_loop(rep.t_raw(s), rep.loc(s), trivial_localized(rep.dim), rep.tol)


def _ext_map(rep, a, b):
    """(I_a (x) T~_b): loc(X(a) (x) X(b)) -> loc(a) on the reduced pair of
    `interior_tensor`, with the pair's localization."""

    pair, q = interior_tensor_pair(rep.system.fiber(a), rep.system.fiber(b), rep.tol)
    loc_pair = localize_point(pair, rep.sigma.mats, rep.tol)
    p_a = rep.system.fiber_dim(a)
    raw = np.kron(np.eye(p_a), rep.t_raw(b)) @ np.kron(q.conj().T, np.eye(rep.dim))
    return descend_map_loop(raw, loc_pair, rep.loc(a), rep.tol), loc_pair


def doubly_commuting_defect_quotient(rep, j: int, k: int) -> np.ndarray:
    """(I_b (x) T~_a)(t (x) I_H)(I_a (x) T~_b^H) - T~_b^H T~_a for a = e_j,
    b = e_k, on the localized reduced pairs X(a) (x) X(b) and X(b) (x) X(a)
    of `interior_tensor`, with the flip t = U_{b,a}^{-1} U_{a,b} taken from
    `mult_iso_quotient`."""

    nlat = rep.system.k
    a = tuple(int(i == j - 1) for i in range(nlat))
    b = tuple(int(i == k - 1) for i in range(nlat))
    rhs = _t_tilde(rep, b).conj().T @ _t_tilde(rep, a)
    ext_ab, loc_ab = _ext_map(rep, a, b)
    ext_ba, loc_ba = _ext_map(rep, b, a)
    u_ab = mult_iso_quotient(rep.system, a, b)[1]
    u_ba = mult_iso_quotient(rep.system, b, a)[1]
    t_mod = np.linalg.pinv(u_ba) @ u_ab
    t_loc = descend_map_loop(np.kron(t_mod, np.eye(rep.dim)), loc_ab, loc_ba, rep.tol)
    return ext_ba @ t_loc @ ext_ab.conj().T - rhs


def _embedded_gram(corr) -> np.ndarray:
    n = corr.algebra.rep_dim
    blocks = np.einsum("ijp,pkl->ikjl", corr.gram, corr.algebra.basis_mats)
    return blocks.reshape(corr.dim * n, corr.dim * n)


def mult_iso_unitarity(system, s, t) -> float:
    """Residual of U_{s,t} = mu q^H preserving the embedded interior-tensor
    inner product, and of U^{-1} preserving it back."""

    s, t = tuple(s), tuple(t)
    n = system.algebra.rep_dim
    cs, ct = system.fiber(s), system.fiber(t)
    tensor_red, q = interior_tensor_pair(cs, ct, system.tol)
    u = system.mult_iso(s, t) @ q.conj().T
    src = _embedded_gram(tensor_red)
    tgt = _embedded_gram(system.fiber(_add(s, t)))
    u_big = np.kron(u, np.eye(n))
    inv_big = np.kron(np.linalg.pinv(u), np.eye(n))
    fwd = _opnorm(u_big.conj().T @ tgt @ u_big - src)
    bwd = _opnorm(inv_big.conj().T @ src @ inv_big - tgt)
    return max(fwd, bwd)


def check_associativity(system, s, t, r) -> float:
    """|| U_{s+t,r}(U_{s,t} (x) I) - U_{s,t+r}(I (x) U_{t,r}) || on the
    reduced triple tensor (X(s) (x) X(t)) (x) X(r)."""

    s, t, r = tuple(s), tuple(t), tuple(r)
    mu = system.mult_iso
    ps, pr = system.fiber_dim(s), system.fiber_dim(r)
    lhs = mu(_add(s, t), r) @ np.kron(mu(s, t), np.eye(pr))
    rhs = mu(s, _add(t, r)) @ np.kron(np.eye(ps), mu(t, r))
    # weight by the lift of the reduced triple tensor so null directions of
    # the semi-inner product do not contribute
    cr = system.fiber(r)
    c_st, q1 = interior_tensor_pair(system.fiber(s), system.fiber(t), system.tol)
    _, q2 = interior_tensor_pair(c_st, cr, system.tol)
    lift3 = np.kron(q1.conj().T, np.eye(cr.dim)) @ q2.conj().T
    return _opnorm((lhs - rhs) @ lift3)


def raw_word_maps(system, word) -> tuple[np.ndarray, np.ndarray]:
    """(surj, lift) between the raw word coordinates E_{w_1} (x) ... (x)
    E_{w_n} and the reduced X(word), by the full-word recursion
    surj = last_q (surj_prefix (x) I), lift = (lift_prefix (x) I) last_q^H."""
    word = tuple(word)
    q = system.word_data(word).last_q
    if len(word) == 1:
        return q, q.conj().T
    surj, lift = raw_word_maps(system, word[:-1])
    eye = np.eye(system.generators[word[-1] - 1].dim)
    return q @ np.kron(surj, eye), np.kron(lift, eye) @ q.conj().T


def braid_residual_raw(system, i: int, j: int, l: int) -> float:
    """|| surj_{lji} (route_a - route_b) lift_{ijl} || for the two flip
    routes E_i E_j E_l -> E_l E_j E_i, on `raw_word_maps`."""
    mi, mj, ml = (system.generators[x - 1].dim for x in (i, j, l))
    f_ij, f_il, f_jl = system.flips[(i, j)], system.flips[(i, l)], system.flips[(j, l)]
    route_a = np.kron(f_jl, np.eye(mi)) @ np.kron(np.eye(mj), f_il) @ np.kron(f_ij, np.eye(ml))
    route_b = np.kron(np.eye(ml), f_ij) @ np.kron(f_il, np.eye(mj)) @ np.kron(np.eye(mi), f_jl)
    _, lift = raw_word_maps(system, (i, j, l))
    surj, _ = raw_word_maps(system, (l, j, i))
    return _opnorm(surj @ (route_a - route_b) @ lift)


# -- algebra elements and Gram values that only the tests use ----------------


@dataclass(frozen=True)
class AlgebraElement:
    """An element of a CStarAlgebra by its coordinates in the matrix units."""

    algebra: object
    coords: np.ndarray = field(compare=False)


def element(algebra, coords) -> AlgebraElement:
    return AlgebraElement(algebra, np.asarray(coords))


def embed(a: AlgebraElement) -> np.ndarray:
    """Faithful block-diagonal n x n matrix of an element."""
    return np.tensordot(a.coords, a.algebra.basis_mats, axes=(0, 0))


def from_matrix(algebra, m: np.ndarray) -> AlgebraElement:
    """Element whose embedding is the block-diagonal part of m: the entries
    of m at the matrix units, read off the embedded basis."""
    _p, rows, cols = np.nonzero(algebra.basis_mats)
    return AlgebraElement(algebra, np.asarray(m)[rows, cols])


def _check_same_algebra(a, b) -> None:
    if a.algebra != b.algebra:
        raise InvalidArgumentError("elements live in different algebras")


def mul(a, b):
    _check_same_algebra(a, b)
    return from_matrix(a.algebra, embed(a) @ embed(b))


def adjoint(a):
    return from_matrix(a.algebra, embed(a).conj().T)


def norm(a) -> float:
    """C*-norm (operator norm of the faithful representation)."""
    return _opnorm(embed(a))


def is_positive(a, tol: float = 1e-10) -> bool:
    m = embed(a)
    if _opnorm(m - m.conj().T) > tol:
        return False
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()) >= -tol


def random_element(algebra, rng: np.random.Generator):
    coords = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
    return AlgebraElement(algebra, coords)


def gram_of(corr, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Algebra coordinates of <x, y> for coordinate vectors x, y of corr."""
    return np.einsum("i,j,ijp->p", np.conj(x), y, corr.gram)


# -- predicates on package objects that only the tests use --------------------


def is_isometric(rep, s, tol: float = 1e-10) -> bool:
    tt = rep.lowering_block(s, s)
    return _opnorm(tt.conj().T @ tt - np.eye(tt.shape[1])) <= tol


def is_fully_coisometric(rep, s, tol: float = 1e-10) -> bool:
    tt = rep.lowering_block(s, s)
    return _opnorm(tt @ tt.conj().T - np.eye(tt.shape[0])) <= tol


# -- C*-algebra tables, one matrix product at a time --------------------------


def basis_mats_loop(block_sizes) -> np.ndarray:
    """Embedded matrix units, block-major then row-major, one entry at a time."""
    n = sum(block_sizes)
    mats = []
    offset = 0
    for size in block_sizes:
        for i in range(size):
            for j in range(size):
                m = np.zeros((n, n), dtype=complex)
                m[offset + i, offset + j] = 1.0
                mats.append(m)
        offset += size
    return np.array(mats)


def multiplication_table_loop(algebra) -> np.ndarray:
    """Structure constants c[p, q, r] with f_p f_q = sum_r c[p, q, r] f_r,
    one `from_matrix` of a basis product at a time."""
    dim = algebra.dim
    table = np.zeros((dim, dim, dim), dtype=complex)
    for p in range(dim):
        for q in range(dim):
            table[p, q] = from_matrix(algebra, algebra.basis_mats[p] @ algebra.basis_mats[q]).coords
    return table


def adjoint_table_loop(algebra) -> np.ndarray:
    """Matrix s[p, r] with f_p^* = sum_r s[p, r] f_r, one basis element at a time."""
    return np.array([from_matrix(algebra, b.conj().T).coords for b in algebra.basis_mats])


# -- Kronecker-product builders the package now contracts factor by factor ----


def raw_tensor_gram(e, f) -> np.ndarray:
    """Gram of the algebraic tensor E (x) F on raw coordinates.

    <e_i (x) f_j, e_k (x) f_l>_p = <f_j, <e_i, e_k> . f_l>_p
    = sum over r, q of E.gram[i, k, r] F.left[r, q, l] F.gram[j, q, p],
    with raw index i * m_F + j; shape (m_E m_F, m_E m_F, dim A). The
    package once formed it to check flips.
    """
    me, mf = e.dim, f.dim
    act = np.tensordot(e.gram, f.left_action, axes=(2, 0))  # [i, k, q, l]
    gram = np.tensordot(act, f.gram, axes=(2, 1))  # [i, k, l, j, p]
    return gram.transpose(0, 3, 1, 2, 4).reshape(me * mf, me * mf, e.algebra.dim)


def raw_tensor(e, f):
    """The algebraic tensor E (x) F on raw coordinates i * m_F + j:
    raw_tensor_gram with the action stacks I (x) F.right and E.left (x) I,
    built in one broadcast product each (entrywise np.kron)."""
    from dilationlab.correspondence import Correspondence

    me, mf = e.dim, f.dim
    right = np.eye(me)[None, :, None, :, None] * f.right_action[:, None, :, None, :]
    left = e.left_action[:, :, None, :, None] * np.eye(mf)[None, None, :, None, :]
    shape = (e.algebra.dim, me * mf, me * mf)
    return Correspondence(e.algebra, raw_tensor_gram(e, f), right.reshape(shape), left.reshape(shape))


def interior_tensor_dense(e, f, tol: float = 1e-10):
    """The null quotient of the dense raw tensor: (correspondence, surjection)."""
    from dilationlab.correspondence import reduce_null

    return reduce_null(raw_tensor(e, f), tol)


def flip_residual_dense(system, i: int, j: int, phi: np.ndarray) -> float:
    """Flip residual on the dense raw tensors, one SVD per algebra basis
    element and side."""
    from dilationlab.correspondence import congruent_gram

    raw_ij = raw_tensor(system.generators[i - 1], system.generators[j - 1])
    raw_ji = raw_tensor(system.generators[j - 1], system.generators[i - 1])
    res = float(np.abs(congruent_gram(raw_ji.gram, phi) - raw_ij.gram).max())
    for p in range(system.algebra.dim):
        res = max(res, _opnorm(phi @ raw_ij.left_action[p] - raw_ji.left_action[p] @ phi))
        res = max(res, _opnorm(phi @ raw_ij.right_action[p] - raw_ji.right_action[p] @ phi))
    return res


def pair_word_surjection(system, i: int, j: int) -> np.ndarray:
    """The surjection of raw E_i (x) E_j onto the package's word (i, j):
    last_q (q_i (x) I) as an np.kron product."""
    q_i = system.word_data((i,)).last_q
    return system.word_data((i, j)).last_q @ np.kron(q_i, np.eye(system.generators[j - 1].dim))


def flip_residual_bounds(system, i: int, j: int, phi: np.ndarray, r: float) -> tuple[float, float]:
    """The two bounds ProductSystem._flip_residual states between its
    residual r and the raw-Gram residual R = flip_residual_dense:
    (M R + (t c M R)^(1/2), max(p + (2 ||F|| + r/tau) g/tau, 1 + 2a/tau) r + nu),
    the first bounding r and the second R, with the constants named there,
    computed from the dense raw tensors and the two words' surjections."""
    from dilationlab.correspondence import interior_tensor

    ei, ej = system.generators[i - 1], system.generators[j - 1]
    raw_ij, raw_ji = raw_tensor(ei, ej), raw_tensor(ej, ei)
    big_r = flip_residual_dense(system, i, j, phi)
    m = ei.dim * ej.dim
    sides = [(raw_ij.left_action, raw_ji.left_action), (raw_ij.right_action, raw_ji.right_action)]
    a = max(_opnorm(x) for pair in sides for stack in pair for x in stack)
    traces = np.trace(system.algebra.basis_mats, axis1=1, axis2=2)
    c = float(np.abs(traces).sum())
    vals = np.linalg.eigvalsh(raw_ji.gram @ traces)
    kept = vals[vals > system.tol]
    t, tau = (kept.max(), kept.min()) if kept.size else (0.0, np.inf)
    [(ji, q_ji)] = interior_tensor([(ej, ei)], system.tol)
    hat = q_ji @ phi @ pair_word_surjection(system, i, j).conj().T
    g = max((_opnorm(ji.gram[:, :, p]) for p in range(system.algebra.dim)), default=0.0)
    null_ji = np.eye(m) - q_ji.conj().T @ q_ji
    nu = max(_opnorm(null_ji @ (phi @ x - y @ phi)) for pair in sides for x, y in zip(*pair))
    k = max(ji.dim + (2 * _opnorm(hat) + r / tau) * g / tau, 1 + 2 * a / tau)
    return m * big_r + np.sqrt(t * c * m * big_r), k * r + nu


def append_map_kron(system, word, i) -> np.ndarray:
    """Reduced map X(word) (x) E_i -> X(sorted(word + (i,))), peeling with
    last_q^H (x) I and rejoining with append (x) I as np.kron products."""
    word = tuple(word)
    if not word or word[-1] <= i:
        return system.word_data(word + (i,)).last_q
    prefix, j = word[:-1], word[-1]
    m_i = system.generators[i - 1].dim
    m_j = system.generators[j - 1].dim
    p_prefix = system.word_data(prefix).corr.dim if prefix else 1
    peel = np.kron(system.word_data(word).last_q.conj().T, np.eye(m_i))
    cols = peel.shape[1]
    flipped = system.flip_for(j, i) @ peel.reshape(p_prefix, m_j * m_i, cols)
    inner = np.kron(append_map_kron(system, prefix, i), np.eye(m_j))
    rejoin = append_map_kron(system, tuple(sorted(prefix + (i,))), j)
    return rejoin @ inner @ flipped.reshape(p_prefix * m_i * m_j, cols)


def mult_iso_kron(system, s, t) -> np.ndarray:
    """mu of U_{s,t}, splitting with I (x) last_q^H and composing with
    mu_prev (x) I as np.kron products."""
    s, t = tuple(s), tuple(t)
    if not any(s):
        ct = system.fiber(t)
        return np.transpose(ct.left_action, (1, 0, 2)).reshape(ct.dim, system.algebra.dim * ct.dim)
    if not any(t):
        cs = system.fiber(s)
        return np.transpose(cs.right_action, (1, 2, 0)).reshape(cs.dim, cs.dim * system.algebra.dim)
    i = max(j + 1 for j, c in enumerate(t) if c)
    t_prev = tuple(c - (j == i - 1) for j, c in enumerate(t))
    split = np.kron(np.eye(system.fiber_dim(s)), system.word_data(_word(t)).last_q.conj().T)
    append = append_map_kron(system, _word(_add(s, t_prev)), i)
    if not any(t_prev):
        return append @ split
    m_i = system.generators[i - 1].dim
    return append @ np.kron(mult_iso_kron(system, s, t_prev), np.eye(m_i)) @ split


def lowering_raw_kron(rep, t, s) -> np.ndarray:
    """(I_{p_rest} (x) t_raw(s)) (split (x) I_d) as np.kron products, for
    0 < s < t, with the split mu^H (mu mu^H)^{-1} of the package's mu."""
    rest = _sub(t, s)
    mu = rep.system.mult_iso(rest, s)
    split = np.linalg.solve(mu @ mu.conj().T, mu).conj().T
    p_rest = rep.system.fiber_dim(rest)
    return np.kron(np.eye(p_rest), rep.t_raw(s)) @ np.kron(split, np.eye(rep.dim))


def t_raw_kron(rep, s) -> np.ndarray:
    """`CCRepresentation.t_raw` composed with np.kron products against
    identities, t_raw(prev) (I_{p_prev} (x) gen_t_raw(i)) (last_q^H (x) I_d)
    for the last letter i of the normal word of s and prev = s - e_i."""
    s = tuple(s)
    d = rep.dim
    if not any(s):
        return np.eye(d)
    i = max(x for x, v in enumerate(s, start=1) if v)
    split = np.kron(rep.system.point_data(s).last_q.conj().T, np.eye(d))
    prev = tuple(v - (x == i) for x, v in enumerate(s, start=1))
    if not any(prev):
        return rep.gen_t_raw(i) @ split
    p_prev = rep.system.fiber_dim(prev)
    return t_raw_kron(rep, prev) @ np.kron(np.eye(p_prev), rep.gen_t_raw(i)) @ split


def targets_kron(bundle, s) -> np.ndarray:
    """`DilationBundle.targets`, with the raw generating vectors at s + t
    formed afresh for every t and U_{s,t} applied as mu (x) I_d."""
    s = tuple(s)
    rep = bundle.rep
    sys_ = rep.system
    w = bundle.window
    p_s = sys_.fiber_dim(s)
    slice_of = dict(zip(w.points, w.slices))
    blocks = []
    for t in w.points:
        st = _add(s, t)
        if not _leq(st, w.bound):
            continue
        raw = bundle.factor[:, slice_of[st]] @ rep.loc(st).factor
        if not any(st):
            blocks.append(raw @ rep.sigma.mats)
            continue
        if any(t):
            raw = raw @ np.kron(sys_.mult_iso(s, t), np.eye(rep.dim))
        loc_t = rep.loc(t)
        raw = raw.reshape(bundle.rank, p_s, loc_t.source_dim).transpose(1, 0, 2)
        blocks.append(raw @ loc_t.lift)
    return np.concatenate(blocks, axis=2)


# -- per-key bodies of the grouped computations -------------------------------


def interior_tensor_pair(e, f, tol: float = 1e-10):
    """E (x)_A F for one pair, quotiented by null vectors: (correspondence,
    surjection), each step on the pair's own arrays, with the cutoff of
    `interior_tensor` (eigenvalues <= tol of the null trace are null)."""
    from dilationlab.correspondence import Correspondence

    me, mf, adim = e.dim, f.dim, e.algebra.dim
    f_trace = f.gram @ np.trace(e.algebra.basis_mats, axis1=1, axis2=2)
    trace = e.gram.reshape(me * me, adim) @ (f_trace @ f.left_action).reshape(adim, mf * mf)
    trace = trace.reshape(me, me, mf, mf).transpose(0, 2, 1, 3).reshape(me * mf, me * mf)
    if trace.shape[0] == 0:
        w = np.zeros((0, 0), dtype=complex)
    else:
        vals, vecs = np.linalg.eigh(0.5 * (trace + trace.conj().T))
        w = vecs[:, vals > tol]
    n = w.shape[1]
    surjection = np.ascontiguousarray(w.conj().T)
    w3 = w.reshape(me, mf, n)
    left_f = f.left_action[:, None] @ w3
    left_f = left_f.transpose(1, 0, 2, 3).reshape(me * adim, mf * n)
    inner = (e.gram.reshape(me, me * adim) @ left_f).reshape(me, mf, n)
    gram_w = np.moveaxis(f.gram, 2, 0)[:, None] @ inner
    gram = np.moveaxis(surjection @ gram_w.reshape(adim, me * mf, n), 0, 2)
    right = surjection @ (f.right_action[:, None] @ w3).reshape(adim, me * mf, n)
    left = surjection @ (e.left_action @ w.reshape(me, mf * n)).reshape(adim, me * mf, n)
    return Correspondence(e.algebra, gram, right, left), surjection


def localize_point(corr, sigma_mats: np.ndarray, tol: float):
    """E (x)_sigma H for one correspondence: its own einsum and eigh, with
    the cutoff of `localize` (eigenvalues <= tol are null)."""
    from dilationlab.correspondence import LocalizedSpace

    d = sigma_mats.shape[1]
    gram = np.einsum("ijp,pkl->ikjl", corr.gram, sigma_mats).reshape(corr.dim * d, corr.dim * d)
    if gram.shape[0] == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return LocalizedSpace(0, 0, empty, empty)
    vals, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    keep = vals > tol
    vals_k, vecs_k = vals[keep], vecs[:, keep]
    factor = np.sqrt(vals_k)[:, None] * vecs_k.conj().T
    lift = vecs_k / np.sqrt(vals_k)[None, :] if vals_k.size else vecs_k
    return LocalizedSpace(corr.dim * d, factor.shape[0], factor, lift)


def loc_point(rep, s):
    """`localize_point` of the fiber at s, H itself at 0."""
    from dilationlab.correspondence import trivial_localized

    if not any(s):
        return trivial_localized(rep.dim)
    return localize_point(rep.system.fiber(tuple(s)), rep.sigma.mats, rep.tol)


def descend_map_loop(m: np.ndarray, source, target, tol: float) -> np.ndarray:
    """One descent B with B F_source = F_target M, decided by the Frobenius
    bound of its defect and, when that fails, by its operator norm."""
    from dilationlab.errors import NotWellDefinedError

    fm = target.factor @ m
    b = fm @ source.lift
    defect = b @ source.factor - fm
    if not np.linalg.norm(defect) <= tol:
        residual = _opnorm(defect) if defect.size else 0.0
        if residual > tol:
            raise NotWellDefinedError(
                f"descend_map: descent residual {residual:.3e} exceeds tolerance {tol:.1e}",
                residual=residual,
            )
    return b


def lowering_raw(rep, t, s) -> np.ndarray:
    """Raw map X(t) (x) H -> X(t-s) (x) H implementing I (x) T~_s, split
    through the solve mu^H (mu mu^H)^{-1} of the package's mu, for s <= t."""
    from dilationlab.errors import NotWellDefinedError

    t, s = tuple(t), tuple(s)
    if not _leq(s, t):
        raise InvalidArgumentError(f"lowering needs s <= t, got s={s}, t={t}")
    if not any(s):
        return np.eye(rep.system.fiber_dim(t) * rep.dim if any(t) else rep.dim, dtype=complex)
    d = rep.dim
    rest = _sub(t, s)
    if not any(rest):
        return rep.t_raw(s)
    p_rest = rep.system.fiber_dim(rest)
    p_s = rep.system.fiber_dim(s)
    mu = rep.system.mult_iso(rest, s)
    try:
        split_h = np.linalg.solve(mu @ mu.conj().T, mu)
    except np.linalg.LinAlgError:
        raise NotWellDefinedError(
            f"multiplication isomorphism {(rest, s)} is not onto its fiber"
        ) from None
    split = split_h.conj().reshape(mu.shape[0], p_rest, p_s).transpose(1, 0, 2)
    out = np.ascontiguousarray(split)[:, None] @ rep.t_raw(s).reshape(d, p_s, d)
    return out.reshape(p_rest * d, mu.shape[0] * d)


def lowering_block_loop(rep, t, s) -> np.ndarray:
    """Theta(t, s) by `lowering_raw` and `descend_map_loop` on the per-point
    localizations of `loc_point`; the identity for s = 0."""
    t, s = tuple(t), tuple(s)
    if not any(s):
        return np.eye(loc_point(rep, t).rank, dtype=complex)
    return descend_map_loop(lowering_raw(rep, t, s), loc_point(rep, t), loc_point(rep, _sub(t, s)), rep.tol)


def brehmer_sum_point(rep, v, s) -> float:
    """Minimum eigenvalue of the alternating sum over subsets u of v of
    Theta(s[v], s[u])^H Theta(s[v], s[u]), one point and one eigvalsh."""
    v = tuple(v)
    sv = tuple(x if i + 1 in v else 0 for i, x in enumerate(s))
    rank = rep.loc(sv).rank
    total = np.zeros((rank, rank), dtype=complex)
    for size in range(len(v) + 1):
        for u in itertools.combinations(sorted(v), size):
            su = tuple(x if i + 1 in u else 0 for i, x in enumerate(s))
            theta = rep.lowering_block(sv, su)
            total += ((-1) ** len(u)) * (theta.conj().T @ theta)
    if rank == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (total + total.conj().T)).min())


def array_to_json_loop(a: np.ndarray):
    """[re, im] of each entry as Python floats, nested as `a` is, one
    `complex()` per entry."""
    if a.ndim == 0:
        z = complex(a)
        return [z.real, z.imag]
    return [array_to_json_loop(sub) for sub in a]


def json_to_complex_array(obj, shape: tuple[int, ...], where: str) -> np.ndarray:
    """`instances.json_to_array` cast to complex128: set in its place, every
    array of an instance is read, and so computed, as complex."""
    return json_to_array(obj, shape, where).astype(complex)
