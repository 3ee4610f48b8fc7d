"""Independent oracles the test suite compares the engine against.

Everything here is implemented from first principles (classical formulas,
brute-force sums, explicit matrix units) and deliberately shares no code
with the package internals beyond numpy. The one exception is
`doubly_commuting_V_inline`, which builds on the correspondence primitives
(localization, interior tensor, descent) but not on CCRepresentation.
"""

from __future__ import annotations

import itertools

import numpy as np


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


def full_window_gram(space, bound: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """The T^ window Gram over one copy of the truncated space per window
    point, block (t, s) = T^_{(s-t)_-}^H T^_{(s-t)_+}, and its minimum
    eigenvalue.

    `space` only has to provide `dim` and the lowering operators as
    `space.hat(point).matrix`; everything else is computed here. The Gram
    has dimension |W| dim H_L, so this is for small windows only.
    """
    pts = window_points(bound)
    n = space.dim
    gram = np.zeros((len(pts) * n, len(pts) * n), dtype=complex)
    for a, t in enumerate(pts):
        for b, s in enumerate(pts):
            diff = tuple(x - y for x, y in zip(s, t, strict=True))
            neg = space.hat(tuple(max(0, -x) for x in diff)).matrix
            pos = space.hat(tuple(max(0, x) for x in diff)).matrix
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

    `bundle` provides the recovered V_0 (as `isometric_rep.sigma.mats`), the
    raw maps `v_raw(s)`, `rank`, the window bound and `generating_matrix`.
    The identity is restricted to x (x) (generating vectors at points at
    least max(guard, 1) inside the window).
    """
    from dilationlab.correspondence import descend_map, interior_tensor, localize, trivial_localized

    sys_ = bundle.rep.system
    a = tuple(int(i == j - 1) for i in range(sys_.k))
    b = tuple(int(i == k - 1) for i in range(sys_.k))
    p = bundle.rank
    rho = bundle.isometric_rep.sigma.mats

    corr_a = sys_.fiber(a).correspondence
    corr_b = sys_.fiber(b).correspondence
    loc_a = localize(corr_a, rho, 1e-8)
    loc_b = localize(corr_b, rho, 1e-8)
    vt_a = descend_map(bundle.v_raw(a), loc_a, trivial_localized(p), 1e-6)
    vt_b = descend_map(bundle.v_raw(b), loc_b, trivial_localized(p), 1e-6)
    rhs = vt_b.conj().T @ vt_a

    pair_ab, q_ab = interior_tensor(corr_a, corr_b, bundle.rep.tol)
    pair_ba, q_ba = interior_tensor(corr_b, corr_a, bundle.rep.tol)
    loc_ab = localize(pair_ab, rho, 1e-8)
    loc_ba = localize(pair_ba, rho, 1e-8)
    ext_ab = descend_map(
        np.kron(np.eye(sys_.fiber_dim(a)), bundle.v_raw(b)) @ np.kron(q_ab.conj().T, np.eye(p)),
        loc_ab,
        loc_a,
        1e-6,
    )
    ext_ba = descend_map(
        np.kron(np.eye(sys_.fiber_dim(b)), bundle.v_raw(a)) @ np.kron(q_ba.conj().T, np.eye(p)),
        loc_ba,
        loc_b,
        1e-6,
    )
    t_mod = np.linalg.pinv(sys_.mult_iso(b, a).matrix) @ sys_.mult_iso(a, b).matrix
    t_loc = descend_map(np.kron(t_mod, np.eye(p)), loc_ab, loc_ba, 1e-6)
    lhs = ext_ba @ t_loc @ ext_ab.conj().T

    gbound = tuple(max(0, m - max(guard, 1)) for m in bundle.window.bound)
    u, svals, _ = np.linalg.svd(bundle.generating_matrix(gbound), full_matrices=False)
    p_guard = u[:, svals > 1e-8 * max(svals.max(initial=0.0), 1.0)]
    proj = np.kron(np.eye(sys_.fiber_dim(a)), p_guard @ p_guard.conj().T)
    proj_loc = loc_a.factor @ proj @ loc_a.lift
    return float(np.linalg.norm((lhs - rhs) @ proj_loc, 2))
