"""Regular isometric dilations via Kolmogorov factorization of the
generating-vector kernel.

The minimal dilation space is spanned by the generating vectors
delta_s . x (x) h, s in a lattice window W. Their
kernel has block (t, s) = Theta(t, t-m)^H Theta(s, s-m) with m = t ^ s and
Theta the lowering blocks of the representation, so it is built without
forming any T^ matrix and has dimension sum over s in W of rank loc(s). It
is positive semidefinite exactly when a regular isometric dilation exists
for the windowed data: its minimum eigenvalue is the window's psd_margin,
and the rank of its factor R, reported as window.rank, is dim K_min. The
generating vectors are the column slices of R (in raw fiber (x) H
coordinates); the product-system isometries V_0(a), V_s(x) are recovered
from their defining action on them, and every dilation property is
verified on those vectors. Identities involving adjoints are window
compressions, so they are checked on vectors generated at lattice points
at least a guard margin g inside the window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .correspondence import descend_map, interior_tensor, localize, trivial_localized
from .cstar import AlgebraElement, adjoint_table, multiplication_table
from .errors import InvalidArgumentError, NotPositiveDefiniteError
from .hatspace import TruncatedFock
from .linalg import lstsq_map, opnorm, pivoted_cholesky, psd_factor, require_descent

LSQ_TOL = 1e-8  # consistency tolerance for least-squares operator recovery


@dataclass(frozen=True)
class KernelWindow:
    """Generating-vector kernel over the window box, with its eigenpairs.

    Rows and columns run over the localized coordinates of loc(s) for each
    window point s in turn; `slices[i]` holds those of `points[i]`.
    """

    space: TruncatedFock
    bound: lattice.Point
    points: tuple[lattice.Point, ...]
    slices: tuple[slice, ...]
    gram: np.ndarray = field(compare=False)
    eigvals: np.ndarray = field(compare=False)
    eigvecs: np.ndarray = field(compare=False)

    @property
    def psd_margin(self) -> float:
        """Minimum eigenvalue; negative when no regular dilation exists."""
        return float(self.eigvals.min())


def window_gram(space: TruncatedFock, bound: lattice.Point) -> KernelWindow:
    """Kernel of the generating vectors at the points 0 <= s <= bound."""
    bound = tuple(int(b) for b in bound)
    rep = space.rep
    if len(bound) != rep.system.k or any(b < 0 for b in bound):
        raise InvalidArgumentError(f"bad window bound {bound}")
    points = tuple(lattice.box(bound))
    slices = []
    dim = 0
    for s in points:
        rank = rep.loc(s).rank
        slices.append(slice(dim, dim + rank))
        dim += rank

    @functools.cache
    def theta(t: lattice.Point, m: lattice.Point) -> np.ndarray:
        """Theta(t, t - m): loc(t) -> loc(m)."""
        return rep.lowering_block(t, lattice.sub(t, m))

    gram = np.zeros((dim, dim), dtype=complex)
    for a, t in enumerate(points):
        for b in range(a, len(points)):
            s = points[b]
            m = lattice.meet(t, s)
            block = theta(t, m).conj().T @ theta(s, m)
            gram[slices[a], slices[b]] = block
            gram[slices[b], slices[a]] = block.conj().T
    eigvals, eigvecs = np.linalg.eigh(gram)
    return KernelWindow(space, bound, points, tuple(slices), gram, eigvals, eigvecs)


class DilationBundle:
    """Kolmogorov factor of a window kernel plus the recovered isometries."""

    def __init__(self, window: KernelWindow, factor: np.ndarray, method: str, tol: float):
        self.window = window
        self.rep = window.space.rep
        self.factor = factor
        self.rank = factor.shape[0]
        self.method = method
        self.tol = tol
        # generating vectors in raw fiber (x) H coordinates, point after point
        blocks = []
        self._cols: dict[lattice.Point, slice] = {}
        start = 0
        for s, sl in zip(window.points, window.slices):
            blocks.append(factor[:, sl] @ self.rep.loc(s).factor)
            self._cols[s] = slice(start, start + blocks[-1].shape[1])
            start += blocks[-1].shape[1]
        self.generators = np.concatenate(blocks, axis=1)
        self._v0: dict[int, np.ndarray] = {}

    # -- generating vectors ---------------------------------------------------

    def gen_block(self, s: lattice.Point) -> np.ndarray:
        """Images of the generating vectors delta_s . x (x) h in C^p.

        Columns are indexed by raw fiber (x) H coordinates (by H basis for
        s = 0), i.e. the map h -> V_s(x) h on basis pairs.
        """
        cols = self._cols.get(tuple(s))
        if cols is None:
            raise InvalidArgumentError(f"point {tuple(s)} outside the window")
        return self.generators[:, cols]

    def generating_matrix(self, bound: lattice.Point | None = None) -> np.ndarray:
        """All generating vectors for window points <= bound, stacked."""
        if bound is None:
            return self.generators
        cols = [self.gen_block(s) for s in self.window.points if lattice.leq(s, tuple(bound))]
        return np.concatenate(cols, axis=1)

    def k_min_rank(self, bound: lattice.Point | None = None) -> int:
        g = self.generating_matrix(bound)
        return int(np.linalg.matrix_rank(g, tol=1e-8 * max(1.0, opnorm(g))))

    # -- recovered operators ----------------------------------------------------

    def build_V0(self, a) -> np.ndarray:
        """V_0(a) on C^p, defined by V_0(a) V_s(x) h = V_s(phi_s(a) x) h."""
        coords = a.coords if isinstance(a, AlgebraElement) else np.asarray(a, dtype=complex)
        mats = [self._v0_basis(p) for p in range(self.rep.system.algebra.dim)]
        return np.tensordot(coords, np.stack(mats), axes=(0, 0))

    def _v0_basis(self, p: int) -> np.ndarray:
        cached = self._v0.get(p)
        if cached is not None:
            return cached
        d = self.rep.dim
        tgts = []
        for s in self.window.points:
            if lattice.is_zero(s):
                act = self.rep.sigma.mats[p]
            else:
                left = self.rep.system.fiber(s).correspondence.left_action[p]
                act = np.kron(left, np.eye(d))
            tgts.append(self.gen_block(s) @ act)
        v0, res = lstsq_map(np.concatenate(tgts, axis=1), self.generators)
        require_descent(res, LSQ_TOL, "build_V0")
        self._v0[p] = v0
        return v0

    def build_Vs(self, s: lattice.Point, x: np.ndarray) -> np.ndarray:
        """V_s(x) on C^p, defined on generating vectors at points t <= M - s."""
        s = tuple(s)
        if lattice.is_zero(s):
            raise InvalidArgumentError("use build_V0 for the zero fiber")
        if not lattice.leq(s, self.window.bound):
            raise InvalidArgumentError(f"point {s} outside the window")
        x = np.asarray(x, dtype=complex).reshape(-1, 1)
        sys_ = self.rep.system
        if x.shape[0] != sys_.fiber_dim(s):
            raise InvalidArgumentError(
                f"fiber element has {x.shape[0]} coordinates, expected {sys_.fiber_dim(s)}"
            )
        d = self.rep.dim
        doms, tgts = [], []
        for t in self.window.points:
            st = lattice.add(s, t)
            if not lattice.leq(st, self.window.bound):
                continue
            doms.append(self.gen_block(t))
            if lattice.is_zero(t):
                raw = np.kron(x, np.eye(d))
            else:
                mu = sys_.mult_iso(s, t).mu
                raw = np.kron(mu @ np.kron(x, np.eye(sys_.fiber_dim(t))), np.eye(d))
            tgts.append(self.gen_block(st) @ raw)
        vs, res = lstsq_map(np.concatenate(tgts, axis=1), np.concatenate(doms, axis=1))
        require_descent(res, LSQ_TOL, f"build_Vs at {s}")
        return vs


def kolmogorov(window: KernelWindow, tol: float = 1e-10, method: str = "eig") -> DilationBundle:
    """Factor the window kernel as R^H R; fails when it is not PSD."""
    if window.psd_margin < -tol:
        raise NotPositiveDefiniteError(
            f"window Gram has negative eigenvalue {window.psd_margin:.3e}: "
            "no regular isometric dilation exists for this window",
            margin=window.psd_margin,
        )
    if method == "eig":
        cutoff = tol * max(float(window.eigvals.max()), 0.0)
        factor, _vals, _vecs = psd_factor(
            window.gram, cutoff, "kolmogorov", eig=(window.eigvals, window.eigvecs)
        )
    elif method == "chol":
        factor = pivoted_cholesky(window.gram, rel_tol=tol)
    else:
        raise InvalidArgumentError(f"unknown factorization method {method!r}")
    return DilationBundle(window, factor, method, tol)


# -- verification -------------------------------------------------------------


def _orth_cols(m: np.ndarray, rtol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of the column space."""
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, svals, _ = np.linalg.svd(m, full_matrices=False)
    keep = svals > rtol * max(svals.max(initial=0.0), 1.0)
    return u[:, keep]


def _guarded(bound: lattice.Point, guard: int) -> lattice.Point:
    return tuple(max(0, b - guard) for b in bound)


def verify_regular_dilation(bundle: DilationBundle, guard: int = 1) -> dict[str, float]:
    """Residuals of the four dilation properties plus the isometry,
    semigroup, and *-homomorphism identities, keyed by fixed check names."""
    rep = bundle.rep
    sys_ = rep.system
    alg = sys_.algebra
    bound = bundle.window.bound
    gbound = _guarded(bound, guard)
    gen0 = bundle.gen_block(lattice.zero(sys_.k))
    p_h = gen0 @ gen0.conj().T
    q_min = _orth_cols(bundle.generating_matrix())

    v0 = [bundle._v0_basis(p) for p in range(alg.dim)]

    # item 1: V_0(a) reduces H and restricts to sigma(a)
    item1 = 0.0
    for p in range(alg.dim):
        item1 = max(item1, opnorm(v0[p] @ p_h - p_h @ v0[p]))
        item1 = max(item1, opnorm(gen0.conj().T @ v0[p] @ gen0 - rep.sigma.mats[p]))

    # V_0 is a *-homomorphism on K_min
    mul_table = multiplication_table(alg)
    adj = adjoint_table(alg)
    star_hom = 0.0
    for p in range(alg.dim):
        for q in range(alg.dim):
            combo = np.tensordot(mul_table[p, q], np.stack(v0), axes=(0, 0))
            star_hom = max(star_hom, opnorm(combo - v0[p] @ v0[q]))
        combo = np.tensordot(adj[p], np.stack(v0), axes=(0, 0))
        star_hom = max(
            star_hom, opnorm(q_min.conj().T @ (combo - v0[p].conj().T) @ q_min)
        )

    # item 2: regularity <V_{s-}(x-) h, V_{s+}(x+) g> = <T~_{s-}(x-) h, T~_{s+}(x+) g>
    item2 = 0.0
    for s_neg in bundle.window.points:
        for s_pos in bundle.window.points:
            if set(lattice.support(s_neg)) & set(lattice.support(s_pos)):
                continue
            lhs = bundle.gen_block(s_neg).conj().T @ bundle.gen_block(s_pos)
            rhs = rep.t_raw(s_neg).conj().T @ rep.t_raw(s_pos)
            item2 = max(item2, opnorm(lhs - rhs))

    # item 3: minimality - V_s(x) delta_0 h recovers every generating vector
    item3 = 0.0
    d = rep.dim
    vs_cache: dict[tuple[lattice.Point, int], np.ndarray] = {}

    def v_of(s: lattice.Point, a: int) -> np.ndarray:
        key = (tuple(s), a)
        if key not in vs_cache:
            e = np.zeros(sys_.fiber_dim(s))
            e[a] = 1.0
            vs_cache[key] = bundle.build_Vs(s, e)
        return vs_cache[key]

    for s in bundle.window.points:
        if lattice.is_zero(s):
            continue
        g_s = bundle.gen_block(s)
        for a in range(sys_.fiber_dim(s)):
            item3 = max(item3, opnorm(v_of(s, a) @ gen0 - g_s[:, a * d : (a + 1) * d]))
    span_direct = np.concatenate(
        [gen0]
        + [
            v_of(s, a) @ gen0
            for s in bundle.window.points
            if not lattice.is_zero(s)
            for a in range(sys_.fiber_dim(s))
        ],
        axis=1,
    )
    if bundle.k_min_rank() != int(
        np.linalg.matrix_rank(span_direct, tol=1e-8 * max(1.0, opnorm(span_direct)))
    ):
        item3 = np.inf

    # item 4: P_H V_s(x) vanishes on K_min (-) H (guarded generating span)
    item4 = 0.0
    for s in bundle.window.points:
        if lattice.is_zero(s):
            continue
        dom = np.concatenate(
            [
                bundle.gen_block(t)
                for t in bundle.window.points
                if lattice.leq(lattice.add(s, t), bound)
            ],
            axis=1,
        )
        q_dom = _orth_cols(dom)
        q_perp = _orth_cols(q_dom - p_h @ q_dom)
        for a in range(sys_.fiber_dim(s)):
            item4 = max(item4, opnorm(gen0.conj().T @ v_of(s, a) @ q_perp))

    # isometry: V_s(x)^H V_s(y) = V_0(<x, y>), weakly on guarded vectors
    iso_res = 0.0
    for s in bundle.window.points:
        if lattice.is_zero(s) or not lattice.leq(s, gbound):
            continue
        corr = sys_.fiber(s).correspondence
        dom = np.concatenate(
            [
                bundle.gen_block(t)
                for t in bundle.window.points
                if lattice.leq(lattice.add(s, t), bound)
            ],
            axis=1,
        )
        for a in range(sys_.fiber_dim(s)):
            va = v_of(s, a) @ dom
            for b in range(sys_.fiber_dim(s)):
                vb = v_of(s, b) @ dom
                v0g = bundle.build_V0(corr.gram[a, b])
                iso_res = max(iso_res, float(np.abs(va.conj().T @ vb - dom.conj().T @ v0g @ dom).max()))

    # semigroup: V_{s+t}(U_{s,t}(x (x) y)) = V_s(x) V_t(y) on guarded vectors
    semi_res = 0.0
    for s in bundle.window.points:
        if lattice.is_zero(s):
            continue
        for t in bundle.window.points:
            if lattice.is_zero(t) or not lattice.leq(lattice.add(s, t), gbound):
                continue
            st = lattice.add(s, t)
            mu = sys_.mult_iso(s, t).mu
            dom = np.concatenate(
                [
                    bundle.gen_block(r)
                    for r in bundle.window.points
                    if lattice.leq(lattice.add(st, r), bound)
                ],
                axis=1,
            )
            for a in range(sys_.fiber_dim(s)):
                for b in range(sys_.fiber_dim(t)):
                    xy = np.zeros(sys_.fiber_dim(s) * sys_.fiber_dim(t))
                    xy[a * sys_.fiber_dim(t) + b] = 1.0
                    lhs = bundle.build_Vs(st, mu @ xy)
                    rhs = v_of(s, a) @ v_of(t, b)
                    semi_res = max(semi_res, opnorm((lhs - rhs) @ dom))

    return {
        "regular_item1": item1,
        "regular_item2": item2,
        "regular_item3": float(item3),
        "regular_item4": item4,
        "V_isometry": iso_res,
        "V_semigroup": semi_res,
        "V0_star_hom": star_hom,
    }


def verify_hat_doubly_commuting(
    space: TruncatedFock, j: int, k: int, s_j: int = 1, s_k: int = 1
) -> float:
    """|| T^_{s_j e_j}^H T^_{s_k e_k} - T^_{s_k e_k} T^_{s_j e_j}^H || on H_L."""
    if j == k:
        raise InvalidArgumentError("directions must be distinct")
    nlat = space.rep.system.k
    a = space.hat(lattice.unit(nlat, j, s_j)).matrix
    b = space.hat(lattice.unit(nlat, k, s_k)).matrix
    return opnorm(a.conj().T @ b - b @ a.conj().T)


def verify_doubly_commuting_V(bundle: DilationBundle, j: int, k: int, guard: int = 1) -> float:
    """Residual of V~_k^H V~_j = (I (x) V~_j)(t (x) I)(I (x) V~_k^H) for the
    recovered isometric representation, on guarded generating vectors."""
    if j == k:
        raise InvalidArgumentError("directions must be distinct")
    rep = bundle.rep
    sys_ = rep.system
    nlat = sys_.k
    a = lattice.unit(nlat, j)
    b = lattice.unit(nlat, k)
    p = bundle.rank

    # rho = V_0 as a representation on the dilation space C^p; V~ maps are
    # assembled from the recovered V_s(x) exactly as T~ from T
    rho = np.stack([bundle._v0_basis(q) for q in range(sys_.algebra.dim)])

    def loc_of(corr):
        return localize(corr, rho, 1e-8)

    def v_raw(s: lattice.Point) -> np.ndarray:
        cols = []
        for alpha in range(sys_.fiber_dim(s)):
            e = np.zeros(sys_.fiber_dim(s))
            e[alpha] = 1.0
            cols.append(bundle.build_Vs(s, e))
        return np.concatenate(cols, axis=1)

    corr_a = sys_.fiber(a).correspondence
    corr_b = sys_.fiber(b).correspondence
    loc_a = loc_of(corr_a)
    loc_b = loc_of(corr_b)
    vt_a = descend_map(v_raw(a), loc_a, trivial_localized(p), 1e-6)
    vt_b = descend_map(v_raw(b), loc_b, trivial_localized(p), 1e-6)
    rhs = vt_b.conj().T @ vt_a

    pair_ab, q_ab = interior_tensor(corr_a, corr_b, rep.tol)
    pair_ba, q_ba = interior_tensor(corr_b, corr_a, rep.tol)
    loc_ab = loc_of(pair_ab)
    loc_ba = loc_of(pair_ba)
    ext_ab = descend_map(
        np.kron(np.eye(sys_.fiber_dim(a)), v_raw(b)) @ np.kron(q_ab.conj().T, np.eye(p)),
        loc_ab,
        loc_a,
        1e-6,
    )
    ext_ba = descend_map(
        np.kron(np.eye(sys_.fiber_dim(b)), v_raw(a)) @ np.kron(q_ba.conj().T, np.eye(p)),
        loc_ba,
        loc_b,
        1e-6,
    )
    iso_ab = sys_.mult_iso(a, b)
    iso_ba = sys_.mult_iso(b, a)
    t_mod = np.linalg.pinv(iso_ba.matrix) @ iso_ab.matrix
    t_loc = descend_map(np.kron(t_mod, np.eye(p)), loc_ab, loc_ba, 1e-6)
    lhs = ext_ba @ t_loc @ ext_ab.conj().T

    # adjoints are window compressions: restrict to x (x) (guarded vectors)
    gbound = _guarded(bundle.window.bound, max(guard, 1))
    guard_cols = bundle.generating_matrix(gbound)
    p_guard = _orth_cols(guard_cols)
    proj = np.kron(np.eye(sys_.fiber_dim(a)), p_guard @ p_guard.conj().T)
    proj_loc = loc_a.factor @ proj @ loc_a.lift
    return opnorm((lhs - rhs) @ proj_loc)


def compare_minimal_dilations(bundle_a: DilationBundle, bundle_b: DilationBundle) -> float:
    """Max inner-product discrepancy between the generating vectors of two
    factorizations, plus the residual of the matched unitary intertwiner."""
    bound = tuple(
        min(x, y) for x, y in zip(bundle_a.window.bound, bundle_b.window.bound, strict=True)
    )
    g_a = bundle_a.generating_matrix(bound)
    g_b = bundle_b.generating_matrix(bound)
    gram_diff = float(np.abs(g_a.conj().T @ g_a - g_b.conj().T @ g_b).max())
    rank_a = int(np.linalg.matrix_rank(g_a, tol=1e-8 * max(1.0, opnorm(g_a))))
    rank_b = int(np.linalg.matrix_rank(g_b, tol=1e-8 * max(1.0, opnorm(g_b))))
    if rank_a != rank_b:
        return float("inf")
    omega = g_b @ np.linalg.pinv(g_a)
    intertwine = opnorm(omega @ g_a - g_b)
    return max(gram_diff, intertwine)
