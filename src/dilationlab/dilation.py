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
generating vectors at s are the columns of R at s, in the localized
coordinates of loc(s), and are stored in no other form: they are taken to
raw fiber (x) H coordinates, by the localization factor F_s, only where a
fiber action is applied to them. V_0 and the generator isometries V_{e_i}
are recovered by one least-squares path from their defining action on the
localized generating vectors; every other V_s is their composition in
normal order. The recovered maps form an isometric CCRepresentation on C^p,
so its module and doubly-commuting identities are checked by the same code
as those of (sigma, T). The semigroup law, minimality (its part on the
generating vectors at 0), item 4 and the isometry are checked at V_0 and
the V_{e_i} only; at a composite V_s they are bounded by those residuals,
as verify_regular_dilation states. Regularity compares the factor's inner
products with the kernel blocks of points of disjoint support,
Theta(t, t)^H Theta(s, s). Identities involving adjoints are window
compressions, so they are checked on vectors generated at lattice points
at least a guard margin g inside the window.

The doubly-commuting identity of T^ is checked on the lowering blocks, as
the hatspace checks are: its defect maps each block of H_L into at most one
block, injectively, so its norm is the largest block norm. The dilation
checks are maxima of operator norms over many small blocks, and each is
taken with one stacked max_opnorm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import lattice
from .errors import InvalidArgumentError, NotPositiveDefiniteError
from .hatspace import TruncatedFock
from .linalg import lstsq_map, max_opnorm, opnorm, pivoted_cholesky, psd_factor
from .representation import (
    AlgebraRepresentation,
    CCRepresentation,
    doubly_commuting_defect,
    validate_module,
)

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
    # Theta(t, t - m): loc(t) -> loc(m) and Theta(s, s - m) for m = t ^ s,
    # per pair of points a <= b, built in one call
    pairs = [(a, b) for a in range(len(points)) for b in range(a, len(points))]
    keys = []
    for a, b in pairs:
        t, s = points[a], points[b]
        m = lattice.meet(t, s)
        keys += [(t, lattice.sub(t, m)), (s, lattice.sub(s, m))]
    thetas = rep.build(points=points, keys=keys)
    slices = []
    dim = 0
    for s in points:
        rank = rep.loc(s).rank
        slices.append(slice(dim, dim + rank))
        dim += rank

    gram = np.zeros((dim, dim), dtype=np.result_type(*{theta.dtype for theta in thetas}))
    for n, (a, b) in enumerate(pairs):
        theta_t, theta_s = thetas[2 * n], thetas[2 * n + 1]
        block = theta_t.conj().T @ theta_s
        gram[slices[a], slices[b]] = block
        gram[slices[b], slices[a]] = block.conj().T
    eigvals, eigvecs = np.linalg.eigh(gram)
    return KernelWindow(space, bound, points, tuple(slices), gram, eigvals, eigvecs)


class DilationBundle:
    """Kolmogorov factor of a window kernel plus the recovered isometries.

    The factor's columns at a window point s, `factor[:, slices[s]]`, are
    the generating vectors delta_s . x (x) h in the localized coordinates
    of loc(s); they are the only stored form of the generating vectors.
    """

    def __init__(self, window: KernelWindow, factor: np.ndarray, method: str, tol: float):
        self.window = window
        self.rep = window.space.rep
        self.factor = factor
        self.rank = factor.shape[0]
        self.method = method
        self.tol = tol
        self._guarded_basis: dict[int, np.ndarray] = {}
        self._slice_of = dict(zip(window.points, window.slices))
        self._k_min_rank: int | None = None

    # -- generating vectors ---------------------------------------------------

    def localized(self, bound: lattice.Point) -> np.ndarray:
        """Generating vectors at the window points t <= bound in localized
        coordinates: the factor's rank loc(t) columns at each point."""
        w = self.window
        cols = [self.factor[:, sl] for t, sl in zip(w.points, w.slices) if lattice.leq(t, bound)]
        return np.concatenate(cols, axis=1)

    def domain(self, s: lattice.Point) -> np.ndarray:
        """Localized generating vectors at the window points t with s + t in
        the window, on which V_s is defined."""
        return self.localized(lattice.sub(self.window.bound, s))

    def targets(self, s: lattice.Point) -> np.ndarray:
        """The images V_s(e_a) must give domain(s), as a (p_s, p, n) stack:
        V_s(x) delta_t . y (x) h = delta_{s+t} . U_{s,t}(x (x) y) (x) h, with
        U_{0,t} the left action of A, V_s(x) delta_0 . h = delta_s . x (x) h
        and V_0(a) h = sigma(a) h. The generating vectors at s + t are taken
        to raw fiber (x) H coordinates by F_{s+t} for the action, and its
        images at t back to loc(t) by the lift."""
        s = tuple(s)
        sys_ = self.rep.system
        p_s = sys_.fiber_dim(s)
        d = self.rep.dim
        blocks = []
        # the points t <= bound - s, in the order of the window's points
        for t in lattice.box(lattice.sub(self.window.bound, s)):
            st = lattice.add(s, t)
            raw = self.factor[:, self._slice_of[st]] @ self.rep.loc(st).factor
            if lattice.is_zero(st):
                blocks.append(raw @ self.rep.sigma.mats)
                continue
            # columns (a, y, h): e_a's images are the (y, h) columns of slice a
            p_st = sys_.fiber_dim(st)
            raw = raw.reshape(self.rank, p_st, d).transpose(1, 0, 2)
            if not lattice.is_zero(t):
                # raw (mu (x) I_d) for mu = U_{s,t}, as [a, rank, y, h]: the
                # p_st axis of raw contracted with mu's rows in one matmul
                raw = sys_.mult_iso(s, t).T @ raw.reshape(p_st, self.rank * d)
                raw = raw.reshape(p_s, sys_.fiber_dim(t), self.rank, d).transpose(0, 2, 1, 3)
            loc_t = self.rep.loc(t)
            blocks.append(raw.reshape(p_s, self.rank, loc_t.source_dim) @ loc_t.lift)
        return np.concatenate(blocks, axis=2)

    def k_min_rank(self) -> int:
        """dim K_min: the numerical rank of the localized generating vectors,
        computed once per bundle."""
        if self._k_min_rank is None:
            self._k_min_rank = _rank(self.factor)
        return self._k_min_rank

    def guarded_basis(self, guard: int) -> np.ndarray:
        """Orthonormal basis of the span of the generating vectors at the
        points at least `guard` inside the window."""
        cached = self._guarded_basis.get(guard)
        if cached is None:
            cached = _orth_cols(self.localized(_guarded(self.window.bound, guard)))
            self._guarded_basis[guard] = cached
        return cached

    # -- recovered operators ----------------------------------------------------

    @cached_property
    def steps(self) -> dict[lattice.Point, tuple[np.ndarray, np.ndarray]]:
        """(domain(s), targets(s)) at s = 0 and each e_i, built once."""
        k = self.rep.system.k
        points = [lattice.zero(k)] + [lattice.unit(k, i) for i in range(1, k + 1)]
        return {s: (self.domain(s), self.targets(s)) for s in points}

    @cached_property
    def isometric_rep(self) -> CCRepresentation:
        """The recovered (V_0, V) as a covariant representation on C^p.

        V_0 and each V_{e_i} are one least-squares solve of their defining
        action on their domain, `steps`: V_0 over the algebra basis and
        V_{e_i} over the reduced basis of X(e_i), taken to E_i's basis by
        its surjection. Every other V_s is their composition t_raw(s). The
        window bound must be >= 1 in every coordinate.
        """
        sys_ = self.rep.system
        v0, *gens = (
            lstsq_map(tgt, dom, LSQ_TOL, f"V_{s}") for s, (dom, tgt) in self.steps.items()
        )
        sigma = AlgebraRepresentation(sys_.algebra, self.rank, v0)
        # E_i's basis vector e_c goes to sum over a of last_q[a, c] V_{e_i}(e_a)
        t_maps = []
        for i, v in enumerate(gens, start=1):
            last_q = sys_.word_data((i,)).last_q
            t_map = last_q.T @ v.reshape(last_q.shape[0], self.rank * self.rank)
            t_maps.append(t_map.reshape(last_q.shape[1], self.rank, self.rank))
        return CCRepresentation(sys_, sigma, t_maps, tol=LSQ_TOL)


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
        return np.zeros((m.shape[0], 0), dtype=m.dtype)
    u, svals, _ = np.linalg.svd(m, full_matrices=False)
    keep = svals > rtol * max(svals.max(initial=0.0), 1.0)
    return u[:, keep]


def _rank(m: np.ndarray, rtol: float = 1e-8) -> int:
    """Numerical rank: singular values above rtol * max(1, largest one)."""
    if m.size == 0:
        return 0
    svals = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(svals > rtol * max(1.0, svals[0])))


def _guarded(bound: lattice.Point, guard: int) -> lattice.Point:
    return tuple(max(0, b - guard) for b in bound)


def verify_regular_dilation(bundle: DilationBundle, guard: int = 1) -> dict[str, float]:
    """Residuals of the four dilation properties plus the isometry,
    semigroup, and *-homomorphism identities, keyed by fixed check names.

    Only V_0 and the V_{e_i} are checked, on their `steps`, with
    validate_module of the recovered maps. For s = u + e_i, i the largest
    generator of s, V_s(U_{u,e_i}(x (x) y)) = V_u(x) V_{e_i}(y) and
    V_{e_i}(y) maps domain(s) into domain(u) up to its defect, so by
    induction on |s|, with constants the norms of the maps involved
    (generator_step_bounds in tests/oracles.py), each residual at s is:
    - V_semigroup (defects at 0 and the e_i, covariance, null vanishing):
      at most |s| times it plus the targets' associativity defect when
      the maps, actions and quotient maps are contractions;
    - regular_item3 (its t = 0 columns): at most the defect at s;
    - regular_item4 (on domain(e_i) (-) H): P_H V_u V_{e_i} (I - P_H) =
      (P_H V_u P_H)(P_H V_{e_i} (I - P_H)) + (P_H V_u (I - P_H))((I - P_H)
      V_{e_i} (I - P_H)), plus the e_i defect over sigma_min(domain(s));
    - V_isometry (guarded): the kernel's own shift defect plus terms in
      the semigroup defects at s and at 0.
    Contraction and commutation of the recovered maps follow from these on
    the generating vectors; on all of C^p least squares amplifies rounding
    by 1/sigma_min(domain)^2, so they are not checked there.
    """
    rep = bundle.rep
    sys_ = rep.system
    window = bundle.window
    zero = lattice.zero(sys_.k)
    gen0 = bundle.localized(zero)  # loc(0) = H
    p_h = gen0 @ gen0.conj().T
    iso = bundle.isometric_rep
    v0 = iso.sigma
    valid = validate_module(iso)
    # V_s(e_a) on C^p for the algebra basis (s = 0) or the reduced basis of
    # X(e_i), stacked along axis 0: the t_raw(e_i) columns of iso, kron-free
    v_of = {zero: v0.mats}
    for i, t_map in enumerate(iso.t_maps, start=1):
        q = sys_.word_data((i,)).last_q
        v_of[lattice.unit(sys_.k, i)] = np.tensordot(q.conj(), t_map, axes=(1, 0))
    gens = list(v_of)[1:]
    images = {s: v_of[s] @ dom for s, (dom, _tgt) in bundle.steps.items()}
    defects = {s: images[s] - tgt for s, (_dom, tgt) in bundle.steps.items()}

    # item 1: V_0(a) reduces H and restricts to sigma(a). [V_0(a), P_H] is
    # (I - P_H) V_0(a) P_H - P_H V_0(a) (I - P_H); its norm is the larger one
    comp = gen0.conj().T @ v0.mats @ gen0
    reduce = chain(v0.mats @ gen0 - gen0 @ comp, gen0.conj().T @ v0.mats - comp @ gen0.conj().T)
    item1 = max_opnorm(chain(reduce, comp - rep.sigma.mats))

    # V_0 is a unital *-homomorphism on K_min = C^p
    star_hom = max(v for name, v in valid.items() if name.startswith("sigma."))

    # item 2: regularity <V_{s-}(x-) h, V_{s+}(x+) g> = <T~_{s-}(x-) h, T~_{s+}(x+) g>
    # for disjoint supports, where the kernel block is Theta(s-, s-)^H Theta(s+, s+)
    cells = [(frozenset(lattice.support(s)), sl) for s, sl in zip(window.points, window.slices)]
    item2 = max_opnorm(
        bundle.factor[:, sl_neg].conj().T @ bundle.factor[:, sl_pos] - window.gram[sl_neg, sl_pos]
        for sup_neg, sl_neg in cells
        for sup_pos, sl_pos in cells
        if sup_neg.isdisjoint(sup_pos)
    )

    # item 3: minimality - V_{e_i}(x) delta_0 h = delta_{e_i} . x (x) h;
    # the first d columns of every domain are the generating vectors at 0
    item3 = max_opnorm(chain.from_iterable(defects[s][..., : rep.dim] for s in gens))

    # item 4: P_H V_{e_i}(x) vanishes on domain(e_i) (-) H. H lies in every
    # domain (t = 0 is in it), so its projector is P_domain - P_H.
    item4_blocks = []
    for s in gens:
        q_dom = _orth_cols(bundle.steps[s][0])
        item4_blocks.extend(gen0.conj().T @ v_of[s] @ (q_dom @ q_dom.conj().T - p_h))
    item4 = max_opnorm(item4_blocks)

    # isometry: V_{e_i}(x)^H V_{e_i}(y) = V_0(<x, y>), weakly on guarded vectors
    iso_res = 0.0
    for s in (s for s in gens if lattice.leq(s, _guarded(window.bound, guard))):
        dom, w = bundle.steps[s][0], images[s]
        # V_0(<e_a, e_b>) as [a, b, p, p], from the (p_s, p_s, dim A) Gram
        v0g = np.tensordot(sys_.fiber(s).gram, v0.mats, axes=(2, 0))
        lhs = w.conj().transpose(0, 2, 1)[:, None] @ w[None, :]
        iso_res = max(iso_res, float(np.abs(lhs - dom.conj().T @ v0g @ dom).max(initial=0.0)))

    # semigroup: V_0 and the V_{e_i} against their defining action, and the
    # covariance and null vanishing of the recovered maps
    relations = (v for name, v in valid.items() if not name.startswith("sigma."))
    semi_res = max([max_opnorm(chain.from_iterable(defects.values())), *relations])

    return {
        "regular_item1": item1,
        "regular_item2": item2,
        "regular_item3": item3,
        "regular_item4": item4,
        "V_isometry": iso_res,
        "V_semigroup": semi_res,
        "V0_star_hom": star_hom,
    }


def verify_hat_doubly_commuting(
    space: TruncatedFock, j: int, k: int, s_j: int = 1, s_k: int = 1
) -> float:
    """|| T^_a^H T^_b - T^_b T^_a^H || on H_L for a = s_j e_j, b = s_k e_k.

    The defect maps block r >= b to block r + a - b (an injective block
    map, so its norm is the largest block norm) by
    Theta(r - b + a, a)^H Theta(r, b) - Theta(r + a, b) Theta(r + a, a)^H.
    The first term needs r - b + a <= L and the second r + a <= L; for
    distinct directions both say r_j + s_j <= L_j, so both terms live on
    the same blocks. The block r = b is the negated adjoint of
    representation.doubly_commuting_defect(rep, j, k, s_j, s_k).
    """
    if j == k:
        raise InvalidArgumentError("directions must be distinct")
    if s_j < 0 or s_k < 0:
        raise InvalidArgumentError(f"lattice point must be nonnegative: {(s_j, s_k)}")
    nlat = space.rep.system.k
    a = lattice.unit(nlat, j, s_j)
    b = lattice.unit(nlat, k, s_k)
    keys = []
    for r in space.blocks:
        if lattice.leq(b, r) and lattice.leq(lattice.add(r, a), space.bound):
            ra = lattice.add(r, a)
            keys += [(lattice.add(lattice.sub(r, b), a), a), (r, b), (ra, b), (ra, a)]
    thetas = space.rep.build(keys=keys)
    return max_opnorm(
        thetas[x].conj().T @ thetas[x + 1] - thetas[x + 2] @ thetas[x + 3].conj().T
        for x in range(0, len(thetas), 4)
    )


def verify_doubly_commuting_V(bundle: DilationBundle, j: int, k: int, guard: int = 1) -> float:
    """Residual of the doubly-commuting identity for the recovered isometric
    representation, on guarded generating vectors."""
    iso = bundle.isometric_rep
    defect = doubly_commuting_defect(iso, j, k)
    # adjoints are window compressions: restrict to x (x) (guarded vectors)
    p_guard = bundle.guarded_basis(max(guard, 1))
    a = lattice.unit(iso.system.k, j)
    loc_a = iso.loc(a)
    # F_a (I_{p_a} (x) P P^H), with P P^H applied to each fiber slice of F_a
    factor = loc_a.factor.reshape(loc_a.rank, iso.system.fiber_dim(a), iso.dim)
    guarded = (factor @ (p_guard @ p_guard.conj().T)).reshape(loc_a.factor.shape)
    return opnorm(defect @ guarded @ loc_a.lift)


def compare_minimal_dilations(bundle_a: DilationBundle, bundle_b: DilationBundle) -> float:
    """Max inner-product discrepancy between the localized generating
    vectors of two factorizations of kernels of one representation (so in
    the same loc(t) coordinates), plus the residual of the matched unitary
    intertwiner."""
    bound = tuple(
        min(x, y) for x, y in zip(bundle_a.window.bound, bundle_b.window.bound, strict=True)
    )
    g_a = bundle_a.localized(bound)
    g_b = bundle_b.localized(bound)
    gram_diff = float(np.abs(g_a.conj().T @ g_a - g_b.conj().T @ g_b).max())
    # over a bundle's own window bound the localized vectors are its factor
    rank_a = bundle_a.k_min_rank() if bound == bundle_a.window.bound else _rank(g_a)
    rank_b = bundle_b.k_min_rank() if bound == bundle_b.window.bound else _rank(g_b)
    if rank_a != rank_b:
        return float("inf")
    omega = g_b @ np.linalg.pinv(g_a)
    intertwine = opnorm(omega @ g_a - g_b)
    return max(gram_diff, intertwine)
