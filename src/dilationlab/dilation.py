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
so its module relations are checked by the same code as those of
(sigma, T). The semigroup law, minimality (its part on the generating
vectors at 0), item 4 and the isometry are checked at V_0 and the V_{e_i}
only; at a composite V_s they are bounded by those residuals, as
verify_regular_dilation states. Regularity compares the factor's inner
products with the kernel blocks of points of disjoint support,
Theta(t, t)^H Theta(s, s). Identities involving adjoints are window
compressions, so they are checked on vectors generated at lattice points
at least a guard margin g inside the window.

The dilation is built from one factorization, the eig factor
R = Lambda^{1/2} W^H of the kernel's eigh; a pivoted Cholesky factor of
the same kernel only checks that the minimal dilation is unique up to
unitary equivalence (compare_minimal_dilations).

No p-square factorization repeats what the kernel's eigh already knows.
R has orthogonal rows, so its pseudo-inverse is R^+ = W Lambda^{-1/2} and
its singular values are sqrt(Lambda): V_0's solve (domain(0) is all of
R), the uniqueness intertwiner and dim K_min take no SVD of R. Each
V_{e_i}'s solve takes one SVD of domain(e_i), which also gives item 4 its
projector onto that domain. The *-homomorphism identities of V_0 and the
doubly-commuting identity of the recovered maps are taken in weak form,
between generating vectors, as the isometry is: they need no operator norm
on C^p and no localization over V_0, and each states its bound on the
former operator-norm residual.

The other dilation checks are maxima of operator norms over many small
blocks, and each is taken with one stacked max_opnorm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import lattice
from .errors import InvalidArgumentError, NotPositiveDefiniteError
from .linalg import (
    lstsq_map,
    max_opnorm,
    opnorm,
    pinv_and_range,
    pivoted_cholesky,
    psd_factor,
    rank_mask,
)
from .representation import AlgebraRepresentation, CCRepresentation, validate_module

LSQ_TOL = 1e-8  # consistency tolerance for least-squares operator recovery


@dataclass(frozen=True)
class KernelWindow:
    """Generating-vector kernel over the window box, with its eigenpairs.

    Rows and columns run over the localized coordinates of loc(s) for each
    window point s in turn; `slices[i]` holds those of `points[i]`.
    """

    rep: CCRepresentation
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


def window_gram(rep: CCRepresentation, bound: lattice.Point) -> KernelWindow:
    """Kernel of the generating vectors of rep at the points 0 <= s <= bound."""
    bound = tuple(int(b) for b in bound)
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
    return KernelWindow(rep, bound, points, tuple(slices), gram, eigvals, eigvecs)


class DilationBundle:
    """Eig factor of a window kernel plus the recovered isometries.

    The factor's columns at a window point s, `factor[:, slices[s]]`, are
    the generating vectors delta_s . x (x) h in the localized coordinates
    of loc(s); they are the only stored form of the generating vectors.
    """

    # Read by nothing in the package: the benchmark's tracer records the
    # factor rank and dim K_min of a bundle whose method is "eig".
    method = "eig"

    def __init__(self, window: KernelWindow, factor: np.ndarray):
        self.window = window
        self.rep = window.rep
        self.factor = factor
        self.rank = factor.shape[0]
        self._slice_of = dict(zip(window.points, window.slices))

    @property
    def eig_split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The factor's kept eigenvalues Lambda, kept eigenvectors W and
        discarded eigenvectors W_0, as views of the window's eigenpairs
        (eigh's eigenvalues ascend, so the kept ones are the last `rank`)."""
        first = self.window.eigvals.shape[0] - self.rank
        vecs = self.window.eigvecs
        return self.window.eigvals[first:], vecs[:, first:], vecs[:, :first]

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
        """dim K_min: the numerical rank of the localized generating vectors.
        The factor's singular values are the square roots of its kept
        eigenvalues, so it takes no SVD."""
        return int(np.count_nonzero(rank_mask(np.sqrt(self.eig_split[0]))))

    # -- recovered operators ----------------------------------------------------

    @cached_property
    def steps(self) -> dict[lattice.Point, tuple[np.ndarray, np.ndarray]]:
        """(domain(s), targets(s)) at s = 0 and each e_i, built once."""
        k = self.rep.system.k
        points = [lattice.zero(k)] + [lattice.unit(k, i) for i in range(1, k + 1)]
        return {s: (self.domain(s), self.targets(s)) for s in points}

    @cached_property
    def solves(self) -> dict[lattice.Point, tuple[np.ndarray, np.ndarray | None]]:
        """Per step s, the recovered map as a (dim, p, p) stack and an
        orthonormal basis of domain(s) from the SVD of its solve (None at
        s = 0). Each map is one least-squares solve of its defining action
        on domain(s): V_0 over the algebra basis, and V_{e_i} over the
        reduced basis of X(e_i).

        domain(0) is the whole factor R = Lambda^{1/2} W^H, whose rows are
        orthogonal, so V_0's solve takes R^+ = W Lambda^{-1/2} and no SVD.
        Each V_{e_i}'s solve takes one SVD of its domain, whose basis gives
        item 4 its projector.
        """
        vals, vecs, _null = self.eig_split
        out = {}
        for s, (dom, tgt) in self.steps.items():
            if lattice.is_zero(s):
                pinv, basis = vecs / np.sqrt(vals), None
            else:
                pinv, basis = pinv_and_range(dom)
            out[s] = (lstsq_map(tgt, dom, pinv, LSQ_TOL, f"V_{s}"), basis)
        return out

    @cached_property
    def isometric_rep(self) -> CCRepresentation:
        """The recovered (V_0, V) as a covariant representation on C^p:
        V_0 and the T maps are the `solves`, the V_{e_i} taken to E_i's
        basis by its surjection, and every other V_s is their composition
        t_raw(s). The window bound must be >= 1 in every coordinate."""
        sys_ = self.rep.system
        v0, *reduced = (v for v, _basis in self.solves.values())
        t_maps = []
        for i, v in enumerate(reduced, start=1):
            # E_i's basis vector e_c goes to sum over a of last_q[a, c] V_{e_i}(e_a)
            last_q = sys_.word_data((i,)).last_q
            v = last_q.T @ v.reshape(last_q.shape[0], self.rank * self.rank)
            t_maps.append(v.reshape(last_q.shape[1], self.rank, self.rank))
        sigma = AlgebraRepresentation(sys_.algebra, self.rank, v0)
        return CCRepresentation(sys_, sigma, t_maps, tol=LSQ_TOL)


def kolmogorov(window: KernelWindow, tol: float = 1e-10) -> DilationBundle:
    """Factor the window kernel as R^H R from its eigenpairs, keeping the
    eigenvalues above tol times the largest; fails when it is not PSD."""
    if window.psd_margin < -tol:
        raise NotPositiveDefiniteError(
            f"window Gram has negative eigenvalue {window.psd_margin:.3e}: "
            "no regular isometric dilation exists for this window",
            margin=window.psd_margin,
        )
    cutoff = tol * max(float(window.eigvals.max()), 0.0)
    factor, _vals, _vecs = psd_factor(window.eigvals, window.eigvecs, cutoff, "kolmogorov")
    return DilationBundle(window, factor)


# -- verification -------------------------------------------------------------


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
    by 1/sigma_min(domain)^2, so they are not checked there. V0_star_hom
    is the weak form of V_0's *-homomorphism residuals on the factor R,
    max |R^H D R|; the operator norm of each defect D is at most n times it
    over sigma_min(R)^2, n the number of generating vectors
    (representation.validate_sigma).
    """
    rep = bundle.rep
    sys_ = rep.system
    window = bundle.window
    zero = lattice.zero(sys_.k)
    gen0 = bundle.localized(zero)  # loc(0) = H
    p_h = gen0 @ gen0.conj().T
    iso = bundle.isometric_rep
    v0 = iso.sigma
    valid = validate_module(iso, bundle.factor)
    # V_s(e_a) on C^p for the algebra basis (s = 0) or the reduced basis of
    # X(e_i), stacked along axis 0
    v_of = {s: v for s, (v, _basis) in bundle.solves.items()}
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
        q_dom = bundle.solves[s][1]
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


def verify_doubly_commuting_V(bundle: DilationBundle, j: int, k: int, guard: int = 1) -> float:
    """Weak residual of the doubly-commuting identity of the recovered maps,
    V~_b^* V~_a = (I_b (x) V~_a)(t (x) I)(I_a (x) V~_b^*) for a = e_j and
    b = e_k: the largest entry of W = Phi_b^H D Phi_a, D the defect on
    loc(a) over V_0 (whose negated adjoint representation.doubly_commuting_check
    takes for (sigma, T) at bound a + b) and Phi the localized images of
    x (x) g, g the generating vectors on the left and those at least
    max(guard, 1) inside the window on the right (adjoints are window
    compressions).

    No localization over V_0 is formed. In raw X (x) C^p coordinates the
    inner product is Gamma_x = (id (x) V_0)(G_x), G_x the fiber Gram, and
    V~_b^* g' has the coordinates (id (x) V_0)(G_b^+) V~_b^H g', since a
    *-homomorphism keeps the Moore-Penrose inverse G_b^+ in M_{p_b}(A).
    G_b^+ treats eigenvalues at most the representation's tol as null, the
    cutoff of the localization over V_0 (ProductSystem.gram_pinv). So
    W[beta, alpha] = (V_b(e_beta) g)^H V_a(e_alpha) g' - sum over beta' of
    g^H V_0(G_b[beta, beta']) (I_b (x) V~_a)(t (x) I)(e_alpha (x) V~_b^* g'),
    with t = U_{b,a}^+ U_{a,b} on raw pair coordinates, as the lowering
    blocks carry it. Phi_b is onto loc(b) and Phi_a onto the guarded part
    P of loc(a), so the former residual ||D P|| is at most
    sqrt(p_a p_b n n') max |W| / (sigma_min(Phi_b) sigma_min(Phi_a)), n and
    n' the numbers of vectors g and g' and sigma_min the smallest nonzero
    singular value (tests/oracles.py::doubly_commuting_bound).
    """
    if j == k:
        raise InvalidArgumentError("doubly commuting check needs distinct directions")
    iso = bundle.isometric_rep
    sys_ = iso.system
    p = iso.dim
    a, b = lattice.unit(sys_.k, j), lattice.unit(sys_.k, k)
    p_a, p_b = sys_.fiber_dim(a), sys_.fiber_dim(b)
    gens = bundle.factor
    guarded = bundle.localized(_guarded(bundle.window.bound, max(guard, 1)))
    n, n_g = gens.shape[1], guarded.shape[1]
    # V_x(e) over the reduced basis of X(x), as (p_x, p, p)
    v_a, v_b = bundle.solves[a][0], bundle.solves[b][0]
    img_a = v_a @ guarded
    lhs = (v_b @ gens).conj().transpose(0, 2, 1)[:, None] @ img_a[None]  # [beta, alpha, n, n']
    gram_b = sys_.fiber(b).gram
    # zeta = V~_b^* g' as [(gamma, p), n'], (id (x) V_0)(G_b^+) on the rows (eps, p)
    v0_pinv = np.tensordot(sys_.gram_pinv(b, iso.tol), iso.sigma.mats, axes=(2, 0))
    adjoint = v_b.conj().transpose(0, 2, 1) @ guarded
    zeta = v0_pinv.transpose(0, 2, 1, 3).reshape(p_b * p, p_b * p) @ adjoint.reshape(p_b * p, n_g)
    # t = U_{b,a}^+ U_{a,b} as [beta', alpha', alpha, gamma]
    mu = sys_.mult_iso(b, a)
    flip = np.linalg.solve(mu @ mu.conj().T, mu).conj().T @ sys_.mult_iso(a, b)
    moved = v_a[:, None] @ zeta.reshape(1, p_b, p, n_g)  # V_a(e_alpha') zeta_gamma
    y = np.tensordot(flip.reshape(p_b, p_a, p_a, p_b), moved, axes=([1, 3], [0, 1]))
    # g^H V_0(G_b[beta, beta']) as [(beta, n), (beta', p)], against y as [(beta', p), (alpha, n')]
    weight = gens.conj().T @ np.tensordot(gram_b, iso.sigma.mats, axes=(2, 0))
    weight = weight.transpose(0, 2, 1, 3).reshape(p_b * n, p_b * p)
    rhs = weight @ y.transpose(0, 2, 1, 3).reshape(p_b * p, p_a * n_g)
    rhs = rhs.reshape(p_b, n, p_a, n_g).transpose(0, 2, 1, 3)
    return float(np.abs(lhs - rhs).max(initial=0.0))


def compare_minimal_dilations(bundle: DilationBundle, tol: float) -> float:
    """Uniqueness of the minimal dilation: the largest inner-product
    discrepancy between the bundle's localized generating vectors R and
    those of a pivoted Cholesky factor C of its window kernel (pivot
    cutoff tol), plus the residual of the matched unitary intertwiner
    omega = C R^+; inf when the two factors differ in numerical rank.

    R = Lambda^{1/2} W^H, so R^+ R = W W^H and the residual
    omega R - C = -C W_0 W_0^H, W_0 the discarded eigenvectors, has the
    norm of C W_0; no pinv is taken.
    """
    chol = pivoted_cholesky(bundle.window.gram, rel_tol=tol)
    g = bundle.factor
    gram_diff = float(np.abs(g.conj().T @ g - chol.conj().T @ chol).max())
    if np.count_nonzero(rank_mask(np.linalg.svd(chol, compute_uv=False))) != bundle.k_min_rank():
        return float("inf")
    return max(gram_diff, opnorm(chol @ bundle.eig_split[2]))
