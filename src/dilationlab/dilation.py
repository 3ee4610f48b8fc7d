"""Regular isometric dilations via Kolmogorov factorization of the
generating-vector kernel.

The minimal dilation space is spanned by the generating vectors
delta_s . x (x) h, s in a lattice window W. Their kernel K has block
(t, s) = Theta(t, t-m)^H Theta(s, s-m) with m = t ^ s and Theta the
lowering blocks of the representation, so it is built without forming any
T^ matrix and has dimension sum over s in W of rank loc(s). It is positive
semidefinite exactly when a regular isometric dilation exists for the
windowed data: its minimum eigenvalue is the window's psd_margin, and the
rank of its factor R, reported as window.rank, is dim K_min.

R comes from the Brehmer defects (Brehmer 1961; Solel, Math. Proc. R. Ir.
Acad. 108 (2008)) Delta(r) = sum over u in supp r of (-1)^|u|
Theta(r, e_u)^H Theta(r, e_u), e_u the sum of the e_i over i in u, and
Delta(0) = I. With F the unit upper block-triangular matrix of blocks
F[r, s] = Theta(s, s - r), r <= s, T^'s semigroup law makes K the
congruence F^H diag(Delta(r)) F. So R = S F, S = (+) Lambda_r^{1/2} W_r^H
from one small eigh Delta(r) = W_r Lambda_r W_r^H per point, keeping the
eigenvalues above tol times the largest of them all. R's rows are
independent, so X = F^{-1} S^+ is a right inverse, and F^{-1} is sparse:
F^{-1}[r - e_u, r] = (-1)^|u| Theta(r, e_u), the blocks Delta(r) reads.

The generating vectors at s are the columns of R at s, in the localized
coordinates of loc(s), and are stored in no other form: they are taken to
raw fiber (x) H coordinates, by the localization factor F_s, only where a
fiber action is applied to them. V_0 and the generator isometries V_{e_i}
are recovered by one least-squares path from their defining action on the
localized generating vectors, each solve taking X and no factorization:
V_0 all of it, and V_{e_i} its restriction to the down-set D of points
t <= bound - e_i, on which R is S F over D and zero in the other rows.
Every other V_s is their composition in normal order. The recovered maps
form an isometric CCRepresentation on C^p, whose module relations are
checked by the same code as those of (sigma, T). The semigroup law,
minimality, item 4 and the isometry are checked at V_0 and the V_{e_i}
only, and bound those at a composite V_s (verify_regular_dilation). Item
4's P_domain - P_H selects the factor rows of D's points other than 0.
Regularity compares the factor's inner products with the kernel blocks
Theta(t, t)^H Theta(s, s) of points of disjoint support. S_0 = I and F's
first block row holds the Theta(s, s), so regular_item2 and regular_item3
read 0.0 by construction for this factor; both stay as checks of the
assembled factor. Identities involving adjoints are window compressions,
checked on vectors generated at least a guard margin g inside the window;
the *-homomorphism and doubly-commuting identities of the recovered maps
are taken in weak form, between generating vectors, as the isometry is.

The recovery is the bundle's one cache: the recovered representation,
which holds V_0 and one copy of each V_{e_i} (its T map over E_i's basis),
and the residuals its solves feed. A verified bundle so holds dim A + sum
of m_i p-square arrays beyond its factor. A pivoted Cholesky factor of the
same kernel only checks that the minimal dilation is unique up to unitary
equivalence (compare_minimal_dilations), on an orthonormal basis of
null R = F^{-1} (the discarded eigenvectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import lattice
from .errors import InvalidArgumentError, NotPositiveDefiniteError
from .linalg import eigh_by_size, lstsq_map, max_opnorm, opnorm, pivoted_cholesky, rank_mask, warn_degenerate
from .representation import AlgebraRepresentation, CCRepresentation, validate_module

LSQ_TOL = 1e-8  # consistency tolerance for least-squares operator recovery


@dataclass(frozen=True)
class KernelWindow:
    """Generating-vector kernel over the window box, its minimum eigenvalue
    and its unit block-triangular factor F. Rows and columns run over the
    localized coordinates of loc(s) for each window point s in turn;
    `slices[i]` holds those of `points[i]`."""

    rep: CCRepresentation
    bound: lattice.Point
    points: tuple[lattice.Point, ...]
    slices: tuple[slice, ...]
    gram: np.ndarray = field(compare=False)
    triangular: np.ndarray = field(compare=False)  # F[r, s] = Theta(s, s - r), r <= s
    psd_margin: float  # minimum eigenvalue; negative when no regular dilation exists


def window_gram(rep: CCRepresentation, bound: lattice.Point) -> KernelWindow:
    """Kernel of the generating vectors of rep at the points 0 <= s <= bound,
    with F, whose blocks are among the kernel's."""
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
    ends = np.cumsum([0, *(rep.loc(s).rank for s in points)]).tolist()
    slices, dim = tuple(slice(a, b) for a, b in zip(ends, ends[1:])), ends[-1]

    gram = np.zeros((dim, dim), dtype=np.result_type(*{theta.dtype for theta in thetas}))
    triangular = np.zeros_like(gram)
    for n, (a, b) in enumerate(pairs):
        theta_t, theta_s = thetas[2 * n], thetas[2 * n + 1]
        block = theta_t.conj().T @ theta_s
        gram[slices[a], slices[b]] = block
        gram[slices[b], slices[a]] = block.conj().T
        if lattice.leq(points[a], points[b]):  # m = t, so theta_s is Theta(s, s - t)
            triangular[slices[a], slices[b]] = theta_s
    margin = float(np.linalg.eigvalsh(gram).min())
    return KernelWindow(rep, bound, points, slices, gram, triangular, margin)


@dataclass(frozen=True)
class Recovery:
    """The recovered (V_0, V) and the residuals its solves feed: the largest
    norm of a step's defect V_s domain(s) - targets(s) (s = 0 and the e_i),
    of its part at the generating vectors at 0 (item 3, over the e_i) and
    of P_H V_{e_i} on domain(e_i) (-) H (item 4), and each e_i's weak
    isometry residual."""

    rep: CCRepresentation
    defect: float
    item3: float
    item4: float
    isometry: dict[lattice.Point, float] = field(compare=False)


class DilationBundle:
    """The factor R = S F of a window kernel, its right inverse
    X = F^{-1} S^+ and an orthonormal basis of its null space, plus the
    recovered isometries.

    The factor's columns at a window point s, `factor[:, slices[s]]`, are
    the generating vectors delta_s . x (x) h in the localized coordinates
    of loc(s); they are the only stored form of the generating vectors.
    The factor's rows at s are those of S's block at s. The Brehmer defects
    of a window that is not PSD have negative eigenvalues, which the factor
    drops like the null ones; kolmogorov refuses such a window.
    """

    # Read by nothing in the package: the benchmark's tracer records the
    # factor rank and dim K_min of a bundle whose method is "eig".
    method = "eig"

    def __init__(self, window: KernelWindow, tol: float):
        self.window = window
        self.rep = window.rep
        self._slice_of = dict(zip(window.points, window.slices))
        # column r of F^{-1}: the signed blocks (-1)^|u| Theta(r, e_u) =
        # (-1)^|u| F[r - e_u, r], by the rows r - e_u they sit in
        inverse = []
        for r, sl in zip(window.points, window.slices):
            column = []
            for u in lattice.subsets(lattice.support(r)):
                below = self._slice_of[tuple(c - (j in u) for j, c in enumerate(r, 1))]
                column.append((below, (-1.0) ** len(u), window.triangular[below, sl]))
            inverse.append(column)
        # the Brehmer defects; the cutoff is relative to their largest eigenvalue
        eig = eigh_by_size([sum(sign * th.conj().T @ th for _b, sign, th in col) for col in inverse])
        vals = np.concatenate([v for v, _w in eig])
        cutoff = tol * vals.max(initial=0.0)
        warn_degenerate(vals, cutoff, "kolmogorov")
        halves = [np.sqrt(v[v > cutoff])[:, None] * w[:, v > cutoff].conj().T for v, w in eig]
        self.factor = np.concatenate([half @ window.triangular[sl] for half, sl in zip(halves, window.slices)])
        self.rank = self.factor.shape[0]
        # F^{-1} (+) W_r, the kept columns scaled by Lambda_r^{-1/2}: X and a basis of null R
        scaled = np.zeros_like(window.triangular)
        for (v, w), col, sl in zip(eig, inverse, window.slices):
            w = w / np.sqrt(np.where(v > cutoff, v, 1.0))
            for below, sign, theta in col:
                scaled[below, sl] = sign * (theta @ w)
        self.right = scaled[:, vals > cutoff]
        self.null = np.linalg.qr(scaled[:, vals <= cutoff])[0]
        # the window point of each kernel column and of each factor row
        self._col_point = np.repeat(np.arange(len(halves)), [sl.stop - sl.start for sl in window.slices])
        self._row_point = np.repeat(np.arange(len(halves)), [half.shape[0] for half in halves])

    # -- generating vectors ---------------------------------------------------

    def _down_set(self, bound: lattice.Point) -> tuple[np.ndarray, np.ndarray]:
        """The kernel columns of the window points t <= bound, and the mask
        of their factor rows."""
        inside = np.array([lattice.leq(t, bound) for t in self.window.points])
        return np.flatnonzero(inside[self._col_point]), inside[self._row_point]

    def localized(self, bound: lattice.Point) -> np.ndarray:
        """Generating vectors at the window points t <= bound in localized
        coordinates: the factor's rank loc(t) columns at each point. Those
        at bound - s are domain(s), on which V_s is defined."""
        return self.factor[:, self._down_set(bound)[0]]

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
        """dim K_min: the rank of R = S F, whose rows are independent."""
        return self.rank

    # -- recovered operators ----------------------------------------------------

    @cached_property
    def recovery(self) -> Recovery:
        """V_0 and the V_{e_i}, each one least-squares solve of its defining
        action on domain(s): V_0 over the algebra basis, and V_{e_i} over the
        reduced basis of X(e_i), then taken to E_i's basis by its surjection.
        Every other V_s is their composition t_raw(s). The window bound must
        be >= 1 in every coordinate. The solves take the right inverse X, all
        of it for V_0 and its rows and columns at the down-set D of
        domain(e_i) for V_{e_i}, and no factorization; the defects are normed
        in one max_opnorm, so those of one shape share a stacked SVD.
        """
        sys_ = self.rep.system
        p, d = self.rank, self.rep.dim
        zero = lattice.zero(sys_.k)
        v0, defect = lstsq_map(self.targets(zero), self.factor, self.right, LSQ_TOL, f"V_{zero}")
        defects = [defect]
        at_zero = self._row_point == 0
        t_maps, item4, isometry = [], [], {}
        for i in range(1, sys_.k + 1):
            s = lattice.unit(sys_.k, i)
            cols, rows = self._down_set(lattice.sub(self.window.bound, s))
            dom, tgt = self.factor[:, cols], self.targets(s)
            v, defect = lstsq_map(tgt, dom, self.right[cols] * rows, LSQ_TOL, f"V_{s}")
            defects.append(defect)
            # item 4: P_H V_{e_i}(x) vanishes on domain(e_i) (-) H, the rows of
            # D but not of 0 (S_0 = I = F[0, 0], so 0's rows span H)
            item4.extend(v[:, at_zero][..., rows & ~at_zero])
            # isometry: V_{e_i}(x)^H V_{e_i}(y) = V_0(<x, y>), weakly on
            # domain(e_i), with V_0(<e_a, e_b>) as [a, b, p, p] from the
            # (p_s, p_s, dim A) Gram
            w = defect + tgt  # V_{e_i} applied to domain(e_i)
            del tgt
            v0g = np.tensordot(sys_.fiber(s).gram, v0, axes=(2, 0))
            lhs = w.conj().transpose(0, 2, 1)[:, None] @ w[None, :]
            isometry[s] = float(np.abs(lhs - dom.conj().T @ v0g @ dom).max(initial=0.0))
            # E_i's basis vector e_c goes to sum over a of last_q[a, c] V_{e_i}(e_a)
            last_q = sys_.point_data(s).last_q
            t_maps.append((last_q.T @ v.reshape(last_q.shape[0], p * p)).reshape(last_q.shape[1], p, p))
        rep = CCRepresentation(sys_, AlgebraRepresentation(sys_.algebra, p, v0), t_maps, tol=LSQ_TOL)
        return Recovery(
            rep,
            defect=max_opnorm(chain.from_iterable(defects)),
            # minimality: V_{e_i}(x) delta_0 h = delta_{e_i} . x (x) h; the
            # first d columns of every domain are the generating vectors at 0
            item3=max_opnorm(chain.from_iterable(defect[..., :d] for defect in defects[1:])),
            item4=max_opnorm(item4),
            isometry=isometry,
        )


def kolmogorov(window: KernelWindow, tol: float = 1e-10) -> DilationBundle:
    """Factor the window kernel as R^H R with R = S F, keeping the Brehmer
    defects' eigenvalues above tol times the largest; fails when the kernel
    is not PSD."""
    if window.psd_margin < -tol:
        raise NotPositiveDefiniteError(
            f"window Gram has negative eigenvalue {window.psd_margin:.3e}: "
            "no regular isometric dilation exists for this window",
            margin=window.psd_margin,
        )
    return DilationBundle(window, tol)


# -- verification -------------------------------------------------------------


def _guarded(bound: lattice.Point, guard: int) -> lattice.Point:
    return tuple(max(0, b - guard) for b in bound)


def verify_regular_dilation(bundle: DilationBundle, guard: int = 1) -> dict[str, float]:
    """Residuals of the four dilation properties plus the isometry,
    semigroup, and *-homomorphism identities, keyed by fixed check names.

    Only V_0 and the V_{e_i} are checked: on their domains, by the
    residuals the bundle's recovery takes with its solves, and with
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
    window = bundle.window
    gen0 = bundle.localized(lattice.zero(rep.system.k))  # loc(0) = H
    recovery = bundle.recovery
    v0 = recovery.rep.sigma
    valid = validate_module(recovery.rep, bundle.factor)

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

    # isometry on guarded vectors: the e_i at least the guard inside the window
    guarded = _guarded(window.bound, guard)
    iso_res = max([0.0, *(res for s, res in recovery.isometry.items() if lattice.leq(s, guarded))])

    # semigroup: V_0 and the V_{e_i} against their defining action, and the
    # covariance and null vanishing of the recovered maps
    relations = (v for name, v in valid.items() if not name.startswith("sigma."))
    semi_res = max([recovery.defect, *relations])

    return {
        "regular_item1": item1,
        "regular_item2": item2,
        "regular_item3": recovery.item3,
        "regular_item4": recovery.item4,
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
    iso = bundle.recovery.rep
    sys_ = iso.system
    p = iso.dim
    a, b = lattice.unit(sys_.k, j), lattice.unit(sys_.k, k)
    p_a, p_b = sys_.fiber_dim(a), sys_.fiber_dim(b)
    gens = bundle.factor
    guarded = bundle.localized(_guarded(bundle.window.bound, max(guard, 1)))
    n, n_g = gens.shape[1], guarded.shape[1]
    # V_x(e) over the reduced basis of X(x), as (p_x, p, p): q-bar T of the
    # T map over E_x's basis, q the surjection, whose rows are orthonormal
    q_a, q_b = sys_.point_data(a).last_q, sys_.point_data(b).last_q
    v_a = (q_a.conj() @ iso.t_maps[j - 1].reshape(q_a.shape[1], p * p)).reshape(p_a, p, p)
    v_b = (q_b.conj() @ iso.t_maps[k - 1].reshape(q_b.shape[1], p * p)).reshape(p_b, p, p)
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
    omega = C X; inf when the two factors differ in numerical rank.
    omega R - C = C (X R - I) vanishes exactly when C does on null R, so the
    residual is the norm of C on the bundle's orthonormal basis of null R.
    """
    chol = pivoted_cholesky(bundle.window.gram, rel_tol=tol)
    g = bundle.factor
    gram_diff = float(np.abs(g.conj().T @ g - chol.conj().T @ chol).max())
    if np.count_nonzero(rank_mask(np.linalg.svd(chol, compute_uv=False))) != bundle.k_min_rank():
        return float("inf")
    return max(gram_diff, opnorm(chol @ bundle.null))
