"""Completely contractive covariant representations of a product system.

A representation is given by a unital *-representation sigma of the
coefficient algebra on H = C^d and, per generator E_i, one d x d matrix per
basis vector of E_i. The raw maps of the contractions T~_s for arbitrary
lattice points are assembled by composing generator factors right-to-left in
normal order. Every localized map is a lowering block Theta(t, s), the
descent of I (x) T~_s: loc(t) -> loc(t - s) through the fiber quotients, so
T~_s is Theta(s, s), and the commutation relation of validation and the
doubly-commuting identity are read off the same cached blocks the hat
semigroup is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .correspondence import (
    LocalizedSpace,
    descend_map,
    localize,
    trivial_localized,
)
from .cstar import CStarAlgebra, unit
from .errors import InvalidArgumentError, NotWellDefinedError
from .linalg import DEFAULT_TOL, kron, max_opnorm, opnorm
from .prodsys import ProductSystem


@dataclass(frozen=True)
class AlgebraRepresentation:
    algebra: CStarAlgebra
    dim: int
    mats: np.ndarray = field(compare=False)  # (algebra.dim, d, d)

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=complex)
        if mats.shape != (self.algebra.dim, self.dim, self.dim):
            raise InvalidArgumentError(f"sigma matrices have shape {mats.shape}")
        object.__setattr__(self, "mats", mats)

    def apply(self, coords: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coords, dtype=complex), self.mats, axes=(0, 0))


def validate_sigma(sigma: AlgebraRepresentation) -> dict[str, float]:
    """Residuals for sigma being a unital *-homomorphism."""
    alg = sigma.algebra
    d = sigma.dim
    res: dict[str, float] = {}
    mats = sigma.mats
    combos = np.tensordot(alg.mul_table, mats, axes=(2, 0))  # sigma(f_p f_q)
    products = combos - mats[:, None] @ mats[None, :]
    res["multiplicative"] = max_opnorm(products.reshape(alg.dim**2, d, d))
    adjoints = np.tensordot(alg.adj_table, mats, axes=(1, 0))  # sigma(f_p^*)
    res["star_preserving"] = max_opnorm(adjoints - mats.conj().transpose(0, 2, 1))
    res["unital"] = opnorm(sigma.apply(unit(alg).coords) - np.eye(sigma.dim))
    return res


class CCRepresentation:
    def __init__(
        self,
        system: ProductSystem,
        sigma: AlgebraRepresentation,
        t_maps,
        tol: float = DEFAULT_TOL,
    ):
        if sigma.algebra != system.algebra:
            raise InvalidArgumentError("sigma lives over a different algebra")
        self.system = system
        self.sigma = sigma
        self.dim = sigma.dim
        self.tol = tol
        maps = []
        for i, gen in enumerate(system.generators, start=1):
            arr = np.asarray(t_maps[i - 1], dtype=complex)
            if arr.shape != (gen.dim, sigma.dim, sigma.dim):
                raise InvalidArgumentError(
                    f"T maps for generator {i} have shape {arr.shape}, "
                    f"expected {(gen.dim, sigma.dim, sigma.dim)}"
                )
            maps.append(arr)
        self.t_maps: tuple[np.ndarray, ...] = tuple(maps)
        self._loc: dict[lattice.Point, LocalizedSpace] = {}
        self._t_raw: dict[lattice.Point, np.ndarray] = {}
        self._lowering: dict[tuple[lattice.Point, lattice.Point], np.ndarray] = {}

    # -- localized fiber spaces ---------------------------------------------

    def loc(self, s: lattice.Point) -> LocalizedSpace:
        s = tuple(s)
        cached = self._loc.get(s)
        if cached is None:
            if lattice.is_zero(s):
                cached = trivial_localized(self.dim, self.tol)
            else:
                cached = localize(self.system.fiber(s), self.sigma.mats, self.tol)
            self._loc[s] = cached
        return cached

    # -- the localized contractions T~ ---------------------------------------

    def gen_t_raw(self, i: int) -> np.ndarray:
        """d x (m_i d) map (x (x) h) -> T_i(x) h on generator raw coordinates."""
        arr = self.t_maps[i - 1]  # (m_i, d, d)
        return np.transpose(arr, (1, 0, 2)).reshape(self.dim, arr.shape[0] * self.dim)

    def t_raw(self, s: lattice.Point) -> np.ndarray:
        """d x (p_s d) map on reduced-fiber (x) H raw coordinates."""
        s = tuple(s)
        cached = self._t_raw.get(s)
        if cached is not None:
            return cached
        d = self.dim
        if lattice.is_zero(s):
            out = np.eye(d, dtype=complex)
        else:
            i = max(lattice.support(s))
            last_q = self.system.point_data(s).last_q
            split = kron(last_q.conj().T, np.eye(d))
            prev = lattice.sub(s, lattice.unit(len(s), i))
            if lattice.is_zero(prev):
                out = self.gen_t_raw(i) @ split
            else:
                p_prev = self.system.fiber_dim(prev)
                out = self.t_raw(prev) @ kron(np.eye(p_prev), self.gen_t_raw(i)) @ split
        self._t_raw[s] = out
        return out

    # -- block lowering maps (shared with the hat semigroup) -----------------

    def lowering_raw(self, t: lattice.Point, s: lattice.Point) -> np.ndarray:
        """Raw map X(t) (x) H -> X(t-s) (x) H implementing I (x) T~_s."""
        t = tuple(t)
        s = tuple(s)
        if not lattice.leq(s, t):
            raise InvalidArgumentError(f"lowering needs s <= t, got s={s}, t={t}")
        if lattice.is_zero(s):
            return np.eye(self.loc(t).source_dim, dtype=complex)
        d = self.dim
        rest = lattice.sub(t, s)
        if lattice.is_zero(rest):
            return self.t_raw(s)
        p_rest = self.system.fiber_dim(rest)
        p_s = self.system.fiber_dim(s)
        # mu is onto X(t), so its pseudo-inverse is mu^H (mu mu^H)^{-1}
        mu = self.system.mult_iso(rest, s)
        try:
            split_h = np.linalg.solve(mu @ mu.conj().T, mu)  # adjoint of p_t -> p_rest p_s
        except np.linalg.LinAlgError:
            raise NotWellDefinedError(
                f"multiplication isomorphism {(rest, s)} is not onto its fiber"
            ) from None
        # (I_{p_rest} (x) t_raw(s))(split (x) I_d), entry ((a, h'), (c, h)) =
        # sum over b of split[(a, b), c] t_raw(s)[h', (b, h)]: one matmul
        # batched over (a, h')
        split = split_h.conj().reshape(mu.shape[0], p_rest, p_s).transpose(1, 0, 2)
        out = np.ascontiguousarray(split)[:, None] @ self.t_raw(s).reshape(d, p_s, d)
        return out.reshape(p_rest * d, mu.shape[0] * d)

    def lowering_block(self, t: lattice.Point, s: lattice.Point) -> np.ndarray:
        """Localized block map loc(t) -> loc(t-s); the identity for s = 0.

        Theta(s, s) is the localized contraction T~_s: loc(s) -> H.
        """
        key = (tuple(t), tuple(s))
        cached = self._lowering.get(key)
        if cached is not None:
            return cached
        if lattice.is_zero(key[1]):
            out = np.eye(self.loc(t).rank, dtype=complex)
        else:
            out = descend_map(
                self.lowering_raw(t, s), self.loc(t), self.loc(lattice.sub(t, s)), self.tol
            )
        self._lowering[key] = out
        return out


def validate_module(rep: CCRepresentation) -> dict[str, float]:
    """Residuals of the relations of (sigma, T) that need no localization:
    sigma axioms, covariance and vanishing on null vectors."""
    res = {f"sigma.{k}": v for k, v in validate_sigma(rep.sigma).items()}
    sys_ = rep.system
    sig = rep.sigma.mats
    for i, gen in enumerate(sys_.generators, start=1):
        t_arr = rep.t_maps[i - 1]
        cov = 0.0
        for p in range(sys_.algebra.dim):
            # T(x . a) = T(x) sigma(a) and T(a . x) = sigma(a) T(x), with
            # T(x . a)[b] = sum over c of right_action[p][c, b] T[c]
            right = np.tensordot(gen.right_action[p], t_arr, axes=(0, 0)) - t_arr @ sig[p]
            left = np.tensordot(gen.left_action[p], t_arr, axes=(0, 0)) - sig[p] @ t_arr
            cov = max(cov, float(np.abs(right).max()), float(np.abs(left).max()))
        res[f"covariance_{i}"] = cov
        # a contraction vanishes on the module null vectors of E_i, which
        # the reduced fiber X(e_i) drops: T on I - q^H q
        q = sys_.word_data((i,)).last_q
        null_proj = np.eye(gen.dim) - q.conj().T @ q
        t_null = np.tensordot(null_proj, t_arr, axes=(0, 0))  # T(N e_c), (m_i, d, d)
        res[f"null_vanishing_{i}"] = max_opnorm([t_null.transpose(1, 0, 2).reshape(rep.dim, -1)])
    return res


def validate_representation(rep: CCRepresentation) -> dict[str, float]:
    """Residuals: validate_module, contractivity, flip commutation."""
    res = validate_module(rep)
    k = rep.system.k
    for i in range(1, k + 1):
        e_i = lattice.unit(k, i)
        res[f"contraction_{i}"] = max(0.0, opnorm(rep.lowering_block(e_i, e_i)) - 1.0)
        for j in range(i + 1, k + 1):
            res[f"commutation_{i}_{j}"] = _commutation_residual(rep, i, j)
    return res


def _commutation_residual(rep: CCRepresentation, i: int, j: int) -> float:
    """T~_i (I (x) T~_j) = T~_j (I (x) T~_i)(t_ij (x) I_H) on loc(e_i + e_j),
    on lowering blocks:

        ||Theta(e_i, e_i) Theta(e_i+e_j, e_j) - Theta(e_j, e_j) Theta(e_i+e_j, e_i)||.

    Theta(e_i+e_j, e_j) is I (x) T~_j composed with U_{e_i,e_j}^{-1}, and
    Theta(e_i+e_j, e_i) is I (x) T~_i composed with U_{e_j,e_i}^{-1}, so the
    flip t_ij = U_{e_j,e_i}^{-1} U_{e_i,e_j} is carried by the blocks."""
    e_i, e_j = lattice.unit(rep.system.k, i), lattice.unit(rep.system.k, j)
    e_ij = lattice.add(e_i, e_j)
    theta = rep.lowering_block
    return opnorm(theta(e_i, e_i) @ theta(e_ij, e_j) - theta(e_j, e_j) @ theta(e_ij, e_i))


def doubly_commuting_check(rep: CCRepresentation, j: int, k: int, s_j: int, s_k: int) -> float:
    """Residual of the doubly-commuting identity for generator directions j, k."""
    return opnorm(doubly_commuting_defect(rep, j, k, s_j, s_k))


def doubly_commuting_defect(
    rep: CCRepresentation, j: int, k: int, s_j: int = 1, s_k: int = 1
) -> np.ndarray:
    """LHS - RHS of the doubly-commuting identity
    T~_b^H T~_a = (I_b (x) T~_a)(t (x) I_H)(I_a (x) T~_b^H), a map
    loc(a) -> loc(b) for a = s_j e_j and b = s_k e_k, on lowering blocks:

        Theta(a+b, a) Theta(a+b, b)^H - Theta(b, b)^H Theta(a, a).

    Theta(a+b, b) is I_a (x) T~_b on X(a) (x) X(b) composed with U_{a,b}^{-1},
    and Theta(a+b, a) is I_b (x) T~_a composed with U_{b,a}^{-1}, so the flip
    t = U_{b,a}^{-1} U_{a,b} is carried by the blocks. The defect is the
    negated adjoint of the block r = b of the T^ defect in
    ``dilation.verify_hat_doubly_commuting``.
    """
    if j == k:
        raise InvalidArgumentError("doubly commuting check needs distinct directions")
    if s_j < 1 or s_k < 1:
        raise InvalidArgumentError("coordinates s_j, s_k must be >= 1")
    nlat = rep.system.k
    a = lattice.unit(nlat, j, s_j)
    b = lattice.unit(nlat, k, s_k)
    ab = lattice.add(a, b)
    theta = rep.lowering_block
    return theta(ab, a) @ theta(ab, b).conj().T - theta(b, b).conj().T @ theta(a, a)


def brehmer_check_NS(rep: CCRepresentation, v, s: lattice.Point) -> float:
    """Minimum eigenvalue of the alternating sum over subsets u of v of
    (-1)^|u| (I (x) T~_{s[u]}^H T~_{s[u]}) on loc(fiber(s[v]), sigma)."""
    s = tuple(s)
    sv = lattice.restrict(s, v)
    rank = rep.loc(sv).rank
    total = np.zeros((rank, rank), dtype=complex)
    for u in lattice.subsets(tuple(v)):
        su = lattice.restrict(s, u)
        theta = rep.lowering_block(sv, su)
        total += ((-1) ** len(u)) * (theta.conj().T @ theta)
    if rank == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (total + total.conj().T)).min())
