"""Completely contractive covariant representations of a product system.

A representation is given by a unital *-representation sigma of the
coefficient algebra on H = C^d and, per generator E_i, one d x d matrix per
basis vector of E_i. The localized contractions T~_s for arbitrary lattice
points are assembled by composing generator factors right-to-left in normal
order and descending through the fiber quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .correspondence import (
    LocalizedSpace,
    _raw_tensor,
    descend_map,
    interior_tensor,
    localize,
    trivial_localized,
)
from .cstar import CStarAlgebra, adjoint_table, multiplication_table, unit
from .errors import InvalidArgumentError
from .linalg import DEFAULT_TOL, opnorm
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


def validate_sigma(sigma: AlgebraRepresentation, tol: float = DEFAULT_TOL) -> dict[str, float]:
    """Residuals for sigma being a unital *-homomorphism."""
    alg = sigma.algebra
    res: dict[str, float] = {}
    mul_table = multiplication_table(alg)
    mult = 0.0
    for p in range(alg.dim):
        for q in range(alg.dim):
            combo = np.tensordot(mul_table[p, q], sigma.mats, axes=(0, 0))
            mult = max(mult, opnorm(combo - sigma.mats[p] @ sigma.mats[q]))
    res["multiplicative"] = mult
    adj = adjoint_table(alg)
    star = 0.0
    for p in range(alg.dim):
        combo = np.tensordot(adj[p], sigma.mats, axes=(0, 0))
        star = max(star, opnorm(combo - sigma.mats[p].conj().T))
    res["star_preserving"] = star
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

    # -- localized fiber spaces ---------------------------------------------

    def loc(self, s: lattice.Point) -> LocalizedSpace:
        s = tuple(s)
        cached = self._loc.get(s)
        if cached is None:
            if lattice.is_zero(s):
                cached = trivial_localized(self.dim, self.tol)
            else:
                cached = localize(
                    self.system.fiber(s).correspondence, self.sigma.mats, self.tol
                )
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
            word = self.system.normal_word(s)
            data = self.system.word_data(word)
            if len(word) == 1:
                out = self.gen_t_raw(i) @ np.kron(data.lift, np.eye(d))
            else:
                prev = lattice.sub(s, lattice.unit(len(s), i))
                p_prev = self.system.fiber_dim(prev)
                out = (
                    self.t_raw(prev)
                    @ np.kron(np.eye(p_prev), self.gen_t_raw(i))
                    @ np.kron(data.last_q.conj().T, np.eye(d))
                )
        self._t_raw[s] = out
        return out

    def t_tilde(self, s: lattice.Point) -> np.ndarray:
        """Localized contraction T~_s: loc(fiber(s), sigma) -> C^d."""
        s = tuple(s)
        if lattice.is_zero(s):
            return np.eye(self.dim, dtype=complex)
        return descend_map(self.t_raw(s), self.loc(s), trivial_localized(self.dim), self.tol)

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
        iso = self.system.mult_iso(rest, s)
        p_rest = self.system.fiber_dim(rest)
        split = iso.tensor_surjection.conj().T @ iso.matrix_inv  # p_t -> p_rest p_s
        return np.kron(np.eye(p_rest), self.t_raw(s)) @ np.kron(split, np.eye(d))

    def lowering_block(self, t: lattice.Point, s: lattice.Point) -> np.ndarray:
        """Localized block map loc(t) -> loc(t-s); the identity for s = 0."""
        if lattice.is_zero(tuple(s)):
            return np.eye(self.loc(t).rank, dtype=complex)
        return descend_map(
            self.lowering_raw(t, s), self.loc(t), self.loc(lattice.sub(t, s)), self.tol
        )

    # -- pair machinery for the doubly-commuting identity ---------------------

    def _pair(self, a: lattice.Point, b: lattice.Point):
        """Reduced X(a) (x) X(b) with its localization and surjection."""
        ca = self.system.fiber(a).correspondence
        cb = self.system.fiber(b).correspondence
        pair, q = interior_tensor(ca, cb, self.tol)
        return pair, q, localize(pair, self.sigma.mats, self.tol)

    def _ext_map(self, a: lattice.Point, b: lattice.Point):
        """(I_a (x) T~_b): loc(X(a) (x) X(b)) -> loc(a), plus pair data."""
        pair, q, loc_pair = self._pair(a, b)
        p_a = self.system.fiber_dim(a)
        d = self.dim
        raw = np.kron(np.eye(p_a), self.t_raw(b)) @ np.kron(q.conj().T, np.eye(d))
        return descend_map(raw, loc_pair, self.loc(a), self.tol), loc_pair


def validate_representation(rep: CCRepresentation, tol: float | None = None) -> dict[str, float]:
    """Residuals: sigma axioms, covariance, contractivity, flip commutation."""
    tol = rep.tol if tol is None else tol
    res = {f"sigma.{k}": v for k, v in validate_sigma(rep.sigma).items()}
    sys_ = rep.system
    sig = rep.sigma.mats
    for i, gen in enumerate(sys_.generators, start=1):
        t_arr = rep.t_maps[i - 1]
        cov = 0.0
        for p in range(sys_.algebra.dim):
            # T(x . a) = T(x) sigma(a)
            lhs = np.einsum("cb,cst->bst", gen.right_action[p], t_arr)
            rhs = np.einsum("bsu,ut->bst", t_arr, sig[p])
            cov = max(cov, float(np.abs(lhs - rhs).max()))
            # T(a . x) = sigma(a) T(x)
            lhs = np.einsum("cb,cst->bst", gen.left_action[p], t_arr)
            rhs = np.einsum("su,but->bst", sig[p], t_arr)
            cov = max(cov, float(np.abs(lhs - rhs).max()))
        res[f"covariance_{i}"] = cov
        e_i = lattice.unit(sys_.k, i)
        res[f"contraction_{i}"] = max(0.0, opnorm(rep.t_tilde(e_i)) - 1.0)
    for i in range(1, sys_.k + 1):
        for j in range(i + 1, sys_.k + 1):
            res[f"commutation_{i}_{j}"] = _commutation_residual(rep, i, j)
    return res


def _commutation_residual(rep: CCRepresentation, i: int, j: int) -> float:
    """T~_i (I (x) T~_j) = T~_j (I (x) T~_i)(t_ij (x) I_H) on raw word coords."""
    sys_ = rep.system
    ei = sys_.generators[i - 1]
    ej = sys_.generators[j - 1]
    d = rep.dim
    ti = rep.gen_t_raw(i)
    tj = rep.gen_t_raw(j)
    lhs = ti @ np.kron(np.eye(ei.dim), tj)
    rhs = tj @ np.kron(np.eye(ej.dim), ti) @ np.kron(sys_.flips[(i, j)], np.eye(d))
    raw_pair = _raw_tensor(ei, ej)
    loc_pair = localize(raw_pair, rep.sigma.mats, rep.tol)
    return opnorm((lhs - rhs) @ loc_pair.lift)


def is_isometric(rep: CCRepresentation, s: lattice.Point, tol: float = DEFAULT_TOL) -> bool:
    tt = rep.t_tilde(s)
    return opnorm(tt.conj().T @ tt - np.eye(tt.shape[1])) <= tol


def is_fully_coisometric(rep: CCRepresentation, s: lattice.Point, tol: float = DEFAULT_TOL) -> bool:
    tt = rep.t_tilde(s)
    return opnorm(tt @ tt.conj().T - np.eye(tt.shape[0])) <= tol


def doubly_commuting_check(
    rep: CCRepresentation, j: int, k: int, s_j: int, s_k: int, tol: float | None = None
) -> float:
    """Residual of the doubly-commuting identity for generator directions j, k."""
    if j == k:
        raise InvalidArgumentError("doubly commuting check needs distinct directions")
    if s_j < 1 or s_k < 1:
        raise InvalidArgumentError("coordinates s_j, s_k must be >= 1")
    nlat = rep.system.k
    a = lattice.unit(nlat, j, s_j)
    b = lattice.unit(nlat, k, s_k)
    # RHS: T~_b^H T~_a
    rhs = rep.t_tilde(b).conj().T @ rep.t_tilde(a)
    # LHS: (I_b (x) T~_a)(t (x) I_H)(I_a (x) T~_b^H)
    ext_ab, loc_ab = rep._ext_map(a, b)  # loc(X(a)(x)X(b)) -> loc(a)
    ext_ba, loc_ba = rep._ext_map(b, a)  # loc(X(b)(x)X(a)) -> loc(b)
    iso_ab = rep.system.mult_iso(a, b)
    iso_ba = rep.system.mult_iso(b, a)
    t_mod = np.linalg.pinv(iso_ba.matrix) @ iso_ab.matrix
    t_loc = descend_map(np.kron(t_mod, np.eye(rep.dim)), loc_ab, loc_ba, rep.tol)
    lhs = ext_ba @ t_loc @ ext_ab.conj().T
    return opnorm(lhs - rhs)


def brehmer_check_NS(
    rep: CCRepresentation, v, s: lattice.Point, tol: float = DEFAULT_TOL
) -> float:
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
