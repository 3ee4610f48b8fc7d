"""Completely contractive covariant representations of a product system.

A representation is given by a unital *-representation sigma of the
coefficient algebra on H = C^d and, per generator E_i, one d x d matrix per
basis vector of E_i. The raw maps of the contractions T~_s for arbitrary
lattice points are assembled by composing generator factors right-to-left in
normal order. Every localized map is a lowering block Theta(t, s), the
descent of I (x) T~_s: loc(t) -> loc(t - s) through the fiber quotients, so
T~_s is Theta(s, s). The localizations and the blocks come from one plural
method, CCRepresentation.build, which computes the missing ones of a list
of points and (t, s) keys in stacks grouped by shape and caches them; the
commutation relation of validation, the doubly-commuting identity and the
Brehmer-type sums are read off the same blocks the hat semigroup is built
from, each check requesting its whole key set in one call.
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
from .linalg import DEFAULT_TOL, as_data, hermitize, kron, max_opnorm, opnorm, stack
from .prodsys import ProductSystem


@dataclass(frozen=True)
class AlgebraRepresentation:
    algebra: CStarAlgebra
    dim: int
    mats: np.ndarray = field(compare=False)  # (algebra.dim, d, d)

    def __post_init__(self):
        mats = as_data(self.mats)
        if mats.shape != (self.algebra.dim, self.dim, self.dim):
            raise InvalidArgumentError(f"sigma matrices have shape {mats.shape}")
        object.__setattr__(self, "mats", mats)

    def apply(self, coords: np.ndarray) -> np.ndarray:
        return np.tensordot(coords, self.mats, axes=(0, 0))


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
            arr = as_data(t_maps[i - 1])
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

    # -- localized fiber spaces and lowering blocks ---------------------------

    def build(self, points=(), keys=()) -> list[np.ndarray]:
        """Localize the points, and compute the lowering blocks Theta(t, s)
        of the (t, s) keys, that are not cached yet, in stacks grouped by
        shape. Returns the blocks of the keys, in their order.

        The fibers are built level by level (ProductSystem.build) and the
        localizations take one `localize` per fiber dimension. A block with
        0 < s < t is the descent of (I (x) t_raw(s))(split (x) I_d), split =
        mu^H (mu mu^H)^{-1} the pseudo-inverse of mu = U_{t-s,s}, which is
        onto X(t); one with s = t is the descent of t_raw(s). The blocks of
        one (mu shape, loc ranks) group take one stacked solve, one stacked
        product with t_raw(s) and one stacked `descend_map`. Every stack is
        laid out slice by slice as the per-key arrays are, so each block has
        the bits it has on its own. A key whose split is singular or whose
        map does not descend raises NotWellDefinedError; of several, the
        first in the order of `keys` raises, as a key-by-key loop would.
        """
        keys = [(tuple(t), tuple(s)) for t, s in keys]
        new = [(t, s, lattice.sub(t, s)) for t, s in dict.fromkeys(keys) if (t, s) not in self._lowering]
        for t, s, rest in new:
            if any(x < 0 for x in rest):
                raise InvalidArgumentError(f"lowering needs s <= t, got s={s}, t={t}")
        wanted = [tuple(p) for p in points] + [p for t, _s, rest in new for p in (t, rest)]
        self._localize([p for p in dict.fromkeys(wanted) if p not in self._loc])
        dim = self.system.fiber_dim
        groups: dict[tuple, list] = {}
        for t, s, rest in new:
            if not any(s):
                self._lowering[(t, s)] = np.eye(self._loc[t].rank)
                continue
            top = not any(rest)
            shape = (top, dim(t), dim(rest), dim(s), self._loc[t].rank, self._loc[rest].rank)
            groups.setdefault(shape, []).append((t, s, rest))
        failures: dict[tuple[lattice.Point, lattice.Point], NotWellDefinedError] = {}
        for (top, p_t, p_rest, p_s, _rank_t, _rank_rest), group in groups.items():
            if top:
                raw = stack([self.t_raw(s) for _t, s, _rest in group])
            else:
                group, raw = self._lowering_raw(group, p_t, p_rest, p_s, failures)
            if not group:
                continue
            sources = [self._loc[t] for t, _s, _rest in group]
            targets = [self._loc[rest] for _t, _s, rest in group]
            blocks, errors = descend_map(raw, sources, targets, self.tol)
            for x, (t, s, _rest) in enumerate(group):
                if x in errors:
                    failures[(t, s)] = errors[x]
                else:
                    self._lowering[(t, s)] = blocks[x]
        for key in keys:
            if key in failures:
                raise failures[key]
        return [self._lowering[key] for key in keys]

    def _localize(self, points) -> None:
        """loc of each point: H itself at 0, else one `localize` per fiber
        dimension over the fibers of the points."""
        self.system.build(points)
        by_dim: dict[int, list[lattice.Point]] = {}
        for s in points:
            if lattice.is_zero(s):
                self._loc[s] = trivial_localized(self.dim, self.tol)
            else:
                by_dim.setdefault(self.system.fiber_dim(s), []).append(s)
        for group in by_dim.values():
            fibers = [self.system.fiber(s) for s in group]
            self._loc.update(zip(group, localize(fibers, self.sigma.mats, self.tol)))

    def _lowering_raw(self, group, p_t: int, p_rest: int, p_s: int, failures):
        """The raw maps X(t) (x) H -> X(t-s) (x) H of I (x) T~_s for the
        (t, s, t - s) of one shape with 0 < s < t, as a stack, with the
        entries they are for: an entry whose mu mu^H is singular is left
        out, its error in `failures`."""
        d = self.dim
        mu = stack([self.system.mult_iso(rest, s) for _t, s, rest in group])
        gram = mu @ np.swapaxes(mu.conj(), 1, 2)
        try:
            split_h = np.linalg.solve(gram, mu)  # adjoint of p_t -> p_rest p_s
        except np.linalg.LinAlgError:
            # one singular matrix fails the stacked solve: find its keys
            kept = []
            for x, (t, s, rest) in enumerate(group):
                try:
                    np.linalg.solve(gram[x], mu[x])
                except np.linalg.LinAlgError:
                    failures[(t, s)] = NotWellDefinedError(
                        f"multiplication isomorphism {(rest, s)} is not onto its fiber"
                    )
                else:
                    kept.append(x)
            group = [group[x] for x in kept]
            if not group:
                return group, None
            split_h = np.linalg.solve(gram[kept], mu[kept])
        # (I_{p_rest} (x) t_raw(s))(split (x) I_d), entry ((a, h'), (c, h)) =
        # sum over b of split[(a, b), c] t_raw(s)[h', (b, h)]: one matmul
        # batched over (key, a, h')
        n = len(group)
        split = split_h.conj().reshape(n, p_t, p_rest, p_s).transpose(0, 2, 1, 3)
        t_raw = stack([self.t_raw(s) for _t, s, _rest in group]).reshape(n, 1, d, p_s, d)
        out = np.ascontiguousarray(split)[:, :, None] @ t_raw
        return group, out.reshape(n, p_rest * d, p_t * d)

    def loc(self, s: lattice.Point) -> LocalizedSpace:
        s = tuple(s)
        cached = self._loc.get(s)
        if cached is None:
            self.build(points=[s])
            cached = self._loc[s]
        return cached

    def lowering_block(self, t: lattice.Point, s: lattice.Point) -> np.ndarray:
        """Localized block map loc(t) -> loc(t-s), built by `build`; the
        identity for s = 0.

        Theta(s, s) is the localized contraction T~_s: loc(s) -> H.
        """
        key = (tuple(t), tuple(s))
        cached = self._lowering.get(key)
        if cached is None:
            [cached] = self.build(keys=[key])
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
            out = np.eye(d)
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
    """Residuals: validate_module, contractivity, flip commutation. Their
    lowering blocks are built in one call."""
    res = validate_module(rep)
    k = rep.system.k
    keys = []
    for i in range(1, k + 1):
        e_i = lattice.unit(k, i)
        keys.append((e_i, e_i))
        keys.extend(key for j in range(i + 1, k + 1) for key in _commutation_keys(k, i, j))
    rep.build(keys=keys)
    for i in range(1, k + 1):
        e_i = lattice.unit(k, i)
        res[f"contraction_{i}"] = max(0.0, opnorm(rep.lowering_block(e_i, e_i)) - 1.0)
        for j in range(i + 1, k + 1):
            res[f"commutation_{i}_{j}"] = _commutation_residual(rep, i, j)
    return res


def _commutation_keys(k: int, i: int, j: int) -> list:
    e_i, e_j = lattice.unit(k, i), lattice.unit(k, j)
    e_ij = lattice.add(e_i, e_j)
    return [(e_i, e_i), (e_ij, e_j), (e_j, e_j), (e_ij, e_i)]


def _commutation_residual(rep: CCRepresentation, i: int, j: int) -> float:
    """T~_i (I (x) T~_j) = T~_j (I (x) T~_i)(t_ij (x) I_H) on loc(e_i + e_j),
    on lowering blocks:

        ||Theta(e_i, e_i) Theta(e_i+e_j, e_j) - Theta(e_j, e_j) Theta(e_i+e_j, e_i)||.

    Theta(e_i+e_j, e_j) is I (x) T~_j composed with U_{e_i,e_j}^{-1}, and
    Theta(e_i+e_j, e_i) is I (x) T~_i composed with U_{e_j,e_i}^{-1}, so the
    flip t_ij = U_{e_j,e_i}^{-1} U_{e_i,e_j} is carried by the blocks."""
    i_i, ij_j, j_j, ij_i = rep.build(keys=_commutation_keys(rep.system.k, i, j))
    return opnorm(i_i @ ij_j - j_j @ ij_i)


def doubly_commuting_check(rep: CCRepresentation, j: int, k: int, s_j: int, s_k: int) -> float:
    """Residual of the doubly-commuting identity for generator directions j, k."""
    return opnorm(doubly_commuting_defect(rep, j, k, s_j, s_k))


def doubly_commuting_keys(nlat: int, j: int, k: int, s_j: int = 1, s_k: int = 1) -> list:
    """The lowering-block keys of `doubly_commuting_defect`, in its order:
    (a+b, a), (a+b, b), (b, b), (a, a) for a = s_j e_j and b = s_k e_k."""
    if j == k:
        raise InvalidArgumentError("doubly commuting check needs distinct directions")
    if s_j < 1 or s_k < 1:
        raise InvalidArgumentError("coordinates s_j, s_k must be >= 1")
    a = lattice.unit(nlat, j, s_j)
    b = lattice.unit(nlat, k, s_k)
    ab = lattice.add(a, b)
    return [(ab, a), (ab, b), (b, b), (a, a)]


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
    ab_a, ab_b, b_b, a_a = rep.build(keys=doubly_commuting_keys(rep.system.k, j, k, s_j, s_k))
    return ab_a @ ab_b.conj().T - b_b.conj().T @ a_a


def brehmer_keys(v, points) -> list:
    """The lowering-block keys (s[v], s[u]) of `brehmer_check_NS`, u over
    the subsets of v, point by point."""
    subsets = list(lattice.subsets(tuple(v)))
    restricted = [lattice.restrict(tuple(s), v) for s in points]
    return [(sv, lattice.restrict(sv, u)) for sv in restricted for u in subsets]


def brehmer_check_NS(rep: CCRepresentation, v, points) -> list[float]:
    """Minimum eigenvalue, for each point s of `points`, of the alternating
    sum over subsets u of v of (-1)^|u| (I (x) T~_{s[u]}^H T~_{s[u]}) on
    loc(fiber(s[v]), sigma), that is of

        sum over u of (-1)^|u| Theta(s[v], s[u])^H Theta(s[v], s[u]).

    The blocks of all the points are built in one call, and their
    Theta^H Theta take one stacked product per block shape. The sums of the
    points whose loc(s[v]) have one rank are accumulated as one stack,
    subset by subset in the order of lattice.subsets, and take one
    eigvalsh; each sum has the bits of its own loop. A sum on a rank-0
    space is 0.0.
    """
    subsets = list(lattice.subsets(tuple(v)))
    size = len(subsets)
    blocks = rep.build(keys=brehmer_keys(v, points))
    thetas = [blocks[x * size : (x + 1) * size] for x in range(len(points))]
    # the rank of loc(s[v]) is the size of a point's first block, Theta(s[v], 0) = I
    by_rank: dict[int, list[int]] = {}
    for x, point_thetas in enumerate(thetas):
        by_rank.setdefault(point_thetas[0].shape[0], []).append(x)
    out = [0.0] * len(points)
    for rank, members in by_rank.items():
        if rank == 0:
            continue
        flat = [theta for x in members for theta in thetas[x]]  # rows (member, u)
        by_shape: dict[tuple[int, int], list[int]] = {}
        for row, theta in enumerate(flat):
            by_shape.setdefault(theta.shape, []).append(row)
        square = np.empty((len(flat), rank, rank), dtype=np.result_type(*{theta.dtype for theta in flat}))
        for rows in by_shape.values():
            theta = stack([flat[row] for row in rows])
            square[rows] = np.swapaxes(theta.conj(), 1, 2) @ theta
        square = square.reshape(len(members), size, rank, rank)
        total = np.zeros((len(members), rank, rank), dtype=square.dtype)
        for n, u in enumerate(subsets):
            total += ((-1) ** len(u)) * square[:, n]
        for x, vals in zip(members, np.linalg.eigvalsh(hermitize(total))):
            out[x] = float(vals.min())
    return out
