"""Product systems over N^k presented by generator correspondences and flips.

Fibers X(s) are realized canonically as the reduced normal-ordered tensor
E_1^{(x) s_1} (x) ... (x) E_k^{(x) s_k}, and exist only in reduced
coordinates: the fiber at s is its reduced correspondence plus the
surjection (reduced prefix) (x) (raw last generator) -> reduced fiber, the
prefix being the fiber at s less its last letter. Fibers are keyed by their
points, so only normal (sorted) words are built. Multiplication
isomorphisms are assembled from these surjections by bubble-sorting
adjacent transpositions through the flips. Every map of the form A (x) I or
I (x) A on the way (the peeled surjection, the flip under a prefix, the
shorter append map or multiplication map, the split of the last letter) is
applied to its neighbour as a reshape and a matmul on the factors, never
formed as a Kronecker product. No raw Gram or raw action stack is formed:
the flip check compresses each flip onto the reduced pair words (i, j) and
(j, i), and the braid check compares the two reduced words of the longest
permutation of three letters through the multiplication isomorphisms.

Fibers, append maps and multiplication isomorphisms are built level by
level (word length), for a list of points, keys or pairs at once
(`plan_levels`, `fill_levels`): the entries of one level and shape take one
GEMM or one stacked matmul per factor, and are memoized per point, key or
pair. Generators with equal arrays are validated and reduced as one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice
from .correspondence import (
    Correspondence,
    algebra_correspondence,
    congruent_gram,
    interior_tensor,
    passes,
    reduce_null,
    validate_correspondence,
)
from .cstar import CStarAlgebra
from .errors import IncoherentFlipsError, InvalidArgumentError, InvalidFlipError
from .linalg import DEFAULT_TOL, as_data, hermitize, max_opnorm, opnorm


@dataclass
class _WordData:
    corr: Correspondence
    # (reduced prefix) (x) (raw last generator) -> reduced word, p_prefix *
    # m_last columns; for one letter the prefix is scalar, so this is the
    # generator's null-quotient surjection. None for the empty word.
    last_q: np.ndarray | None


class ProductSystem:
    def __init__(self, algebra: CStarAlgebra, generators, flips=None, tol: float = DEFAULT_TOL):
        self.algebra = algebra
        self.generators: tuple[Correspondence, ...] = tuple(generators)
        self.k = len(self.generators)
        if self.k == 0:
            raise InvalidArgumentError("a product system needs at least one generator")
        for idx, gen in enumerate(self.generators, start=1):
            if gen.algebra != algebra:
                raise InvalidArgumentError(f"generator {idx} lives over a different algebra")
        self.tol = tol
        self.flips: dict[tuple[int, int], np.ndarray] = {}
        flips = flips or {}
        for (i, j), mat in flips.items():
            if not (1 <= i < j <= self.k):
                raise InvalidArgumentError(f"flip key {(i, j)} must satisfy 1 <= i < j <= k")
            mi = self.generators[i - 1].dim
            mj = self.generators[j - 1].dim
            mat = as_data(mat)
            if mat.shape != (mj * mi, mi * mj):
                raise InvalidArgumentError(
                    f"flip {(i, j)} has shape {mat.shape}, expected {(mj * mi, mi * mj)}"
                )
            self.flips[(i, j)] = mat
        for i in range(1, self.k + 1):
            for j in range(i + 1, self.k + 1):
                if (i, j) not in self.flips:
                    raise InvalidArgumentError(f"missing flip for generator pair {(i, j)}")

        self._points: dict[lattice.Point, _WordData] = {}
        self._appends: dict[tuple[lattice.Point, int], np.ndarray] = {}
        # (j, i) -> the factors (L, R) of the inverse flip L R
        self._inverse_flips: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._gram_pinvs: dict[tuple[lattice.Point, float], np.ndarray] = {}
        self._isos: dict[tuple[lattice.Point, lattice.Point], np.ndarray] = {}
        self.validation = self._validate()

    # -- construction-time validation --------------------------------------

    def _validate(self) -> dict[str, float]:
        report: dict[str, float] = {}
        # per generator, the index of the first generator with equal arrays,
        # whose residuals and null quotient it shares
        self._first: list[int] = []
        reports: dict[int, dict[str, float]] = {}
        for idx, gen in enumerate(self.generators):
            first = next(x for x in range(idx + 1) if _equal_arrays(self.generators[x], gen))
            self._first.append(first)
            if first not in reports:
                reports[first] = validate_correspondence(gen)
            gen_report = reports[first]
            report.update({f"generator_{idx + 1}.{k}": v for k, v in gen_report.items()})
            if not passes(gen_report, self.tol):
                bad = {k: v for k, v in gen_report.items() if v > self.tol}
                raise InvalidArgumentError(f"generator {idx + 1} fails validation: {bad}")
        self.build([lattice.add(lattice.unit(self.k, i), lattice.unit(self.k, j)) for i, j in self.flips])
        swapped = interior_tensor([(self.generators[j - 1], self.generators[i - 1]) for i, j in self.flips], self.tol)
        for ((i, j), phi), (word, q_ji) in zip(self.flips.items(), swapped):
            res, q_ij, f = self._flip_residual(i, j, phi, (word, q_ji))
            report[f"flip_{i}_{j}"] = res
            if res > self.tol:
                raise InvalidFlipError(
                    f"flip {(i, j)} is not a correspondence isomorphism (residual {res:.3e})"
                )
            # E_j (x) E_i -> E_i (x) E_j through the reduced pair words, as
            # q^H F^{-1} q': it inverts phi up to null vectors, which the
            # maps after it in _append_maps kill, and it factors through
            # X(e_i + e_j), whose dimension is at most m_i m_j. F is
            # invertible once the residual above passes.
            self._inverse_flips[(j, i)] = (q_ij.conj().T, np.linalg.solve(f, q_ji))
        for i in range(1, self.k + 1):
            for j in range(i + 1, self.k + 1):
                for l in range(j + 1, self.k + 1):
                    res = self._braid_residual(i, j, l)
                    report[f"braid_{i}_{j}_{l}"] = res
                    if res > self.tol:
                        raise IncoherentFlipsError(
                            f"braid check failed for triple {(i, j, l)} (residual {res:.3e})"
                        )
        return report

    def _flip_residual(self, i: int, j: int, phi: np.ndarray, swapped) -> tuple[float, np.ndarray, np.ndarray]:
        """Largest defect r of phi: E_i (x) E_j -> E_j (x) E_i as an isomorphism
        of the balanced tensor products, read on the words (i, j) and (j, i)
        (`swapped`, from interior_tensor) with surjections q, q' and
        F = q' phi q^H: max|F^H G'_p F - G_p|, the norms of the compressed
        action defects q' (phi A_p - A'_p phi) q^H, and ||T' N|| for
        N = q' phi - F q and the trace Gram T' = sum_p tr(f_p) G'_p (phi maps
        null vectors to null vectors). Unlike F A^_p - A^'_p F and ||N||, these
        do not amplify the rounding of the two null splits. Words of different
        dimensions raise InvalidFlipError. With exact splits, this r and the
        raw-Gram residual R (tests/oracles.py::flip_residual_dense) satisfy
        r <= M R + (t c M R)^(1/2) and R <= max(p + (2||F|| + r/tau) g/tau,
        1 + 2a/tau) r + nu: M = m_i m_j, c = sum_p |tr f_p|, t and tau the
        largest and least eigenvalues of T', p = dim X(e_i + e_j),
        g = max_p ||G'_p||, a the largest norm of a raw action and nu the raw
        action defects in the null directions of E_j (x) E_i, unseen here.
        Returns (r, q, F), from which _validate takes the inverse flip."""
        e_i, e_j = lattice.unit(self.k, i), lattice.unit(self.k, j)
        pair, (ji, q_ji) = self.point_data(lattice.add(e_i, e_j)), swapped
        ei, ej = self.generators[i - 1], self.generators[j - 1]
        mi, mj, p = ei.dim, ej.dim, pair.corr.dim
        if ji.dim != p:
            raise InvalidFlipError(
                f"flip {(i, j)} is not a correspondence isomorphism: its words have dimensions {p} and {ji.dim}"
            )
        # q = last_q (q_i (x) I), with q_i applied to the E_i slot
        q_i = self.point_data(e_i).last_q
        q_ij = (q_i.T @ pair.last_q.reshape(p, q_i.shape[0], mj)).reshape(q_ji.shape)
        lift = q_ij.conj().T.reshape(mi, mj, p)
        image = (phi @ lift.reshape(mi * mj, p)).reshape(mj, mi, p)  # phi q^H
        f = q_ji @ image.reshape(mj * mi, p)
        gram = float(np.abs(congruent_gram(ji.gram, f) - pair.corr.gram).max(initial=0.0))
        # phi A_p - A'_p phi applied to q^H, each action on its own slot
        shape = (self.algebra.dim, mj * mi, p)
        left = phi @ (ei.left_action @ lift.reshape(mi, mj * p)).reshape(shape)
        left -= (ej.left_action @ image.reshape(mj, mi * p)).reshape(shape)
        right = phi @ (ej.right_action[:, None] @ lift).reshape(shape)
        right -= (ei.right_action[:, None] @ image).reshape(shape)
        null = (ji.gram @ np.trace(self.algebra.basis_mats, axis1=1, axis2=2)) @ (q_ji @ phi - f @ q_ij)
        return max(gram, max_opnorm([*(q_ji @ left), *(q_ji @ right), null])), q_ij, f

    def _braid_residual(self, i: int, j: int, l: int) -> float:
        """Operator norm, on X(e_l) (x) X(e_j) (x) X(e_i) for i < j < l, of

            U_{e_l+e_j, e_i}(U_{e_l,e_j} (x) I) - U_{e_l, e_i+e_j}(I (x) U_{e_j,e_i}).

        The two routes sort the letters (l, j, i) along the two reduced words
        of the longest permutation of three letters, so they agree exactly
        when the flips braid on the reduced words."""
        e_i, e_j, e_l = (lattice.unit(self.k, x) for x in (i, j, l))
        p_i, p_j, p_l = (self.fiber_dim(e) for e in (e_i, e_j, e_l))
        p_lj = self.fiber_dim(lattice.add(e_l, e_j))
        p_ij = self.fiber_dim(lattice.add(e_i, e_j))
        outer, lj, inner, ji = self.mult_isos(
            [(lattice.add(e_l, e_j), e_i), (e_l, e_j), (e_l, lattice.add(e_i, e_j)), (e_j, e_i)]
        )
        p_out = outer.shape[0]  # columns (lj, i)
        # (U_{e_l,e_j} (x) I) acts on the lj slot
        outer = outer.reshape(p_out, p_lj, p_i).transpose(0, 2, 1).reshape(p_out * p_i, p_lj)
        route_a = (outer @ lj).reshape(p_out, p_i, p_l * p_j)
        route_a = route_a.transpose(0, 2, 1).reshape(p_out, p_l * p_j * p_i)
        # (I (x) U_{e_j,e_i}) acts on the ij slot
        route_b = (inner.reshape(p_out * p_l, p_ij) @ ji).reshape(p_out, p_l * p_j * p_i)
        return opnorm(route_a - route_b)

    # -- word machinery -----------------------------------------------------

    def gram_pinv(self, s: lattice.Point, tol: float) -> np.ndarray:
        """Coordinates, shape (p_s, p_s, dim A), of the Moore-Penrose inverse
        of the fiber Gram at s as an element of M_{p_s}(A), computed once
        per (s, tol). It is taken in A's faithful representation, where the
        inverse of an element lies in the algebra; eigenvalues at most tol
        are null, as localize takes them."""
        key = (tuple(s), tol)
        inv = self._gram_pinvs.get(key)
        if inv is None:
            p, n = self.fiber_dim(s), self.algebra.rep_dim
            vals, vecs = np.linalg.eigh(hermitize(self.fiber(s).gram_embedded()))
            keep = vals > tol
            inv = ((vecs[:, keep] / vals[keep]) @ vecs[:, keep].conj().T).reshape(p, n, p, n)
            rows, cols = self.algebra._rows, self.algebra._cols
            inv = self._gram_pinvs[key] = inv.transpose(0, 2, 1, 3)[..., rows, cols]
        return inv

    def build(self, points) -> None:
        """Word data of the normal words of the points, and of their
        prefixes (the point less its last letter), that are not built yet,
        level by level (|s|): the points of one level take one
        interior_tensor."""
        levels = plan_levels(map(tuple, points), self._points, point_back)
        fill_levels(self._points, levels, lambda s, _plan: min(sum(s), 2), self._point_group)

    def _point_group(self, kind: int, group) -> list[_WordData]:
        """Word data of the points of one level: the algebra for s = 0
        (kind 0); a generator's null quotient for a letter (kind 1), shared
        by the generators with equal arrays; the interior tensor of the
        prefix's fiber and the last generator (kind 2)."""
        if kind == 0:
            return [_WordData(algebra_correspondence(self.algebra), None)]
        if kind == 1:
            firsts = [lattice.unit(self.k, self._first[i - 1] + 1) for _s, (i, _prev) in group]
            for first in firsts:
                if first not in self._points:
                    self._points[first] = _WordData(*reduce_null(self.generators[lattice.last(first) - 1], self.tol))
            return [self._points[first] for first in firsts]
        pairs = [(self._points[prev].corr, self.generators[i - 1]) for _s, (i, prev) in group]
        return [_WordData(*tensor) for tensor in interior_tensor(pairs, self.tol)]

    def point_data(self, s: lattice.Point) -> _WordData:
        """Word data of the normal word of the point s, built on first use."""
        data = self._points.get(s)
        if data is None:
            self.build([s])
            data = self._points[s]
        return data

    def fiber(self, s: lattice.Point) -> Correspondence:
        return self.point_data(s).corr

    def fiber_dim(self, s: lattice.Point) -> int:
        return self.point_data(s).corr.dim

    def _append_maps(self, keys) -> list[np.ndarray]:
        """Reduced maps A(m, i): X(m) (x) E_i -> X(m + e_i) of the keys
        (m, i), m a point.

        With j the last letter of m's normal word, A(m, i) is the surjection
        last_q of m + e_i when j <= i. Otherwise the letter i moves left past
        j in reduced coordinates: with m' = m - e_j and the inverse flip
        L R: E_j (x) E_i -> X(e_i + e_j) -> E_i (x) E_j,

            A(m, i) = last_q(m + e_i) (A(m', i) (x) I_{m_j}) (I_{p_m'} (x) L) Y,
            Y = (I_{p_m'} (x) R) (last_q(m)^H (x) I_{m_i}),

        so nothing of size p_m' m_i m_j x p_m m_i is formed. The keys not
        cached yet, and the shorter keys they need, are built level by
        level (|m|). The keys of one level and shape, whatever their
        letters, take one stacked matmul per factor.
        """
        levels = plan_levels(keys, self._appends, self._append_back)
        if levels:
            self.build([p for level in levels.values() for (m, _i), (*_, out) in level.items() for p in (m, out)])
            fill_levels(self._appends, levels, self._append_shape, self._append_group)
        return [self._appends[key] for key in keys]

    @staticmethod
    def _append_back(key):
        """Level |m| of the key (m, i), the key (m', i) A(m, i) is built
        from (None when j <= i) and the plan (j or 0 when j <= i, m', m + e_i)."""
        m, i = key
        j, out = lattice.last(m), lattice.step(m, i, 1)
        if j <= i:
            return sum(m), None, (0, None, out)
        prefix = lattice.step(m, j, -1)
        return sum(m), (prefix, i), (j, prefix, out)

    def _append_shape(self, key, plan) -> tuple[int, ...]:
        (m, i), (j, prefix, out) = key, plan
        if not j:
            return ()
        dim, m_i, m_j = self._points, self.generators[i - 1].dim, self.generators[j - 1].dim
        # a one-letter word's prefix is scalar
        p_prefix = dim[prefix].corr.dim if any(prefix) else 1
        shape = (m_i, m_j, self._inverse_flips[(j, i)][1].shape[0], p_prefix, dim[m].corr.dim)
        return shape + (dim[lattice.step(prefix, i, 1)].corr.dim, dim[out].corr.dim)

    def _append_group(self, shape, group) -> list[np.ndarray] | np.ndarray:
        points, c = self._points, len(group)
        if not shape:  # no flip: the surjection last_q of m + e_i
            return [points[out].last_q for _key, (*_, out) in group]
        m_i, m_j, p_pair, p_prefix, p_m, p_mid, _p_out = shape
        flips = [self._inverse_flips[(j, i)] for (_m, i), (j, _prefix, _out) in group]
        # Y: rows (m', m) of the peeled last_q(m)^H times R on its j slot
        # -> [x, (m', r), (m, i)]
        peel = np.array([points[m].last_q for (m, _i), _plan in group]).conj()
        peel = peel.reshape(c, p_m, p_prefix, m_j).transpose(0, 2, 1, 3).reshape(c, p_prefix * p_m, m_j)
        right = np.array([flip[1] for flip in flips]).reshape(c, p_pair, m_j, m_i)
        right = right.transpose(0, 2, 1, 3).reshape(c, m_j, p_pair * m_i)
        y = (peel @ right).reshape(c, p_prefix, p_m, p_pair, m_i).transpose(0, 1, 3, 2, 4)
        # (A(m', i) (x) I_{m_j})(I (x) L): rows (mid, m') of A(m', i) times L
        # on its i slot -> [x, (mid, j), (m', r)]
        prev = np.array([self._appends[(prefix, i)] for (_m, i), (_j, prefix, _out) in group])
        left = np.array([flip[0] for flip in flips]).reshape(c, m_i, m_j * p_pair)
        z = (prev.reshape(c, p_mid * p_prefix, m_i) @ left).reshape(c, p_mid, p_prefix, m_j, p_pair)
        z = z.transpose(0, 1, 3, 2, 4)
        # the last_q that appends j to m' + e_i
        rejoin = np.array([points[out].last_q for _key, (*_, out) in group])
        rejoin = rejoin @ z.reshape(c, p_mid * m_j, p_prefix * p_pair)
        return rejoin @ y.reshape(c, p_prefix * p_pair, p_m * m_i)

    # -- multiplication isomorphisms ----------------------------------------

    def mult_iso(self, s: lattice.Point, t: lattice.Point) -> np.ndarray:
        """U_{s,t}: reduced fiber(s) (x) fiber(t) -> fiber(s+t), in coordinates:
        the map mu of the p_s * p_t tensor coordinates x (x) y onto X(s+t),
        looked up in the cache that `mult_isos` fills.

        mu vanishes on the null vectors of the interior tensor, so ``mu q^H``
        is the unitary U on the quotient coordinates of any surjection q with
        orthonormal rows (such as ``interior_tensor``'s), and ``pinv(mu)`` =
        ``q^H U^{-1}`` maps X(s+t) back to tensor coordinates: pinv(U q) =
        q^H pinv(U) because U is invertible and q a coisometry. For s = 0 or
        t = 0, mu is the left or right action map of A = X(0).
        """
        cached = self._isos.get((tuple(s), tuple(t)))
        if cached is None:
            [cached] = self.mult_isos([(s, t)])
        return cached

    def mult_isos(self, pairs) -> list[np.ndarray]:
        """mult_iso of each pair (s, t). The pairs not cached yet, and the
        shorter pairs they are composed from, are built level by level
        (|t|): for the last letter i of t and t' = t - e_i,

            U_{s,t} = A(s + t', i) (U_{s,t'} (x) I_{m_i}) (I_{p_s} (x) last_q(t)^H),

        with A the append maps of `_append_maps` and U_{s,0} (x) I_{m_i}
        read as the identity. The pairs of one level and shape take one
        stacked matmul per factor.
        """
        pairs = [(tuple(s), tuple(t)) for s, t in pairs]
        levels = plan_levels(pairs, self._isos, self._iso_back)
        if levels:
            entries = [(s, t, *plan) for level in levels.values() for (s, t), plan in level.items()]
            self.build([p for s, t, *_plan in entries for p in (s, t)])
            self._append_maps([(mid, i) for _s, _t, i, _prev, mid in entries if i])
            fill_levels(self._isos, levels, self._iso_shape, self._iso_group)
        return [self._isos[pair] for pair in pairs]

    @staticmethod
    def _iso_back(pair):
        """Level |t| of the pair (s, t), the pair (s, t') U_{s,t} is built
        from (None for t' = 0 or an action map) and the plan (i, t',
        s + t'), with i = 0 for an action map."""
        s, t = pair
        i = lattice.last(t) if any(s) else 0
        if not i:
            return sum(t), None, (0, t, s)
        prev = lattice.step(t, i, -1)
        return sum(t), ((s, prev) if any(prev) else None), (i, prev, lattice.add(s, prev))

    def _iso_shape(self, pair, plan) -> tuple:
        (s, t), (i, prev, mid) = pair, plan
        if not any(s):
            return ("left",)
        if not i:
            return ("right",)
        dim = self._points
        # t' = 0 has a scalar fiber slot
        p_prev = dim[prev].corr.dim if any(prev) else 1
        shape = (any(prev), self.generators[i - 1].dim, dim[s].corr.dim, p_prev, dim[t].corr.dim)
        return shape + (dim[mid].corr.dim, self._appends[(mid, i)].shape[0])

    def _iso_group(self, shape, group) -> list[np.ndarray] | np.ndarray:
        points, c, adim = self._points, len(group), self.algebra.dim
        if shape == ("left",):  # left action of A = X(0) on the fiber
            cts = [points[t].corr for (_s, t), _plan in group]
            return [np.transpose(ct.left_action, (1, 0, 2)).reshape(ct.dim, adim * ct.dim) for ct in cts]
        if shape == ("right",):  # right action of A = X(0) on the fiber
            css = [points[s].corr for (s, _t), _plan in group]
            return [np.transpose(cs.right_action, (1, 2, 0)).reshape(cs.dim, cs.dim * adim) for cs in css]
        has_prev, m_i, p_s, p_prev, p_t, p_mid, p_out = shape
        append = np.array([self._appends[(mid, i)] for _pair, (i, _prev, mid) in group])
        # (U_{s,t'} (x) I_{m_i}) on the (s + t') slot: [x, (out, i), (s, t')]
        mu = append.reshape(c, p_out, p_mid, m_i).transpose(0, 1, 3, 2).reshape(c, p_out * m_i, p_mid)
        if has_prev:
            mu = mu @ np.array([self._isos[(s, prev)] for (s, _t), (_i, prev, _mid) in group])
        mu = mu.reshape(c, p_out, m_i, p_s, p_prev).transpose(0, 1, 3, 4, 2)
        # (I_{p_s} (x) last_q(t)^H) on the (t', i) columns
        split = np.array([points[t].last_q for (_s, t), _plan in group]).conj().transpose(0, 2, 1)
        return (mu.reshape(c, p_out * p_s, p_prev * m_i) @ split).reshape(c, p_out, p_s * p_t)


def point_back(s: lattice.Point):
    """Level |s| of the point s, the point prev = s - e_i that an entry at
    s is built from for the last letter i of s, and the plan (i, prev);
    i = 0, and nothing to build from, for s = 0."""
    i = lattice.last(s)
    if not i:
        return 0, None, (0, s)
    prev = lattice.step(s, i, -1)
    return sum(s), prev, (i, prev)


def plan_levels(keys, cache: dict, back) -> dict[int, dict]:
    """The keys not in `cache` and the entries they are built from, by
    level: back(key) gives the key's level, the key it is built from (None
    when it needs none) and its plan, what building it needs. Walking back
    stops at a cached or already planned key. Returns {level: {key: plan}}."""
    levels: dict[int, dict] = {}
    for key in keys:
        while key is not None and key not in cache:
            level, prev, plan = back(key)
            planned = levels.setdefault(level, {})
            if key in planned:
                break
            planned[key] = plan
            key = prev
    return levels


def fill_levels(cache: dict, levels: dict[int, dict], shape_of, build_group) -> None:
    """Fill `cache` with the planned entries, lowest level first, so an
    entry finds the shorter ones it is built from: the entries of one level
    are grouped by shape_of(key, plan), and build_group(shape, group) gives
    the values of a group's (key, plan) entries in their order, one stack
    or a list."""
    for level in sorted(levels):
        groups: dict = {}
        for key, plan in levels[level].items():
            groups.setdefault(shape_of(key, plan), []).append((key, plan))
        for shape, group in groups.items():
            cache.update(zip((key for key, _plan in group), build_group(shape, group)))


def _equal(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and np.array_equal(x, y)


def _equal_arrays(a: Correspondence, b: Correspondence) -> bool:
    return all(
        _equal(x, y) for x, y in ((a.gram, b.gram), (a.right_action, b.right_action), (a.left_action, b.left_action))
    )
