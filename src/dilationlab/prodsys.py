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

Fibers are built one word length at a time (`build`): the points of one
length take one interior_tensor. Append maps and multiplication
isomorphisms are built one key at a time and memoized; a miss builds the
missing shorter maps it is composed from in a loop, shortest first
(`missing`). Generators with equal arrays are validated and reduced as one.
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
            # maps after it in _append_map kill, and it factors through
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
        outer, lj, inner, ji = (
            self.mult_iso(*pair)
            for pair in ((lattice.add(e_l, e_j), e_i), (e_l, e_j), (e_l, lattice.add(e_i, e_j)), (e_j, e_i))
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
        """Word data of the points, and of their prefixes, that are not
        built yet, one word length at a time: the algebra at 0; a
        generator's null quotient at a letter, shared by the generators
        with equal arrays; and for the longer points of one length, one
        interior_tensor of their prefixes' fibers and last generators. A
        point whose length is not k raises InvalidArgumentError."""
        levels: dict[int, dict[lattice.Point, None]] = {}
        for s in points:
            for s in missing(self._points, tuple(s), self.prefix):
                levels.setdefault(sum(s), {})[s] = None
        for level in sorted(levels):
            group = list(levels[level])
            if level == 0:
                self._points[group[0]] = _WordData(algebra_correspondence(self.algebra), None)
            elif level == 1:
                for s in group:
                    first = self._first[lattice.last(s) - 1]
                    e_first = lattice.unit(self.k, first + 1)
                    if e_first not in self._points:
                        self._points[e_first] = _WordData(*reduce_null(self.generators[first], self.tol))
                    self._points[s] = self._points[e_first]
            else:
                pairs = [(self._points[self.prefix(s)].corr, self.generators[lattice.last(s) - 1]) for s in group]
                tensors = interior_tensor(pairs, self.tol)
                self._points.update((s, _WordData(*tensor)) for s, tensor in zip(group, tensors))

    def prefix(self, s: lattice.Point) -> lattice.Point | None:
        """The prefix of s, the point less the last letter of its normal
        word, from which the word data and t_raw at s are built; None for
        s = 0. A point whose length is not k raises InvalidArgumentError."""
        if len(s) != self.k:
            raise InvalidArgumentError(f"point {s} has length {len(s)}, expected k = {self.k}")
        i = lattice.last(s)
        return lattice.step(s, i, -1) if i else None

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

    def _append_map(self, m: lattice.Point, i: int) -> np.ndarray:
        """Reduced map A(m, i): X(m) (x) E_i -> X(m + e_i), m a point.

        With j the last letter of m's normal word, A(m, i) is the surjection
        last_q of m + e_i when j <= i. Otherwise the letter i moves left past
        j in reduced coordinates: with m' = m - e_j and the inverse flip
        L R: E_j (x) E_i -> X(e_i + e_j) -> E_i (x) E_j,

            A(m, i) = last_q(m + e_i) (A(m', i) (x) I_{m_j}) (I_{p_m'} (x) L) Y,
            Y = (I_{p_m'} (x) R) (last_q(m)^H (x) I_{m_i}),

        so nothing of size p_m' m_i m_j x p_m m_i is formed. A miss builds
        the missing maps of the chain A(m', i), ... shortest first.
        """
        cached = self._appends.get((m, i))
        if cached is not None:
            return cached
        for m, i in missing(self._appends, (m, i), self._append_back):
            j, out = lattice.last(m), lattice.step(m, i, 1)
            if j <= i:
                self._appends[(m, i)] = self.point_data(out).last_q
                continue
            prefix = lattice.step(m, j, -1)
            m_i, m_j = self.generators[i - 1].dim, self.generators[j - 1].dim
            left, right = self._inverse_flips[(j, i)]
            p_pair = right.shape[0]
            # a one-letter word's prefix is scalar
            p_prefix = self.fiber_dim(prefix) if any(prefix) else 1
            # Y: rows (m', m) of the peeled last_q(m)^H times R on its j slot
            # -> [(m', r), (m, i)]
            peel = self.point_data(m).last_q.conj()
            p_m = peel.shape[0]
            peel = peel.reshape(p_m, p_prefix, m_j).transpose(1, 0, 2).reshape(p_prefix * p_m, m_j)
            right = right.reshape(p_pair, m_j, m_i).transpose(1, 0, 2).reshape(m_j, p_pair * m_i)
            y = (peel @ right).reshape(p_prefix, p_m, p_pair, m_i).transpose(0, 2, 1, 3)
            # (A(m', i) (x) I_{m_j})(I (x) L): rows (mid, m') of A(m', i)
            # times L on its i slot -> [(mid, j), (m', r)]
            prev = self._appends[(prefix, i)]
            p_mid = prev.shape[0]
            z = prev.reshape(p_mid * p_prefix, m_i) @ left.reshape(m_i, m_j * p_pair)
            z = z.reshape(p_mid, p_prefix, m_j, p_pair).transpose(0, 2, 1, 3)
            # the last_q that appends j to m' + e_i
            rejoin = self.point_data(out).last_q @ z.reshape(p_mid * m_j, p_prefix * p_pair)
            self._appends[(m, i)] = rejoin @ y.reshape(p_prefix * p_pair, p_m * m_i)
        return self._appends[(m, i)]

    @staticmethod
    def _append_back(key):
        """The key (m', i) that A(m, i) is built from, None when j <= i."""
        m, i = key
        j = lattice.last(m)
        return (lattice.step(m, j, -1), i) if j > i else None

    # -- multiplication isomorphisms ----------------------------------------

    def mult_iso(self, s: lattice.Point, t: lattice.Point) -> np.ndarray:
        """U_{s,t}: reduced fiber(s) (x) fiber(t) -> fiber(s+t), in coordinates:
        the map mu of the p_s * p_t tensor coordinates x (x) y onto X(s+t).
        For the last letter i of t and t' = t - e_i,

            U_{s,t} = A(s + t', i) (U_{s,t'} (x) I_{m_i}) (I_{p_s} (x) last_q(t)^H),

        with A the append maps of `_append_map` and U_{s,0} (x) I_{m_i} read
        as the identity. A miss builds the missing maps of the chain
        U_{s,t'}, ... shortest first. A point whose length is not k raises
        InvalidArgumentError.

        mu vanishes on the null vectors of the interior tensor, so ``mu q^H``
        is the unitary U on the quotient coordinates of any surjection q with
        orthonormal rows (such as ``interior_tensor``'s), and ``pinv(mu)`` =
        ``q^H U^{-1}`` maps X(s+t) back to tensor coordinates: pinv(U q) =
        q^H pinv(U) because U is invertible and q a coisometry. For s = 0 or
        t = 0, mu is the left or right action map of A = X(0).
        """
        key = (tuple(s), tuple(t))
        cached = self._isos.get(key)
        if cached is not None:
            return cached
        self.build(key)
        for s, t in missing(self._isos, key, self._iso_back):
            if not any(s):  # left action of A = X(0) on the fiber
                ct = self.fiber(t)
                mu = np.transpose(ct.left_action, (1, 0, 2)).reshape(ct.dim, self.algebra.dim * ct.dim)
            elif not any(t):  # right action of A = X(0) on the fiber
                cs = self.fiber(s)
                mu = np.transpose(cs.right_action, (1, 2, 0)).reshape(cs.dim, cs.dim * self.algebra.dim)
            else:
                i = lattice.last(t)
                prev = lattice.step(t, i, -1)
                m_i, p_s = self.generators[i - 1].dim, self.fiber_dim(s)
                # t' = 0 has a scalar fiber slot
                p_prev = self.fiber_dim(prev) if any(prev) else 1
                append = self._append_map(lattice.add(s, prev), i)
                p_out, p_mid = append.shape[0], append.shape[1] // m_i
                # (U_{s,t'} (x) I_{m_i}) on the (s + t') slot: [(out, i), (s, t')]
                mu = append.reshape(p_out, p_mid, m_i).transpose(0, 2, 1).reshape(p_out * m_i, p_mid)
                if any(prev):
                    mu = mu @ self._isos[(s, prev)]
                mu = mu.reshape(p_out, m_i, p_s, p_prev).transpose(0, 2, 3, 1)
                # (I_{p_s} (x) last_q(t)^H) on the (t', i) columns
                split = self.point_data(t).last_q.conj().T
                mu = (mu.reshape(p_out * p_s, p_prev * m_i) @ split).reshape(p_out, p_s * split.shape[1])
            self._isos[(s, t)] = mu
        return self._isos[key]

    @staticmethod
    def _iso_back(pair):
        """The pair (s, t') that U_{s,t} is built from, None for an action
        map or t' = 0."""
        s, t = pair
        return (s, lattice.step(t, lattice.last(t), -1)) if any(s) and sum(t) > 1 else None


def missing(cache: dict, key, back) -> list:
    """The keys that building `key` needs and `cache` lacks, shortest
    first, `key` last: back(key) is the key that key is built from, None
    when it needs none. The walk back is a loop, so a long chain takes no
    recursion."""
    keys = []
    while key is not None and key not in cache:
        keys.append(key)
        key = back(key)
    return keys[::-1]


def _equal(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and np.array_equal(x, y)


def _equal_arrays(a: Correspondence, b: Correspondence) -> bool:
    return all(
        _equal(x, y) for x, y in ((a.gram, b.gram), (a.right_action, b.right_action), (a.left_action, b.left_action))
    )
