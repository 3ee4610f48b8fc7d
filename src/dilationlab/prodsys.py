"""Product systems over N^k presented by generator correspondences and flips.

Fibers X(s) are realized canonically as the reduced normal-ordered tensor
E_1^{(x) s_1} (x) ... (x) E_k^{(x) s_k}, and exist only in reduced
coordinates: a word is its reduced correspondence plus the surjection
(reduced prefix) (x) (raw last generator) -> reduced word. Only normal
(sorted) words are built. Multiplication isomorphisms are assembled from
these surjections by bubble-sorting adjacent transpositions through the
flips. Every map of the form A (x) I or I (x) A on the way (the peeled
surjection, the flip under a prefix, the shorter append map or
multiplication map, the split of the last letter) is applied to its
neighbour as a reshape and a matmul on the factors, never formed as a
Kronecker product. No raw Gram or raw action stack is formed: the flip
check compresses each flip onto the reduced pair words (i, j) and (j, i),
and the braid check compares the two reduced words of the longest
permutation of three letters through the multiplication isomorphisms.
Fibers and isomorphisms are memoized per word / pair, and a lattice
point's word data (its fiber, dimension and split of the last letter) per
point, so the T^ block loops look a point up without rebuilding its
normal word. The fibers of a list of points are built level by level (word
length), each level's words of one shape in one stacked interior tensor.
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

        self._words: dict[tuple[int, ...], _WordData] = {}
        self._points: dict[lattice.Point, _WordData] = {}
        self._appends: dict[tuple[tuple[int, ...], int], np.ndarray] = {}
        self._inverse_flips: dict[tuple[int, int], np.ndarray] = {}
        self._gram_pinvs: dict[tuple[lattice.Point, float], np.ndarray] = {}
        self._isos: dict[tuple[lattice.Point, lattice.Point], np.ndarray] = {}
        self.validation = self._validate()

    # -- construction-time validation --------------------------------------

    def _validate(self) -> dict[str, float]:
        report: dict[str, float] = {}
        for idx, gen in enumerate(self.generators, start=1):
            gen_report = validate_correspondence(gen)
            report.update({f"generator_{idx}.{k}": v for k, v in gen_report.items()})
            if not passes(gen_report, self.tol):
                bad = {k: v for k, v in gen_report.items() if v > self.tol}
                raise InvalidArgumentError(f"generator {idx} fails validation: {bad}")
        self._build_words(list(self.flips))
        swapped = interior_tensor([(self.generators[j - 1], self.generators[i - 1]) for i, j in self.flips], self.tol)
        for ((i, j), phi), word in zip(self.flips.items(), swapped):
            res = self._flip_residual(i, j, phi, word)
            report[f"flip_{i}_{j}"] = res
            if res > self.tol:
                raise InvalidFlipError(
                    f"flip {(i, j)} is not a correspondence isomorphism (residual {res:.3e})"
                )
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

    def _flip_residual(self, i: int, j: int, phi: np.ndarray, swapped) -> float:
        """Largest defect of phi: E_i (x) E_j -> E_j (x) E_i as an isomorphism
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
        action defects in the null directions of E_j (x) E_i, unseen here."""
        pair, (ji, q_ji) = self.word_data((i, j)), swapped
        ei, ej = self.generators[i - 1], self.generators[j - 1]
        mi, mj, p = ei.dim, ej.dim, pair.corr.dim
        if ji.dim != p:
            raise InvalidFlipError(
                f"flip {(i, j)} is not a correspondence isomorphism: its words have dimensions {p} and {ji.dim}"
            )
        # q = last_q (q_i (x) I), with q_i applied to the E_i slot
        q_i = self.word_data((i,)).last_q
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
        return max(gram, max_opnorm([*(q_ji @ left), *(q_ji @ right), null]))

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
        outer = self.mult_iso(lattice.add(e_l, e_j), e_i)  # columns (lj, i)
        p_out = outer.shape[0]
        # (U_{e_l,e_j} (x) I) acts on the lj slot
        outer = outer.reshape(p_out, p_lj, p_i).transpose(0, 2, 1).reshape(p_out * p_i, p_lj)
        route_a = (outer @ self.mult_iso(e_l, e_j)).reshape(p_out, p_i, p_l * p_j)
        route_a = route_a.transpose(0, 2, 1).reshape(p_out, p_l * p_j * p_i)
        # (I (x) U_{e_j,e_i}) acts on the ij slot
        inner = self.mult_iso(e_l, lattice.add(e_i, e_j)).reshape(p_out * p_l, p_ij)
        route_b = (inner @ self.mult_iso(e_j, e_i)).reshape(p_out, p_l * p_j * p_i)
        return opnorm(route_a - route_b)

    # -- word machinery -----------------------------------------------------

    def flip_for(self, a: int, b: int) -> np.ndarray:
        """Isomorphism E_a (x) E_b -> E_b (x) E_a in raw coordinates for
        a > b: the inverse of the stored flip (b, a), computed once.
        `_append_map` moves a letter left only past a larger one, so it asks
        for nothing else."""
        inv = self._inverse_flips.get((a, b))
        if inv is None:
            inv = self._inverse_flips[(a, b)] = np.linalg.pinv(self.flips[(b, a)])
        return inv

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

    def word_data(self, word: tuple[int, ...]) -> _WordData:
        cached = self._words.get(word)
        if cached is None:
            self._build_words([word])
            cached = self._words[word]
        return cached

    def build(self, points) -> None:
        """Word data of the normal words of the points and of their
        prefixes, as `_build_words` builds them."""
        self._build_words([self.normal_word(tuple(s)) for s in points])

    def _build_words(self, words) -> None:
        """Word data of the words and of their prefixes that are not built
        yet, level by level (word length): the words of one level take one
        interior_tensor."""
        levels: dict[int, set[tuple[int, ...]]] = {}
        for word in words:
            while word not in self._words and word not in levels.get(len(word), ()):
                levels.setdefault(len(word), set()).add(word)
                word = word[:-1]
        for level in sorted(levels):
            if level == 0:
                self._words[()] = _WordData(algebra_correspondence(self.algebra), None)
                continue
            if level == 1:
                for word in sorted(levels[1]):
                    self._words[word] = _WordData(*reduce_null(self.generators[word[0] - 1], self.tol))
                continue
            group = sorted(levels[level])
            pairs = [(self._words[word[:-1]].corr, self.generators[word[-1] - 1]) for word in group]
            for word, tensor in zip(group, interior_tensor(pairs, self.tol)):
                self._words[word] = _WordData(*tensor)

    @staticmethod
    def normal_word(s: lattice.Point) -> tuple[int, ...]:
        word: list[int] = []
        for idx, count in enumerate(s, start=1):
            word.extend([idx] * count)
        return tuple(word)

    def point_data(self, s: lattice.Point) -> _WordData:
        """word_data of the normal word of the point s, memoized per point."""
        data = self._points.get(s)
        if data is None:
            data = self._points[s] = self.word_data(self.normal_word(s))
        return data

    def fiber(self, s: lattice.Point) -> Correspondence:
        return self.point_data(s).corr

    def fiber_dim(self, s: lattice.Point) -> int:
        return self.point_data(s).corr.dim

    def _append_map(self, word: tuple[int, ...], i: int) -> np.ndarray:
        """Reduced map X(word) (x) E_i -> X(sorted(word + (i,))).

        Stays entirely in reduced coordinates: when the letter i has to move
        left past a larger letter j, the last tensor slot is peeled off with
        the word's quotient surjection, flipped, and the recursion continues
        on the shorter prefix.
        """
        word = tuple(word)
        key = (word, i)
        cached = self._appends.get(key)
        if cached is not None:
            return cached
        if not word or word[-1] <= i:
            out = self.word_data(word + (i,)).last_q
        else:
            prefix, j = word[:-1], word[-1]
            m_i = self.generators[i - 1].dim
            m_j = self.generators[j - 1].dim
            p_prefix = self.word_data(prefix).corr.dim if prefix else 1
            # (I_{p_prefix} (x) flip)(last_q^H (x) I_{m_i}), with rows split
            # as ((prefix, i), j) and columns (word, i)
            last_q = self.word_data(word).last_q
            p_word = last_q.shape[0]
            # contract the j slot of the peel with the j slot of the flip,
            # as [prefix, word] x [j] @ [j] x [(i, j), i] -> [prefix, word, (i, j), i]
            peel = last_q.conj().T.reshape(p_prefix, m_j, p_word).transpose(0, 2, 1)
            flip = self.flip_for(j, i).reshape(m_i * m_j, m_j, m_i).transpose(1, 0, 2)
            flipped = peel.reshape(p_prefix * p_word, m_j) @ flip.reshape(m_j, m_i * m_j * m_i)
            flipped = flipped.reshape(p_prefix, p_word, m_i * m_j, m_i).transpose(0, 2, 1, 3)
            cols = p_word * m_i
            flipped = flipped.reshape(p_prefix * m_i, m_j * cols)
            rejoin = self._append_map(tuple(sorted(prefix + (i,))), j)
            # (append(prefix, i) (x) I_{m_j}) acts on the (prefix, i) rows
            inner = (self._append_map(prefix, i) @ flipped).reshape(rejoin.shape[1], cols)
            out = rejoin @ inner
        self._appends[key] = out
        return out

    # -- multiplication isomorphisms ----------------------------------------

    def mult_iso(self, s: lattice.Point, t: lattice.Point) -> np.ndarray:
        """U_{s,t}: reduced fiber(s) (x) fiber(t) -> fiber(s+t), in coordinates:
        the map mu of the p_s * p_t tensor coordinates x (x) y onto X(s+t).

        mu vanishes on the null vectors of the interior tensor, so ``mu q^H``
        is the unitary U on the quotient coordinates of any surjection q with
        orthonormal rows (such as ``interior_tensor``'s), and ``pinv(mu)`` =
        ``q^H U^{-1}`` maps X(s+t) back to tensor coordinates: pinv(U q) =
        q^H pinv(U) because U is invertible and q a coisometry. For s = 0 or
        t = 0, mu is the left or right action map of A = X(0).
        """
        s = tuple(s)
        t = tuple(t)
        cached = self._isos.get((s, t))
        if cached is not None:
            return cached
        if lattice.is_zero(s):
            # left action of A = X(0) on the fiber
            ct = self.point_data(t).corr
            mu = np.transpose(ct.left_action, (1, 0, 2)).reshape(
                ct.dim, self.algebra.dim * ct.dim
            )
        elif lattice.is_zero(t):
            # right action of A = X(0) on the fiber
            cs = self.point_data(s).corr
            mu = np.transpose(cs.right_action, (1, 2, 0)).reshape(
                cs.dim, cs.dim * self.algebra.dim
            )
        else:
            i = max(lattice.support(t))
            t_prev = lattice.sub(t, lattice.unit(len(t), i))
            p_s = self.fiber_dim(s)
            split = self.point_data(t).last_q.conj().T  # (t_prev, i) <- t
            append = self._append_map(self.normal_word(lattice.add(s, t_prev)), i)
            p_out = append.shape[0]
            if not lattice.is_zero(t_prev):
                # append (mu_prev (x) I_{m_i}), with columns ordered (s, t_prev, i)
                mu_prev = self.mult_iso(s, t_prev)
                m_i = self.generators[i - 1].dim
                append = append.reshape(p_out, mu_prev.shape[0], m_i).transpose(0, 2, 1)
                append = append.reshape(p_out * m_i, mu_prev.shape[0]) @ mu_prev
                append = append.reshape(p_out, m_i, p_s, self.fiber_dim(t_prev)).transpose(0, 2, 3, 1)
            # (I_{p_s} (x) split) acts on the (t_prev, i) columns
            mu = append.reshape(p_out * p_s, split.shape[0]) @ split
            mu = mu.reshape(p_out, p_s * split.shape[1])
        self._isos[(s, t)] = mu
        return mu
