"""Finite-dimensional Hilbert C*-correspondences and their quotients.

A correspondence over an algebra A is presented by an abstract basis
e_1..e_m, an A-valued Gram matrix, and right/left action matrices per
algebra basis element. Inner products are linear in the second variable.

Two kinds of quotient appear:

* module-level null quotients (``reduce_null``, ``interior_tensor``), taken
  against the trace of the embedded Gram, which vanishes exactly on null
  vectors of the A-valued semi-inner product. A quotient basis is a set of
  kept eigenvectors, fixed only up to phases (and rotations within repeated
  eigenvalues), so coordinates on one quotient must all come from one
  surjection;
* Hilbert-space localizations E (x)_sigma H (``localize``), whose quotient
  coordinates carry the standard inner product via a rank-revealing factor.

``interior_tensor``, ``localize`` and ``descend_map`` take lists of
operands and fold those of one shape into the rows of one GEMM, or into one
stacked matmul where each operand has its own factor. Their results agree
with a one-by-one computation up to rounding, not bit for bit: a GEMM over
more rows may sum in another order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cstar import CStarAlgebra
from .errors import InvalidArgumentError, NotWellDefinedError
from .linalg import (
    DEFAULT_TOL,
    as_data,
    descent_error,
    hermitize,
    max_opnorm,
    null_split,
    opnorm,
    psd_factor,
)


class Correspondence:
    def __init__(self, algebra: CStarAlgebra, gram, right_action, left_action):
        gram = as_data(gram)
        right_action = as_data(right_action)
        left_action = as_data(left_action)
        if gram.ndim != 3 or gram.shape[0] != gram.shape[1] or gram.shape[2] != algebra.dim:
            raise InvalidArgumentError(f"gram shape {gram.shape} invalid")
        m = gram.shape[0]
        if right_action.shape != (algebra.dim, m, m):
            raise InvalidArgumentError(f"right_action shape {right_action.shape} invalid")
        if left_action.shape != (algebra.dim, m, m):
            raise InvalidArgumentError(f"left_action shape {left_action.shape} invalid")
        self.algebra = algebra
        self.dim = m
        self.gram = gram
        self.right_action = right_action
        self.left_action = left_action

    # -- derived matrices -------------------------------------------------

    def gram_embedded(self) -> np.ndarray:
        """(m n) x (m n) block matrix [embed(<e_i, e_j>)]."""
        n = self.algebra.rep_dim
        blocks = np.einsum("ijp,pkl->ikjl", self.gram, self.algebra.basis_mats)
        return blocks.reshape(self.dim * n, self.dim * n)

    def act_left(self, a_coords: np.ndarray) -> np.ndarray:
        """Coordinate matrix of x -> a . x."""
        return np.tensordot(a_coords, self.left_action, axes=(0, 0))

    def act_right(self, a_coords: np.ndarray) -> np.ndarray:
        """Coordinate matrix of x -> x . a."""
        return np.tensordot(a_coords, self.right_action, axes=(0, 0))

    def __repr__(self):
        return f"Correspondence(dim={self.dim}, algebra={self.algebra!r})"


@dataclass(frozen=True)
class LocalizedSpace:
    """Quotient of a semi-inner-product raw space onto standard C^rank."""

    source_dim: int
    rank: int
    factor: np.ndarray = field(compare=False)  # (rank, source_dim), F^H F = Gram
    lift: np.ndarray = field(compare=False)  # (source_dim, rank), F @ lift = I


# -- constructors ----------------------------------------------------------


def trivial_correspondence(algebra: CStarAlgebra, m: int) -> Correspondence:
    """C^m with identity Gram over the scalars (requires algebra = C)."""
    if algebra.block_sizes != (1,):
        raise InvalidArgumentError("trivial correspondence needs the scalar algebra")
    eye = np.eye(m)[None, :, :]
    gram = np.eye(m)[:, :, None]
    return Correspondence(algebra, gram, eye, eye)


def algebra_correspondence(algebra: CStarAlgebra) -> Correspondence:
    """The algebra as a correspondence over itself: <a, b> = a* b."""
    dim = algebra.dim
    mul_table = algebra.mul_table
    adj = algebra.adj_table
    # <f_p, f_q> = f_p^* f_q
    gram = np.einsum("pr,rqs->pqs", adj, mul_table)
    # x . f_p : coords of f_q f_p in slot [r, q]
    right = np.transpose(mul_table, (1, 2, 0))  # right[p, r, q] = (f_q f_p)_r
    left = np.transpose(mul_table, (0, 2, 1))  # left[p, r, q] = (f_p f_q)_r
    return Correspondence(algebra, gram, right, left)


# -- validation ------------------------------------------------------------


def validate_correspondence(corr: Correspondence) -> dict[str, float]:
    """Named residuals for the correspondence axioms; `passes` at tol iff all
    <= tol. Each identity is formed on all basis indices at once, its
    contractions as 2-D GEMMs."""
    alg = corr.algebra
    m, adim, n = corr.dim, alg.dim, alg.rep_dim
    basis = alg.basis_mats
    # embed(<e_i, e_j>) as [i, j, s, t]
    gram_mats = (corr.gram.reshape(m * m, adim) @ basis.reshape(adim, n * n)).reshape(m, m, n, n)

    res: dict[str, float] = {}
    res["gram_hermitian"] = float(
        np.abs(np.conj(np.transpose(gram_mats, (0, 1, 3, 2))) - np.transpose(gram_mats, (1, 0, 2, 3))).max()
    )
    emb = gram_mats.transpose(0, 2, 1, 3).reshape(m * n, m * n)
    res["gram_psd"] = max(0.0, -float(np.linalg.eigvalsh(hermitize(emb)).min()))

    res["right_unital"] = opnorm(corr.act_right(alg.unit) - np.eye(m))
    res["left_unital"] = opnorm(corr.act_left(alg.unit) - np.eye(m))

    # f_p f_q acts on the right as right(f_q) right(f_p), on the left as left(f_p) left(f_q)
    mul_table = alg.mul_table
    right, left = corr.right_action, corr.left_action
    combo_r = np.tensordot(mul_table, right, axes=(2, 0)) - right[None, :] @ right[:, None]
    combo_l = np.tensordot(mul_table, left, axes=(2, 0)) - left[:, None] @ left[None, :]
    res["right_homomorphism"] = max_opnorm(combo_r.reshape(adim**2, m, m))
    res["left_homomorphism"] = max_opnorm(combo_l.reshape(adim**2, m, m))

    # <e_i, e_j . f_p> = <e_i, e_j> f_p, for every p at once, as [p, j, i, s, t]
    by_l = np.ascontiguousarray(gram_mats.transpose(1, 0, 2, 3)).reshape(m, m * n * n)  # [l, (i, s, t)]
    lhs = right.transpose(0, 2, 1).reshape(adim * m, m) @ by_l
    rhs = gram_mats.reshape(m * m * n, n) @ basis.transpose(1, 0, 2).reshape(n, adim * n)  # [(i, j, s), (p, t)]
    rhs = rhs.reshape(m, m, n, adim, n).transpose(3, 1, 0, 2, 4)
    res["right_compatibility"] = float(np.abs(lhs.reshape(adim, m, m, n, n) - rhs).max())

    # <f_p . e_i, e_j> = <e_i, f_p^* . e_j>, for every p at once, as [p, i, j, s, t]
    lhs = left.conj().transpose(0, 2, 1).reshape(adim * m, m) @ gram_mats.reshape(m, m * n * n)
    act_star = np.tensordot(alg.adj_table, left, axes=(1, 0))
    rhs = (act_star.transpose(0, 2, 1).reshape(adim * m, m) @ by_l).reshape(adim, m, m, n, n)
    res["left_adjointable"] = float(np.abs(lhs.reshape(adim, m, m, n, n) - rhs.transpose(0, 2, 1, 3, 4)).max())

    return res


def passes(report: dict[str, float], tol: float = DEFAULT_TOL) -> bool:
    return all(v <= tol for v in report.values())


# -- quotients -------------------------------------------------------------


def reduce_null(corr: Correspondence, tol: float = DEFAULT_TOL):
    """Quotient by module null vectors. Returns (correspondence, surjection).

    With W the kept eigenvectors (orthonormal columns) of the m x m PSD
    matrix tr(embed(<e_i, e_j>)), whose kernel is the module null space, and
    the surjection W^H, the quotient has Gram W^H G_p W and actions
    W^H R_p W, W^H L_p W for every algebra basis index p. When no vector is
    null the quotient is corr itself, with the identity surjection.
    """
    trace = corr.gram @ np.trace(corr.algebra.basis_mats, axis1=1, axis2=2)
    [w] = null_split([trace], tol, "reduce_null")
    if w.shape[1] == corr.dim:
        return corr, np.eye(corr.dim)
    # C-ordered: numpy's stacked matmul falls back to a slow non-BLAS loop
    # for a transposed operand
    surjection = np.ascontiguousarray(w.conj().T)
    gram = congruent_gram(corr.gram, w)
    right = surjection @ corr.right_action @ w
    left = surjection @ corr.left_action @ w
    reduced = Correspondence(corr.algebra, gram, right, left)
    return reduced, surjection


def congruent_gram(gram: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gram of the vectors given by the columns of w: W^H G_p W for every p.

    `gram` has shape (m, m, dim A) and w shape (m, n); the result has shape
    (n, n, dim A).
    """
    stacked = np.ascontiguousarray(np.moveaxis(gram, 2, 0))
    wh = np.ascontiguousarray(w.conj().T)
    return np.moveaxis(wh @ stacked @ w, 0, 2)


def interior_tensor(pairs, tol: float = DEFAULT_TOL) -> list:
    """Balanced tensor products E (x)_A F, quotiented by null vectors, for
    pairs (E, F) of correspondences.

    Returns one (correspondence, surjection from raw m_E * m_F coordinates)
    per pair: the quotient ``reduce_null`` takes of the algebraic tensor,
    whose Gram is <e_i (x) f_j, e_k (x) f_l> = <f_j, <e_i, e_k> . f_l> and
    whose actions are I (x) F.right and E.left (x) I on raw index i * m_F + j.
    No raw Gram or action stack is formed: the null trace is sum over r of
    E.gram[:, :, r] (x) (tr F.gram) F.left[r], and the compressions
    W^H G_p W, W^H (I (x) R_p) W and W^H (L_p (x) I) W apply each factor to
    W reshaped to (m_E, m_F, n). The pairs of one shape (m_E, m_F) take
    one stacked product for their null traces; all null traces take one
    null_split. Those that also share the kept dimension n are compressed
    together (`_compress`).
    """
    if any(e.algebra != f.algebra for e, f in pairs):
        raise InvalidArgumentError("interior tensor requires a common algebra")
    groups: dict[tuple[int, int], list[int]] = {}
    for x, (e, f) in enumerate(pairs):
        groups.setdefault((e.dim, f.dim), []).append(x)
    traces = []
    for (me, mf), xs in groups.items():
        c, algebra = len(xs), pairs[xs[0]][1].algebra
        f_trace = np.array([pairs[x][1].gram for x in xs]) @ np.trace(algebra.basis_mats, axis1=1, axis2=2)  # [x, j, q]
        f_left = (f_trace[:, None] @ np.array([pairs[x][1].left_action for x in xs])).reshape(c, algebra.dim, mf * mf)
        e_gram = np.array([pairs[x][0].gram for x in xs]).reshape(c, me * me, algebra.dim)
        trace = (e_gram @ f_left).reshape(c, me, me, mf, mf)
        traces.extend(trace.transpose(0, 1, 3, 2, 4).reshape(c, me * mf, me * mf))
    order = [x for xs in groups.values() for x in xs]
    kept = dict(zip(order, null_split(traces, tol, "interior_tensor")))
    out = [None] * len(pairs)
    for xs in groups.values():
        by_n: dict[int, list[int]] = {}
        for x in xs:
            by_n.setdefault(kept[x].shape[1], []).append(x)
        for members in by_n.values():
            w = np.array([kept[x] for x in members])
            for x, tensor in zip(members, _compress([pairs[x] for x in members], w)):
                out[x] = tensor
    return out


def _compress(pairs, w: np.ndarray) -> list:
    """The quotients of the c pairs (E, F) of one shape on their kept
    eigenvectors w, shape (c, m_E * m_F, n).

    Every product is laid out with the pair x and the column b of W
    leading, so that the F slot j and the E slot i end up adjacent and W^H
    contracts them in place: each product takes one stacked matmul over
    the pairs, with no copy of a raw-size array.
    """
    (e0, f0), c, n = pairs[0], len(pairs), w.shape[2]
    me, mf, adim = e0.dim, f0.dim, f0.algebra.dim
    es, fs = [e for e, _f in pairs], [f for _e, f in pairs]
    w4 = w.reshape(c, me, mf, n)
    w_rows = np.ascontiguousarray(w4.transpose(0, 3, 1, 2)).reshape(c, n * me, mf)  # [x, (b, k), l]
    # G_p W = sum over k, r, q of E.gram[i, k, r] F.gram[j, q, p] (F.left[r] W[k])[q]
    f_left = np.array([f.left_action for f in fs]).transpose(0, 3, 1, 2).reshape(c, mf, adim * mf)
    left_f = w_rows @ f_left
    e_gram = np.array([e.gram for e in es]).reshape(c, 1, me, me * adim)
    inner = (e_gram @ left_f.reshape(c, n, me * adim, mf)).reshape(c, n * me, mf)  # [x, (b, i), q]
    gram = inner @ np.array([f.gram for f in fs]).transpose(0, 2, 1, 3).reshape(c, mf, mf * adim)
    f_right = np.array([f.right_action for f in fs]).transpose(0, 3, 2, 1).reshape(c, mf, mf * adim)
    right = w_rows @ f_right
    e_left = np.array([e.left_action for e in es]).reshape(c, adim * me, me)
    left = (e_left @ w4.reshape(c, me, mf * n)).reshape(c, adim, me * mf, n)  # [x, p, (i, j), b]
    # W^H on the (i, j) rows: [x, b, a, p] for the Gram and the right action
    surjection = np.ascontiguousarray(w.conj().transpose(0, 2, 1))
    wh = surjection[:, None]
    grams = np.ascontiguousarray((wh @ gram.reshape(c, n, me * mf, adim)).transpose(0, 2, 1, 3))
    rights = np.ascontiguousarray((wh @ right.reshape(c, n, me * mf, adim)).transpose(0, 3, 2, 1))
    lefts = wh @ left
    return [
        (Correspondence(e.algebra, grams[x], rights[x], lefts[x]), surjection[x]) for x, e in enumerate(es)
    ]


# -- localization ----------------------------------------------------------


def trivial_localized(dim: int) -> LocalizedSpace:
    eye = np.eye(dim)
    return LocalizedSpace(dim, dim, eye, eye)


def localize(corrs, sigma_mats: np.ndarray, tol: float = DEFAULT_TOL) -> list[LocalizedSpace]:
    """E (x)_sigma H for correspondences E of one dimension and a
    *-representation given by matrices per basis element.

    Raw coordinates are (module index major) kron(x, h); the factor F maps
    them isometrically onto C^rank. The Grams of all the E take one GEMM
    with sigma and one stacked eigh, and psd_factor applies its cutoff
    (eigenvalues <= tol are null) and warn_degenerate to each E on its own.
    """
    count, m, adim, d = len(corrs), corrs[0].dim, sigma_mats.shape[0], sigma_mats.shape[1]
    grams = np.array([c.gram for c in corrs]).reshape(count * m * m, adim) @ sigma_mats.reshape(adim, d * d)
    grams = grams.reshape(count, m, m, d, d).transpose(0, 1, 3, 2, 4).reshape(count, m * d, m * d)
    factors = psd_factor(*np.linalg.eigh(hermitize(grams)), tol, "localize")
    return [
        LocalizedSpace(m * d, vals.size, factor, kept / np.sqrt(vals)) for factor, vals, kept in factors
    ]


def descend_map(
    m: np.ndarray,
    sources,
    targets,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, dict[int, NotWellDefinedError]]:
    """Quotient-coordinate matrices B_x with B_x F_source_x = F_target_x M_x,
    for a stack m of raw maps of one shape between localized spaces of one
    shape each.

    Returns the stack of the B_x and the errors of the maps that do not
    respect the null spaces, by index: those whose defect B_x F_source_x -
    F_target_x M_x has operator norm above tol. Its Frobenius norm bounds
    the operator norm, so a defect within tol by that bound passes without
    an SVD; the exact operator norm is taken only to decide and report a
    failure.
    """
    fm = np.array([t.factor for t in targets]) @ m
    b = fm @ np.array([s.lift for s in sources])
    defect = b @ np.array([s.factor for s in sources]) - fm
    failures = {}
    # NaN takes the exact path too
    for x in np.flatnonzero(~(np.linalg.norm(defect, axis=(1, 2)) <= tol)):
        residual = opnorm(defect[x])
        if residual > tol:
            failures[int(x)] = descent_error(residual, tol, "descend_map")
    return b, failures
