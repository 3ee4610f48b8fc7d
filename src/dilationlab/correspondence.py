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
operands of one shape and stack their factorizations and products, each
operand laid out as on its own, so every result has the bits of a
one-by-one computation.
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
    stack,
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
    """Named residuals for the correspondence axioms; `passes` at tol iff all <= tol."""
    alg = corr.algebra
    m = corr.dim
    basis = alg.basis_mats
    gram_mats = np.einsum("ijp,pkl->ijkl", corr.gram, basis)  # embed(<e_i,e_j>)

    res: dict[str, float] = {}
    res["gram_hermitian"] = float(
        np.abs(np.conj(np.transpose(gram_mats, (0, 1, 3, 2))) - np.transpose(gram_mats, (1, 0, 2, 3))).max()
    )
    emb = corr.gram_embedded()
    res["gram_psd"] = max(0.0, -float(np.linalg.eigvalsh(hermitize(emb)).min()))

    res["right_unital"] = opnorm(corr.act_right(alg.unit) - np.eye(m))
    res["left_unital"] = opnorm(corr.act_left(alg.unit) - np.eye(m))

    # f_p f_q acts on the right as right(f_q) right(f_p), on the left as left(f_p) left(f_q)
    mul_table = alg.mul_table
    right, left = corr.right_action, corr.left_action
    combo_r = np.tensordot(mul_table, right, axes=(2, 0)) - right[None, :] @ right[:, None]
    combo_l = np.tensordot(mul_table, left, axes=(2, 0)) - left[:, None] @ left[None, :]
    res["right_homomorphism"] = max_opnorm(combo_r.reshape(alg.dim**2, m, m))
    res["left_homomorphism"] = max_opnorm(combo_l.reshape(alg.dim**2, m, m))

    # <e_i, e_j . f_p> = <e_i, e_j> f_p, for every p at once
    lhs = np.einsum("plj,ilst->pijst", corr.right_action, gram_mats)
    rhs = np.einsum("ijsu,put->pijst", gram_mats, basis)
    res["right_compatibility"] = float(np.abs(lhs - rhs).max())

    # <f_p . e_i, e_j> = <e_i, f_p^* . e_j>, for every p at once
    lhs = np.einsum("pli,ljst->pijst", np.conj(corr.left_action), gram_mats)
    act_star = np.tensordot(alg.adj_table, corr.left_action, axes=(1, 0))
    rhs = np.einsum("plj,ilst->pijst", act_star, gram_mats)
    res["left_adjointable"] = float(np.abs(lhs - rhs).max())

    return res


def passes(report: dict[str, float], tol: float = DEFAULT_TOL) -> bool:
    return all(v <= tol for v in report.values())


# -- quotients -------------------------------------------------------------


def reduce_null(corr: Correspondence, tol: float = DEFAULT_TOL):
    """Quotient by module null vectors. Returns (correspondence, surjection).

    With W the kept eigenvectors (orthonormal columns) of the m x m PSD
    matrix tr(embed(<e_i, e_j>)), whose kernel is the module null space, and
    the surjection W^H, the quotient has Gram W^H G_p W and actions
    W^H R_p W, W^H L_p W for every algebra basis index p.
    """
    trace = corr.gram @ np.trace(corr.algebra.basis_mats, axis1=1, axis2=2)
    [w] = null_split([trace], tol, "reduce_null")
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
    W reshaped to (m_E, m_F, n). All null traces take one null_split.
    """
    if any(e.algebra != f.algebra for e, f in pairs):
        raise InvalidArgumentError("interior tensor requires a common algebra")
    traces = []
    for e, f in pairs:
        me, mf, adim = e.dim, f.dim, e.algebra.dim
        f_trace = f.gram @ np.trace(e.algebra.basis_mats, axis1=1, axis2=2)  # [j, q]
        trace = e.gram.reshape(me * me, adim) @ (f_trace @ f.left_action).reshape(adim, mf * mf)
        traces.append(trace.reshape(me, me, mf, mf).transpose(0, 2, 1, 3).reshape(me * mf, me * mf))
    out = []
    for (e, f), w in zip(pairs, null_split(traces, tol, "interior_tensor")):
        me, mf, adim = e.dim, f.dim, e.algebra.dim
        n = w.shape[1]
        surjection = np.ascontiguousarray(w.conj().T)
        w3 = w.reshape(me, mf, n)
        # G_p W = sum over k, r, q of E.gram[i, k, r] F.gram[j, q, p] (F.left[r] W[k])[q]
        left_f = f.left_action[:, None] @ w3  # [r, k, q, b]
        left_f = left_f.transpose(1, 0, 2, 3).reshape(me * adim, mf * n)  # [(k, r), (q, b)]
        inner = (e.gram.reshape(me, me * adim) @ left_f).reshape(me, mf, n)  # [i, q, b]
        gram_w = np.moveaxis(f.gram, 2, 0)[:, None] @ inner  # [p, i, j, b]
        gram = np.moveaxis(surjection @ gram_w.reshape(adim, me * mf, n), 0, 2)
        right = surjection @ (f.right_action[:, None] @ w3).reshape(adim, me * mf, n)
        left = surjection @ (e.left_action @ w.reshape(me, mf * n)).reshape(adim, me * mf, n)
        out.append((Correspondence(e.algebra, gram, right, left), surjection))
    return out


# -- localization ----------------------------------------------------------


def trivial_localized(dim: int) -> LocalizedSpace:
    eye = np.eye(dim)
    return LocalizedSpace(dim, dim, eye, eye)


def localize(corrs, sigma_mats: np.ndarray, tol: float = DEFAULT_TOL) -> list[LocalizedSpace]:
    """E (x)_sigma H for correspondences E of one dimension and a
    *-representation given by matrices per basis element.

    Raw coordinates are (module index major) kron(x, h); the factor F maps
    them isometrically onto C^rank. The Grams of all the E take one
    stacked einsum and one stacked eigh; psd_factor's cutoff and
    warn_degenerate are applied to each E on its own.
    """
    count, m, d = len(corrs), corrs[0].dim, sigma_mats.shape[1]
    grams = np.einsum("xijp,pkl->xikjl", stack([c.gram for c in corrs]), sigma_mats)
    grams = grams.reshape(count, m * d, m * d)
    out = []
    for vals, vecs in zip(*np.linalg.eigh(hermitize(grams))):
        factor, vals, vecs = psd_factor(vals, vecs, tol, "localize")
        lift = vecs / np.sqrt(vals)[None, :] if vals.size else vecs
        out.append(LocalizedSpace(m * d, factor.shape[0], factor, lift))
    return out


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
    fm = stack([t.factor for t in targets]) @ m
    b = fm @ stack([s.lift for s in sources])
    defect = b @ stack([s.factor for s in sources]) - fm
    failures = {}
    # NaN takes the exact path too
    for x in np.flatnonzero(~(np.linalg.norm(defect, axis=(1, 2)) <= tol)):
        residual = opnorm(defect[x])
        if residual > tol:
            failures[int(x)] = descent_error(residual, tol, "descend_map")
    return b, failures
