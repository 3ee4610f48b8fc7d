"""Small dense linear-algebra helpers used throughout the package."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DegenerateRankWarning, NotWellDefinedError

DEFAULT_TOL = 1e-10


def as_data(a) -> np.ndarray:
    """a as an array of the package's data: float64 or complex128 as it is,
    any other dtype promoted to float64, or complex128 when it is complex.

    Every computed array then follows its inputs by numpy's promotion, so
    data without an imaginary part is computed in real arithmetic.
    """
    a = np.asarray(a)
    if a.dtype == np.float64 or a.dtype == np.complex128:
        return a
    return a.astype(np.result_type(a.dtype, np.float64))


def opnorm(m: np.ndarray) -> float:
    """Operator (spectral) norm; 0.0 for maps with an empty side."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def max_opnorm(blocks) -> float:
    """Largest operator norm over an iterable of 2-D blocks; 0.0 for none.

    Blocks of one shape share a single stacked SVD, so a check that takes
    the maximum over many small blocks pays one LAPACK dispatch per shape
    instead of one per block. Blocks with an empty side or no nonzero
    entry have norm exactly 0 and take no SVD.
    """
    groups: dict[tuple[int, int], list[np.ndarray]] = {}
    for b in blocks:
        if b.any():
            groups.setdefault(b.shape, []).append(b)
    return max(
        (float(np.linalg.svd(np.stack(g), compute_uv=False).max()) for g in groups.values()),
        default=0.0,
    )


def hermitize(g: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix, or of each matrix of a stack."""
    return 0.5 * (g + np.swapaxes(g.conj(), -1, -2))


def stack(arrays) -> np.ndarray:
    """np.stack of arrays of one shape and one memory layout, keeping that
    layout in every slice; an array listed more than once is copied once.

    BLAS reads a transposed operand by another kernel, so a product of a
    C-ordered copy of an F-ordered matrix can differ from the original's in
    the last bits; a stacked product of slices laid out as the arrays are
    makes the same BLAS calls, and so gives the same bits, as the products
    of the arrays one by one.
    """
    first = arrays[0]
    if len(arrays) == 1:
        return first[None]
    order = sorted(range(first.ndim), key=lambda axis: -first.strides[axis])
    unique = {id(a): a for a in arrays}
    out = np.array([a.transpose(order) for a in unique.values()])
    if len(unique) < len(arrays):
        row = {key: n for n, key in enumerate(unique)}
        out = out[[row[id(a)] for a in arrays]]
    return out.transpose([0] + [1 + order.index(axis) for axis in range(first.ndim)])


def warn_degenerate(eigvals: np.ndarray, tol: float, what: str) -> None:
    band = (np.abs(eigvals) > tol / 10.0) & (np.abs(eigvals) < tol * 10.0)
    if np.any(band):
        warnings.warn(
            f"{what}: {int(band.sum())} eigenvalue(s) inside the ambiguous "
            f"rank band [{tol / 10.0:.1e}, {tol * 10.0:.1e}]",
            DegenerateRankWarning,
            stacklevel=3,
        )


def psd_factor(vals: np.ndarray, vecs: np.ndarray, tol: float, what: str):
    """Rank-revealing factor F of a PSD Hermitian matrix, F^H F = gram, from
    its eigenpairs (vals, vecs).

    Eigenvalues <= tol are treated as null. Returns (factor, kept eigvals,
    kept eigvecs); factor rows are sqrt(eigval)-scaled eigenvector rows.
    """
    warn_degenerate(vals, tol, what)
    keep = vals > tol
    vals_k = vals[keep]
    vecs_k = vecs[:, keep]
    factor = np.sqrt(vals_k)[:, None] * vecs_k.conj().T
    return factor, vals_k, vecs_k


def null_split(grams, tol: float, what: str) -> list:
    """Orthonormal bases of the kept eigenvectors, those of eigenvalues above
    tol, of each PSD Hermitian matrix of a list, from one stacked eigh per
    size; the cutoff and warn_degenerate are applied matrix by matrix."""
    out = [None] * len(grams)
    for size in dict.fromkeys(g.shape[0] for g in grams):
        group = [x for x, g in enumerate(grams) if g.shape[0] == size]
        for x, vals, vecs in zip(group, *np.linalg.eigh(hermitize(np.array([grams[x] for x in group])))):
            warn_degenerate(vals, tol, what)
            out[x] = vecs[:, vals > tol]
    return out


def rank_mask(svals: np.ndarray) -> np.ndarray:
    """The numerical rank rule: the singular values above 1e-8 * max(1,
    largest one) count."""
    return svals > 1e-8 * max(1.0, svals.max(initial=0.0))


def pinv_and_range(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m's pseudo-inverse and an orthonormal basis of m's column space, from
    one SVD m = U S V^H.

    The pseudo-inverse V S^+ U^H inverts the singular values above 1e-15
    times the largest one, np.linalg.pinv's default cutoff; the basis keeps
    the columns of U whose singular values count by rank_mask.
    """
    u, svals, vh = np.linalg.svd(m, full_matrices=False)
    inv = np.divide(1, svals, where=svals > 1e-15 * svals.max(initial=0.0), out=np.zeros_like(svals))
    pinv = (vh.conj().T * inv) @ u.conj().T
    return pinv, u[:, rank_mask(svals)]


def lstsq_map(
    targets: np.ndarray, domain: np.ndarray, pinv: np.ndarray, tol: float, what: str
) -> np.ndarray:
    """Least-squares B = targets @ pinv with B @ domain ~ targets, required
    consistent to tol, for pinv the domain's pseudo-inverse.

    A stack of targets (c, m, n) shares the one pinv and gives a stack of
    maps; the consistency residual is the largest operator norm of
    a slice's defect B @ domain - targets. The Frobenius norm of the whole
    stack bounds every slice's operator norm, so when it is <= tol the
    check passes without an SVD; otherwise the exact residual is taken and
    NotWellDefinedError reports it when it exceeds tol.
    """
    flat = targets.reshape(math.prod(targets.shape[:-1]), targets.shape[-1])
    b = flat @ pinv
    defect = b @ domain - flat
    if not np.linalg.norm(defect) <= tol:  # NaN takes the exact path too
        slices = defect.reshape((math.prod(targets.shape[:-2]),) + targets.shape[-2:])
        require_descent(max_opnorm(slices), tol, what)
    return b.reshape(targets.shape[:-1] + domain.shape[:1])


def descent_error(residual: float, tol: float, what: str) -> NotWellDefinedError:
    return NotWellDefinedError(
        f"{what}: descent residual {residual:.3e} exceeds tolerance {tol:.1e}",
        residual=residual,
    )


def require_descent(residual: float, tol: float, what: str) -> None:
    if residual > tol:
        raise descent_error(residual, tol, what)


def pivoted_cholesky(gram: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Pivoted Cholesky factor R (rank x n) of a PSD Hermitian matrix.

    R^H R ~ gram up to the pivot cutoff rel_tol * max diagonal.
    """
    g = hermitize(gram)
    n = g.shape[0]
    d = np.real(np.diag(g)).copy()
    cutoff = rel_tol * max(d.max(initial=0.0), 0.0)
    low = np.zeros((n, n), dtype=g.dtype)
    rank = 0
    for m in range(n):
        i = int(np.argmax(d))
        if d[i] <= cutoff or d[i] <= 0.0:
            break
        col = g[:, i] - low[:, :m] @ low[i, :m].conj()
        col /= np.sqrt(d[i])
        low[:, m] = col
        d = np.maximum(d - np.abs(col) ** 2, 0.0)
        d[i] = 0.0
        rank = m + 1
    return low[:, :rank].conj().T
