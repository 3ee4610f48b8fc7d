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
    entry have norm exactly 0 and take no SVD. A 3-D array is a stack of
    blocks.
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


def warn_degenerate(eigvals: np.ndarray, tol: float, what: str) -> None:
    """One DegenerateRankWarning for each matrix whose eigenvalues, a row of
    `eigvals` (one row, or a stack of them), fall inside the ambiguous rank
    band around tol."""
    band = (np.abs(eigvals) > tol / 10.0) & (np.abs(eigvals) < tol * 10.0)
    for count in np.atleast_1d(band.sum(axis=-1)).ravel():
        if count:
            warnings.warn(
                f"{what}: {int(count)} eigenvalue(s) inside the ambiguous "
                f"rank band [{tol / 10.0:.1e}, {tol * 10.0:.1e}]",
                DegenerateRankWarning,
                stacklevel=3,
            )


def psd_factor(vals: np.ndarray, vecs: np.ndarray, tol: float, what: str):
    """Rank-revealing factor F of a PSD Hermitian matrix, F^H F = gram, from
    its eigenpairs (vals, vecs).

    Eigenvalues <= tol are treated as null. Returns (factor, kept eigvals,
    kept eigvecs); factor rows are sqrt(eigval)-scaled eigenvector rows.
    For a stack of eigenpairs, vals of shape (c, n), returns a list of c
    such triples, each matrix with its own cutoff and warning.
    """
    warn_degenerate(vals, tol, what)
    if vals.ndim > 1:
        return [_factor(v, w, tol) for v, w in zip(vals, vecs)]
    return _factor(vals, vecs, tol)


def _factor(vals: np.ndarray, vecs: np.ndarray, tol: float):
    keep = vals > tol
    vals_k = vals[keep]
    vecs_k = vecs[:, keep]
    factor = np.sqrt(vals_k)[:, None] * vecs_k.conj().T
    return factor, vals_k, vecs_k


def eigh_by_size(grams) -> list:
    """The eigenpairs (vals, vecs) of each Hermitian matrix of a list, from
    one stacked eigh per size."""
    out = [None] * len(grams)
    for size in dict.fromkeys(len(g) for g in grams):
        group = [x for x, g in enumerate(grams) if len(g) == size]
        for x, pair in zip(group, zip(*np.linalg.eigh(hermitize(np.array([grams[x] for x in group]))))):
            out[x] = pair
    return out


def null_split(grams, tol: float, what: str) -> list:
    """Orthonormal bases of the kept eigenvectors, those of eigenvalues above
    tol, of each PSD Hermitian matrix of a list (eigh_by_size); the cutoff
    and warn_degenerate are applied matrix by matrix."""
    out = []
    for vals, vecs in eigh_by_size(grams):
        warn_degenerate(vals, tol, what)
        out.append(vecs[:, vals > tol])
    return out


def rank_mask(svals: np.ndarray) -> np.ndarray:
    """The numerical rank rule: the singular values above 1e-8 * max(1,
    largest one) count."""
    return svals > 1e-8 * max(1.0, svals.max(initial=0.0))


def lstsq_map(
    targets: np.ndarray, domain: np.ndarray, inverse: np.ndarray, tol: float, what: str
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares B = targets @ inverse with B @ domain ~ targets,
    required consistent to tol, for inverse a generalized inverse of the
    domain, domain @ inverse @ domain = domain, so that B @ domain =
    targets whenever some map gives the targets. Returns B and its defect
    B @ domain - targets, shaped as targets.

    A stack of targets (c, m, n) shares the one inverse and gives a stack of
    maps; the consistency residual is the largest operator norm of
    a slice's defect. The Frobenius norm of the whole stack bounds every
    slice's operator norm, so when it is <= tol the check passes without an
    SVD; otherwise the exact residual is taken and NotWellDefinedError
    reports it when it exceeds tol.
    """
    flat = targets.reshape(math.prod(targets.shape[:-1]), targets.shape[-1])
    b = flat @ inverse
    defect = (b @ domain - flat).reshape(targets.shape)
    if not np.linalg.norm(defect) <= tol:  # NaN takes the exact path too
        slices = defect.reshape((math.prod(targets.shape[:-2]),) + targets.shape[-2:])
        require_descent(max_opnorm(slices), tol, what)
    return b.reshape(targets.shape[:-1] + domain.shape[:1]), defect


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
