"""Small dense linear-algebra helpers used throughout the package."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DegenerateRankWarning, NotWellDefinedError

DEFAULT_TOL = 1e-10


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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 1-D or two 2-D arrays.

    One broadcast product and a reshape: the same entrywise products as
    np.kron, so the same bits, without its per-call shape handling.
    """
    if a.ndim == 1 == b.ndim:
        return (a[:, None] * b[None, :]).reshape(a.shape[0] * b.shape[0])
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def hermitize(g: np.ndarray) -> np.ndarray:
    return 0.5 * (g + g.conj().T)


def warn_degenerate(eigvals: np.ndarray, tol: float, what: str) -> None:
    band = (np.abs(eigvals) > tol / 10.0) & (np.abs(eigvals) < tol * 10.0)
    if np.any(band):
        warnings.warn(
            f"{what}: {int(band.sum())} eigenvalue(s) inside the ambiguous "
            f"rank band [{tol / 10.0:.1e}, {tol * 10.0:.1e}]",
            DegenerateRankWarning,
            stacklevel=3,
        )


def psd_factor(gram: np.ndarray, tol: float, what: str = "gram", eig=None):
    """Rank-revealing factor F of a PSD Hermitian matrix, F^H F = gram.

    Eigenvalues <= tol are treated as null. `eig`, when given, is the
    (eigvals, eigvecs) pair of gram and saves the solve. Returns (factor,
    kept eigvals, kept eigvecs); factor rows are sqrt(eigval)-scaled
    eigenvector rows.
    """
    n = gram.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros(0), np.zeros((0, 0), dtype=complex)
    vals, vecs = np.linalg.eigh(hermitize(gram)) if eig is None else eig
    warn_degenerate(vals, tol, what)
    keep = vals > tol
    vals_k = vals[keep]
    vecs_k = vecs[:, keep]
    factor = np.sqrt(vals_k)[:, None] * vecs_k.conj().T
    return factor, vals_k, vecs_k


def null_split(gram: np.ndarray, tol: float, what: str = "gram"):
    """Orthonormal (kept, null) eigenvector bases of a PSD Hermitian matrix."""
    if gram.shape[0] == 0:
        z = np.zeros((0, 0), dtype=complex)
        return z, z
    vals, vecs = np.linalg.eigh(hermitize(gram))
    warn_degenerate(vals, tol, what)
    keep = vals > tol
    return vecs[:, keep], vecs[:, ~keep]


def lstsq_map(targets: np.ndarray, domain: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Least-squares B with B @ domain ~ targets, required consistent to tol.

    A stack of targets (c, m, n) shares one pinv of the domain and gives a
    stack of maps; the consistency residual is the largest operator norm of
    a slice's defect B @ domain - targets. The Frobenius norm of the whole
    stack bounds every slice's operator norm, so when it is <= tol the
    check passes without an SVD; otherwise the exact residual is taken and
    NotWellDefinedError reports it when it exceeds tol.
    """
    flat = targets.reshape(math.prod(targets.shape[:-1]), targets.shape[-1])
    b = flat @ np.linalg.pinv(domain)
    defect = b @ domain - flat
    if not np.linalg.norm(defect) <= tol:  # NaN takes the exact path too
        stack = defect.reshape((math.prod(targets.shape[:-2]),) + targets.shape[-2:])
        require_descent(max_opnorm(stack), tol, what)
    return b.reshape(targets.shape[:-1] + domain.shape[:1])


def require_descent(residual: float, tol: float, what: str) -> None:
    if residual > tol:
        raise NotWellDefinedError(
            f"{what}: descent residual {residual:.3e} exceeds tolerance {tol:.1e}",
            residual=residual,
        )


def pivoted_cholesky(gram: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Pivoted Cholesky factor R (rank x n) of a PSD Hermitian matrix.

    R^H R ~ gram up to the pivot cutoff rel_tol * max diagonal.
    """
    g = hermitize(gram).astype(complex)
    n = g.shape[0]
    d = np.real(np.diag(g)).copy()
    cutoff = rel_tol * max(d.max(initial=0.0), 0.0)
    low = np.zeros((n, n), dtype=complex)
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
