"""Small dense linear-algebra helpers used throughout the package."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateRankWarning, NotWellDefinedError

DEFAULT_TOL = 1e-10


def opnorm(m: np.ndarray) -> float:
    """Operator (spectral) norm; 0.0 for maps with an empty side."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


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


def lstsq_map(targets: np.ndarray, domain: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares B with B @ domain ~ targets; returns (B, residual norm)."""
    b = targets @ np.linalg.pinv(domain)
    res = opnorm(b @ domain - targets)
    return b, res


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
