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


def psd_factor(gram: np.ndarray, tol: float, what: str = "gram", eig=None):
    """Rank-revealing factor F of a PSD Hermitian matrix, F^H F = gram.

    Eigenvalues <= tol are treated as null. `eig`, when given, is the
    (eigvals, eigvecs) pair of gram and saves the solve. Returns (factor,
    kept eigvals, kept eigvecs); factor rows are sqrt(eigval)-scaled
    eigenvector rows.
    """
    n = gram.shape[0]
    if n == 0:
        z = np.zeros((0, 0), dtype=gram.dtype)
        return z, np.zeros(0), z
    vals, vecs = np.linalg.eigh(hermitize(gram)) if eig is None else eig
    warn_degenerate(vals, tol, what)
    keep = vals > tol
    vals_k = vals[keep]
    vecs_k = vecs[:, keep]
    factor = np.sqrt(vals_k)[:, None] * vecs_k.conj().T
    return factor, vals_k, vecs_k


def null_split(grams: np.ndarray, tol: float, what: str = "gram") -> list:
    """Orthonormal (kept, null) eigenvector bases of each PSD Hermitian
    matrix of a stack, from one stacked eigh; the cutoff and
    warn_degenerate are applied matrix by matrix."""
    if grams.shape[1] == 0:
        z = np.zeros((0, 0), dtype=grams.dtype)
        return [(z, z)] * grams.shape[0]
    out = []
    for vals, vecs in zip(*np.linalg.eigh(hermitize(grams))):
        warn_degenerate(vals, tol, what)
        keep = vals > tol
        out.append((vecs[:, keep], vecs[:, ~keep]))
    return out


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
