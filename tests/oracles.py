"""Independent oracles the test suite compares the engine against.

Everything here is implemented from first principles (classical formulas,
brute-force sums, explicit matrix units) and deliberately shares no code
with the package internals beyond numpy.
"""

from __future__ import annotations

import itertools

import numpy as np


def herm_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root via eigendecomposition (clipping tiny negatives)."""
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def schaffer_inner_products(t: np.ndarray, m_max: int) -> np.ndarray:
    """Gram matrix of {V^n e_i : 0 <= n <= m_max} for the Schaffer-form
    minimal isometric dilation V of a single contraction t on C^d.

    V acts on H (+) D (+) ... (+) D (m_max + 1 defect copies): V|_H = t into
    H plus the defect operator into the first copy, then a pure shift.
    Returned as an ((m_max+1)d) x ((m_max+1)d) matrix indexed (n, i).
    """
    d = t.shape[0]
    defect = herm_sqrt(np.eye(d) - t.conj().T @ t)
    size = d * (m_max + 2)
    v = np.zeros((size, size), dtype=complex)
    v[0:d, 0:d] = t
    v[d : 2 * d, 0:d] = defect
    for j in range(1, m_max + 1):
        v[(j + 1) * d : (j + 2) * d, j * d : (j + 1) * d] = np.eye(d)
    cols = []
    power = np.eye(size, dtype=complex)
    for _ in range(m_max + 1):
        cols.append(power[:, 0:d])
        power = v @ power
    stacked = np.concatenate(cols, axis=1)
    return stacked.conj().T @ stacked


def brehmer_sum_scalar(ts: tuple[complex, ...], v: tuple[int, ...], s: tuple[int, ...]) -> float:
    """Brute-force alternating Brehmer sum for commuting scalar contractions:
    sum over u subset v of (-1)^|u| prod_{i in u} |t_i|^{2 s_i}."""
    total = 0.0
    v = tuple(v)
    for r in range(len(v) + 1):
        for u in itertools.combinations(v, r):
            term = 1.0
            for i in u:
                term *= abs(ts[i - 1]) ** (2 * s[i - 1])
            total += (-1) ** len(u) * term
    return total


def toeplitz_margin_scalar(ts: tuple[complex, ...], bound: tuple[int, ...]) -> float:
    """Minimum eigenvalue of the brute-force scalar Toeplitz moment matrix
    [K(n, m)] over the window box, K(n, m) = conj(t^(m-n)_-) t^(m-n)_+."""
    pts = window_points(bound)

    def power(exps):
        out = 1.0 + 0.0j
        for t, e in zip(ts, exps, strict=True):
            out *= t**e
        return out

    gram = np.zeros((len(pts), len(pts)), dtype=complex)
    for a, n in enumerate(pts):
        for b, m in enumerate(pts):
            diff = tuple(x - y for x, y in zip(m, n, strict=True))
            neg = tuple(max(0, -x) for x in diff)
            pos = tuple(max(0, x) for x in diff)
            gram[a, b] = np.conj(power(neg)) * power(pos)
    return float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min())


def window_points(bound: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Lattice points of the window box in graded-lexicographic order."""
    pts = list(itertools.product(*(range(b + 1) for b in bound)))
    pts.sort(key=lambda p: (sum(p), p))
    return pts


def full_window_gram(space, bound: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """The T^ window Gram over one copy of the truncated space per window
    point, block (t, s) = T^_{(s-t)_-}^H T^_{(s-t)_+}, and its minimum
    eigenvalue.

    `space` only has to provide `dim` and the lowering operators as
    `space.hat(point).matrix`; everything else is computed here. The Gram
    has dimension |W| dim H_L, so this is for small windows only.
    """
    pts = window_points(bound)
    n = space.dim
    gram = np.zeros((len(pts) * n, len(pts) * n), dtype=complex)
    for a, t in enumerate(pts):
        for b, s in enumerate(pts):
            diff = tuple(x - y for x, y in zip(s, t, strict=True))
            neg = space.hat(tuple(max(0, -x) for x in diff)).matrix
            pos = space.hat(tuple(max(0, x) for x in diff)).matrix
            gram[a * n : (a + 1) * n, b * n : (b + 1) * n] = neg.conj().T @ pos
    margin = float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min())
    return gram, margin


def matrix_units(n: int) -> list[np.ndarray]:
    """Matrix units of M_n in row-major order (the canonical algebra basis)."""
    units = []
    for i in range(n):
        for j in range(n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            units.append(m)
    return units
