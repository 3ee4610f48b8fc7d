"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

An algebra with block sizes (n_1, ..., n_r) has linear dimension sum(n_i^2)
and a faithful block-diagonal representation of size n = sum(n_i). The
canonical basis is the list of matrix units, block-major then row-major.
Elements are coordinate vectors in that basis; all arithmetic goes through
the faithful representation, which is exact for this class of algebras.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError


class CStarAlgebra:
    def __init__(self, block_sizes):
        sizes = tuple(int(n) for n in block_sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise InvalidArgumentError("block_sizes must be nonempty with entries >= 1")
        self.block_sizes = sizes
        self.dim = sum(n * n for n in sizes)
        self.rep_dim = sum(sizes)
        # canonical basis: (block, row, col) per coordinate, and the embedded
        # matrix-unit stack used by embed()
        self._index: list[tuple[int, int, int]] = []
        offset = 0
        offsets = []
        for b, n in enumerate(sizes):
            offsets.append(offset)
            for i in range(n):
                for j in range(n):
                    self._index.append((b, i, j))
            offset += n
        self.block_offsets = tuple(offsets)
        mats = np.zeros((self.dim, self.rep_dim, self.rep_dim), dtype=complex)
        for p, (b, i, j) in enumerate(self._index):
            o = offsets[b]
            mats[p, o + i, o + j] = 1.0
        self.basis_mats = mats
        self.basis_mats.flags.writeable = False

    def __eq__(self, other):
        return isinstance(other, CStarAlgebra) and self.block_sizes == other.block_sizes

    def __hash__(self):
        return hash(self.block_sizes)

    def __repr__(self):
        return f"CStarAlgebra(block_sizes={list(self.block_sizes)})"


@dataclass(frozen=True)
class AlgebraElement:
    algebra: CStarAlgebra
    coords: np.ndarray = field(compare=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex).reshape(-1)
        if coords.shape[0] != self.algebra.dim:
            raise InvalidArgumentError(
                f"coordinate length {coords.shape[0]} != algebra dimension {self.algebra.dim}"
            )
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)


def make_algebra(block_sizes) -> CStarAlgebra:
    return CStarAlgebra(block_sizes)


def element(algebra: CStarAlgebra, coords) -> AlgebraElement:
    return AlgebraElement(algebra, np.asarray(coords, dtype=complex))


def embed(a: AlgebraElement) -> np.ndarray:
    """Faithful block-diagonal n x n matrix of an element."""
    return np.tensordot(a.coords, a.algebra.basis_mats, axes=(0, 0))


def from_matrix(algebra: CStarAlgebra, m: np.ndarray) -> AlgebraElement:
    """Element whose embedding is the block-diagonal part of m."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (algebra.rep_dim, algebra.rep_dim):
        raise InvalidArgumentError(f"matrix shape {m.shape} != faithful rep size")
    coords = np.empty(algebra.dim, dtype=complex)
    for p, (b, i, j) in enumerate(algebra._index):
        o = algebra.block_offsets[b]
        coords[p] = m[o + i, o + j]
    return AlgebraElement(algebra, coords)


def unit(algebra: CStarAlgebra) -> AlgebraElement:
    return from_matrix(algebra, np.eye(algebra.rep_dim, dtype=complex))


def multiplication_table(algebra: CStarAlgebra) -> np.ndarray:
    """Structure constants c[p, q, r] with f_p f_q = sum_r c[p,q,r] f_r."""
    dim = algebra.dim
    table = np.zeros((dim, dim, dim), dtype=complex)
    for p in range(dim):
        for q in range(dim):
            prod = from_matrix(
                algebra, algebra.basis_mats[p] @ algebra.basis_mats[q]
            )
            table[p, q, :] = prod.coords
    return table


def adjoint_table(algebra: CStarAlgebra) -> np.ndarray:
    """Matrix s[p, r] with f_p^* = sum_r s[p,r] f_r."""
    dim = algebra.dim
    table = np.zeros((dim, dim), dtype=complex)
    for p in range(dim):
        table[p, :] = from_matrix(algebra, algebra.basis_mats[p].conj().T).coords
    return table
