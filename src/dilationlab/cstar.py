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
from .linalg import as_data


class CStarAlgebra:
    def __init__(self, block_sizes):
        sizes = tuple(int(n) for n in block_sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise InvalidArgumentError("block_sizes must be nonempty with entries >= 1")
        self.block_sizes = sizes
        self.dim = sum(n * n for n in sizes)
        self.rep_dim = sum(sizes)
        # canonical basis: coordinate p is the matrix unit at (row[p], col[p])
        # of block blk[p], whose first coordinate is first[p] and whose first
        # row in the faithful representation is offset[p]
        index = [(b, i, j) for b, n in enumerate(sizes) for i in range(n) for j in range(n)]
        blk, row, col = (np.array(v) for v in zip(*index))
        size = np.array(sizes)[blk]
        first = np.cumsum([0] + [n * n for n in sizes])[blk]
        offset = np.cumsum([0, *sizes])[blk]
        # coordinate p of an element is this entry of its embedding
        self._rows, self._cols = offset + row, offset + col
        coords = np.arange(self.dim)
        # embedded matrix units, used by embed()
        self.basis_mats = np.zeros((self.dim, self.rep_dim, self.rep_dim))
        self.basis_mats[coords, self._rows, self._cols] = 1.0
        # structure constants: f_p f_q = sum_r mul_table[p, q, r] f_r, the
        # unit at (row p, col q) of their common block when col p = row q
        p, q = np.nonzero((blk[:, None] == blk[None, :]) & (col[:, None] == row[None, :]))
        self.mul_table = np.zeros((self.dim, self.dim, self.dim))
        self.mul_table[p, q, first[p] + row[p] * size[p] + col[q]] = 1.0
        # f_p^* = sum_r adj_table[p, r] f_r, the unit at (col p, row p)
        self.adj_table = np.zeros((self.dim, self.dim))
        self.adj_table[coords, first + col * size + row] = 1.0
        for table in (self.basis_mats, self.mul_table, self.adj_table):
            table.flags.writeable = False

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
        coords = as_data(self.coords).reshape(-1)
        if coords.shape[0] != self.algebra.dim:
            raise InvalidArgumentError(
                f"coordinate length {coords.shape[0]} != algebra dimension {self.algebra.dim}"
            )
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)


def make_algebra(block_sizes) -> CStarAlgebra:
    return CStarAlgebra(block_sizes)


def element(algebra: CStarAlgebra, coords) -> AlgebraElement:
    return AlgebraElement(algebra, coords)


def embed(a: AlgebraElement) -> np.ndarray:
    """Faithful block-diagonal n x n matrix of an element."""
    return np.tensordot(a.coords, a.algebra.basis_mats, axes=(0, 0))


def from_matrix(algebra: CStarAlgebra, m: np.ndarray) -> AlgebraElement:
    """Element whose embedding is the block-diagonal part of m."""
    m = np.asarray(m)
    if m.shape != (algebra.rep_dim, algebra.rep_dim):
        raise InvalidArgumentError(f"matrix shape {m.shape} != faithful rep size")
    return AlgebraElement(algebra, m[algebra._rows, algebra._cols])


def unit(algebra: CStarAlgebra) -> AlgebraElement:
    return from_matrix(algebra, np.eye(algebra.rep_dim))
