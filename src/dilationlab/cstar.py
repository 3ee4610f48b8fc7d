"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

An algebra with block sizes (n_1, ..., n_r) has linear dimension sum(n_i^2)
and a faithful block-diagonal representation of size n = sum(n_i). The
canonical basis is the list of matrix units, block-major then row-major.
An element is a coordinate vector in that basis; the algebra carries the
tables the package computes with: the embedded matrix units, the
structure constants of the product and the adjoint, and the unit.
"""

from __future__ import annotations

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
        # embedded matrix units: an element embeds as sum_p coords[p] basis_mats[p]
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
        # the unit is the sum of the diagonal matrix units
        self.unit = (row == col).astype(float)
        for table in (self.basis_mats, self.mul_table, self.adj_table, self.unit):
            table.flags.writeable = False

    def __eq__(self, other):
        return isinstance(other, CStarAlgebra) and self.block_sizes == other.block_sizes

    def __hash__(self):
        return hash(self.block_sizes)

    def __repr__(self):
        return f"CStarAlgebra(block_sizes={list(self.block_sizes)})"

