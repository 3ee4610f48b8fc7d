"""The truncated block space H_L and the contractive semigroup of
block-lowering operators.

H_L = H (+) sum over 0 < s <= L of X(s) (x)_sigma H, with blocks ordered
graded-lexicographically. Every lowering operator maps block t into block
t - s and annihilates blocks with t not >= s, so H_L is invariant and all
semigroup identities hold exactly on it: the truncation only limits which
vectors exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .cstar import AlgebraElement
from .errors import InvalidArgumentError
from .linalg import kron, opnorm
from .representation import CCRepresentation


@dataclass(frozen=True)
class HatOperator:
    point: lattice.Point
    matrix: np.ndarray = field(compare=False)

    @property
    def norm(self) -> float:
        return opnorm(self.matrix)


class TruncatedFock:
    def __init__(self, rep: CCRepresentation, bound: lattice.Point):
        bound = tuple(int(b) for b in bound)
        if len(bound) != rep.system.k or any(b < 0 for b in bound):
            raise InvalidArgumentError(f"bad truncation bound {bound}")
        self.rep = rep
        self.bound = bound
        self.blocks: list[lattice.Point] = lattice.box(bound)
        self.block_index = {s: i for i, s in enumerate(self.blocks)}
        self.locs = [rep.loc(s) for s in self.blocks]
        offsets = []
        total = 0
        for loc in self.locs:
            offsets.append(total)
            total += loc.rank
        self.offsets = offsets
        self.dim = total
        self._hats: dict[lattice.Point, HatOperator] = {}

    def block_slice(self, s: lattice.Point) -> slice:
        i = self.block_index[tuple(s)]
        return slice(self.offsets[i], self.offsets[i] + self.locs[i].rank)

    def block_loc(self, s: lattice.Point):
        return self.locs[self.block_index[tuple(s)]]

    def inject(self, s: lattice.Point, block_vec: np.ndarray) -> np.ndarray:
        """Embed a block coordinate vector as delta_s . (that vector)."""
        out = np.zeros(self.dim, dtype=complex)
        out[self.block_slice(s)] = block_vec
        return out

    def delta(self, s: lattice.Point, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Coordinates of delta_s . (x (x) h); for s = 0, x is ignored."""
        s = tuple(s)
        if lattice.is_zero(s):
            return self.inject(s, np.asarray(h, dtype=complex))
        raw = kron(np.asarray(x, dtype=complex), np.asarray(h, dtype=complex))
        return self.inject(s, self.block_loc(s).factor @ raw)

    def hat(self, s: lattice.Point) -> HatOperator:
        """The lowering operator T^_s on H_L."""
        s = tuple(s)
        if any(c < 0 for c in s):
            raise InvalidArgumentError(f"lattice point must be nonnegative: {s}")
        cached = self._hats.get(s)
        if cached is not None:
            return cached
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        if lattice.is_zero(s):
            mat = np.eye(self.dim, dtype=complex)
        else:
            for t in self.blocks:
                if lattice.leq(s, t):
                    block = self.rep.lowering_block(t, s)
                    mat[self.block_slice(lattice.sub(t, s)), self.block_slice(t)] = block
        op = HatOperator(s, mat)
        self._hats[s] = op
        return op


def check_hat_semigroup(space: TruncatedFock, s: lattice.Point, t: lattice.Point) -> float:
    """|| T^_s T^_t - T^_{s+t} || on H_L (exact, not truncated)."""
    prod = space.hat(s).matrix @ space.hat(t).matrix
    return opnorm(prod - space.hat(lattice.add(s, t)).matrix)


def check_technology(space: TruncatedFock, s: lattice.Point, x: np.ndarray, h: np.ndarray) -> float:
    """|| T^_s (delta_s . x (x) h) - delta_0 . T_s(x) h ||."""
    s = tuple(s)
    if lattice.is_zero(s) or not lattice.leq(s, space.bound):
        raise InvalidArgumentError("technology check needs 0 < s <= L")
    vec = space.delta(s, x, h)
    raw = kron(np.asarray(x, dtype=complex), np.asarray(h, dtype=complex))
    expected = space.delta(lattice.zero(len(s)), None, space.rep.t_raw(s) @ raw)
    return float(np.linalg.norm(space.hat(s).matrix @ vec - expected))


def a_action(space: TruncatedFock, a: AlgebraElement) -> np.ndarray:
    """Block-diagonal left action of an algebra element on H_L."""
    rep = space.rep
    if a.algebra != rep.system.algebra:
        raise InvalidArgumentError("element lives over a different algebra")
    from .correspondence import descend_map  # local import avoids a cycle at import time

    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for s in space.blocks:
        sl = space.block_slice(s)
        if lattice.is_zero(s):
            mat[sl, sl] = rep.sigma.apply(a.coords)
        else:
            corr = rep.system.fiber(s).correspondence
            raw = kron(corr.act_left(a.coords), np.eye(rep.dim))
            loc = space.block_loc(s)
            mat[sl, sl] = descend_map(raw, loc, loc, rep.tol)
    return mat


def brehmer_check_hat(space: TruncatedFock, v, s: lattice.Point) -> float:
    """Minimum eigenvalue of sum over u subset v of (-1)^|u| T^_{s[u]}^H T^_{s[u]}."""
    total = np.zeros((space.dim, space.dim), dtype=complex)
    s = tuple(s)
    for u in lattice.subsets(tuple(v)):
        su = lattice.restrict(s, u)
        hat = space.hat(su).matrix
        total += ((-1) ** len(u)) * (hat.conj().T @ hat)
    if space.dim == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (total + total.conj().T)).min())
