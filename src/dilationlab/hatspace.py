"""The truncated block space H_L and the checks of the contractive semigroup
of block-lowering operators on it.

H_L = H (+) sum over 0 < s <= L of X(s) (x)_sigma H, one block loc(s) per
lattice point of the box. The lowering operator T^_s maps block r into
block r - s by Theta(r, s) = CCRepresentation.lowering_block(r, s) and
annihilates blocks with r not >= s, so H_L is invariant and all semigroup
identities hold exactly on it: the truncation only limits which vectors
exist. The blocks loc(s) of the box, and the Theta a check needs, are
requested from CCRepresentation.build in one call each, which computes
them in stacks grouped by shape.

No T^ is formed as a dim H_L square matrix. Every identity checked here is
an operator D on H_L that maps each block r into at most one block f(r),
with f injective. Then D^H D is block diagonal with blocks D_r^H D_r, so
||D|| = max_r ||D_r|| over the nonzero blocks D_r: r -> f(r), and each
check is one max_opnorm over those blocks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from . import lattice
from .errors import InvalidArgumentError
from .linalg import max_opnorm, opnorm  # noqa: F401  opnorm stays importable from here
from .representation import CCRepresentation


class TruncatedFock:
    """The blocks loc(s), 0 <= s <= bound, of H_L and its dimension."""

    def __init__(self, rep: CCRepresentation, bound: lattice.Point):
        bound = tuple(int(b) for b in bound)
        if len(bound) != rep.system.k or any(b < 0 for b in bound):
            raise InvalidArgumentError(f"bad truncation bound {bound}")
        self.rep = rep
        self.bound = bound
        self.blocks: list[lattice.Point] = lattice.box(bound)
        rep.build(points=self.blocks)
        self.locs = [rep.loc(s) for s in self.blocks]
        self.dim = sum(loc.rank for loc in self.locs)


def _semigroup_defects(
    space: TruncatedFock, pairs: Iterable[tuple[lattice.Point, lattice.Point]]
) -> Iterator[np.ndarray]:
    """Blocks of T^_s T^_t - T^_{s+t} for each pair (s, t).

    The defect maps block r >= s + t to block r - s - t by
    Theta(r - t, s) Theta(r, t) - Theta(r, s + t) and vanishes elsewhere,
    so it is zero when s + t leaves the box. For s = 0 or t = 0 it is
    exactly zero as well (Theta(r, 0) = I). Such pairs are skipped. The
    blocks r = s + t + u run over u in the box up to bound - s - t, which
    lists them in the order of space.blocks. The blocks of all the pairs
    are built in one call.
    """
    keys = []
    for s, t in pairs:
        st = lattice.add(s, t)
        if lattice.is_zero(s) or lattice.is_zero(t) or not lattice.leq(st, space.bound):
            continue
        for u in lattice.box(lattice.sub(space.bound, st)):
            r = lattice.add(st, u)
            keys += [(lattice.add(s, u), s), (r, t), (r, st)]
    blocks = space.rep.build(keys=keys)
    for x in range(0, len(blocks), 3):
        yield blocks[x] @ blocks[x + 1] - blocks[x + 2]


def hat_checks(space: TruncatedFock) -> dict[str, float]:
    """Residuals of the semigroup law at the generator steps, and of the
    technology identity T^_s (delta_s . x (x) h) = delta_0 . T_s(x) h.

    The semigroup residual eps is over the pairs (e_i, t), t in the box.
    It bounds ||T^_s T^_t - T^_{s+t}|| by (2|s| - 1) eps for every pair,
    by induction on |s|: with s = e_i + u, the defect of (s, t) is that of
    (e_i, u + t) plus T^_{e_i} times that of (u, t) minus that of (e_i, u)
    times T^_t, and every T^ is a contraction.

    The technology map is the block Theta(s, s): loc(s) -> H of T^_s, so
    its residual is max over 0 < s <= L of ||Theta(s, s) F_s - T_s||, with
    F_s the localization factor and T_s on raw fiber (x) H coordinates.
    Each residual builds its blocks in one call.
    """
    rep = space.rep
    k = rep.system.k
    pairs = [(lattice.unit(k, i), t) for i in range(1, k + 1) for t in space.blocks]
    semigroup = max_opnorm(_semigroup_defects(space, pairs))
    steps = [(s, loc) for s, loc in zip(space.blocks, space.locs) if not lattice.is_zero(s)]
    thetas = rep.build(keys=[(s, s) for s, _loc in steps])
    technology = (theta @ loc.factor - rep.t_raw(s) for (s, loc), theta in zip(steps, thetas))
    return {"hat_semigroup": semigroup, "technology": max_opnorm(technology)}
