"""Lattice points of N^k: arithmetic, partial order, meets.

Points are plain tuples of nonnegative ints (elements of the difference
group Z^k may carry negative entries).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

Point = tuple[int, ...]


def zero(k: int) -> Point:
    return (0,) * k


def unit(k: int, i: int, amount: int = 1) -> Point:
    """e_i(amount): `amount` in coordinate i (1-based), zero elsewhere."""
    if not 1 <= i <= k:
        raise ValueError(f"coordinate index {i} out of range 1..{k}")
    return tuple(amount if j == i - 1 else 0 for j in range(k))


def add(s: Point, t: Point) -> Point:
    return tuple(a + b for a, b in zip(s, t, strict=True))


def sub(s: Point, t: Point) -> Point:
    return tuple(a - b for a, b in zip(s, t, strict=True))


def leq(s: Point, t: Point) -> bool:
    return all(a <= b for a, b in zip(s, t, strict=True))


def meet(s: Point, t: Point) -> Point:
    """Coordinatewise minimum s ^ t, the greatest lower bound."""
    return tuple(min(a, b) for a, b in zip(s, t, strict=True))


def is_zero(s: Point) -> bool:
    return all(a == 0 for a in s)


def restrict(s: Point, u: Iterable[int]) -> Point:
    """s[u]: keep coordinates in the 1-based index set u, zero the rest."""
    keep = set(u)
    return tuple(a if (j + 1) in keep else 0 for j, a in enumerate(s))


def grade(s: Point) -> tuple[int, Point]:
    """Graded-lexicographic sort key."""
    return (sum(s), s)


def box(bound: Point) -> list[Point]:
    """All points 0 <= s <= bound in graded lexicographic order."""
    pts = itertools.product(*(range(b + 1) for b in bound))
    return sorted(pts, key=grade)


def subsets(v: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All subsets of v, in size-then-lex order (empty set first)."""
    items = sorted(v)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def support(s: Point) -> tuple[int, ...]:
    """1-based coordinates where s is nonzero."""
    return tuple(j + 1 for j, a in enumerate(s) if a != 0)
