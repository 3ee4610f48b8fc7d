"""Lattice points of N^k: arithmetic, partial order, meets.

Points are plain tuples of nonnegative ints (elements of the difference
group Z^k may carry negative entries). The binary helpers (add, sub, leq,
meet) raise ValueError on points of different lengths, as zip(strict=True)
would; they check the lengths once and then run one map over the
coordinates, because the T^ checks call them thousands of times per run.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Sequence

Point = tuple[int, ...]


def zero(k: int) -> Point:
    return (0,) * k


def unit(k: int, i: int) -> Point:
    """e_i: 1 in coordinate i (1-based), zero elsewhere."""
    if not 1 <= i <= k:
        raise ValueError(f"coordinate index {i} out of range 1..{k}")
    return tuple(int(j == i - 1) for j in range(k))


def _length_error(s: Point, t: Point) -> ValueError:
    return ValueError(f"lattice points of different lengths: {s} and {t}")


def add(s: Point, t: Point) -> Point:
    if len(s) != len(t):
        raise _length_error(s, t)
    return tuple(map(operator.add, s, t))


def sub(s: Point, t: Point) -> Point:
    if len(s) != len(t):
        raise _length_error(s, t)
    return tuple(map(operator.sub, s, t))


def leq(s: Point, t: Point) -> bool:
    if len(s) != len(t):
        raise _length_error(s, t)
    return not any(map(operator.gt, s, t))


def meet(s: Point, t: Point) -> Point:
    """Coordinatewise minimum s ^ t, the greatest lower bound."""
    if len(s) != len(t):
        raise _length_error(s, t)
    return tuple(map(min, s, t))


def is_zero(s: Point) -> bool:
    return not any(s)


def restrict(s: Point, u: Iterable[int]) -> Point:
    """s[u]: keep coordinates in the 1-based index set u, zero the rest."""
    keep = set(u)
    return tuple([a if j in keep else 0 for j, a in enumerate(s, 1)])


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


def last(s: Point) -> int:
    """The largest 1-based coordinate where s is nonzero, 0 for s = 0: the
    last letter of the normal word of s."""
    i = len(s)
    while i and not s[i - 1]:
        i -= 1
    return i


def step(s: Point, i: int, by: int) -> Point:
    """s + by e_i for the 1-based coordinate i."""
    return s[: i - 1] + (s[i - 1] + by,) + s[i:]


def support(s: Point) -> tuple[int, ...]:
    """1-based coordinates where s is nonzero."""
    return tuple(j + 1 for j, a in enumerate(s) if a != 0)
