"""The simple permutations of a pattern-avoiding class.

Breadth-first extension search with a sound stopping rule.  Seeds of size
4 are found by exhaustive scan, and a simple avoider of size m >= 5 is a
one-point extension (one new point inserted) of one of size m-1 or, for
even m, a parallel alternation, tested directly (Schmerl and Trotter 1993;
Albert and Atkinson 2005).  Levels are sets of ``bytes`` keys; a ``Perm``
is built only for the result.  Let c be a simple avoider p of size m-1
with a new point x at (pos, val):

- c is simple iff x is not a corner (pos at an end, val 1 or m) and is not
  next to val-1 or val+1: any other interval of c of two or more points,
  less x, is one of p of two or more points, so p: the interval is c.
- c avoids the basis iff no occurrence in c uses x, since one that misses
  x lies in p: ``contains_through`` at pos.

Two consecutive empty sizes m-1 and m prove the set is complete: a simple
avoider of size m+1 would contain one of size m or, as a parallel
alternation, one of size m-1, and so on by induction.  Otherwise the search
stops at the cap (at most 255, the largest value a key holds) and the
result is marked truncated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .perms import (InvalidInputError, Perm, avoids, contains_through,
                    is_simple, perm_key)

DEFAULT_SIMPLES_CAP = 12


@dataclass(frozen=True)
class SimplesResult:
    """Outcome of the simple-permutation search.

    ``explored`` is the largest size examined.  When ``complete`` is true,
    the two sizes after the largest member contained no simple avoiders, so
    the set is provably the whole thing.
    """

    simples: tuple[Perm, ...]
    complete: bool
    explored: int

    @property
    def status(self) -> str:
        return "complete" if self.complete else f"truncated at {self.explored}"


def _parallel_alternations(m: int) -> set[Perm]:
    """The symmetries of 2 4 ... m 1 3 ... m-1 for even m >= 4, all simple:
    2413 and 3142 at m = 4, four at every larger m.  The complement of the
    base is its reverse, so reverse and inverse reach all eight."""
    base = tuple(range(2, m + 1, 2)) + tuple(range(1, m, 2))
    inverse = tuple(sorted(range(1, m + 1), key=lambda i: base[i - 1]))
    return {Perm(w) for v in (base, inverse) for w in (v, v[::-1])}


def _extensions(level: set[bytes], patterns: tuple[Perm, ...],
                m: int) -> set[bytes]:
    """The simple avoiders of size m, from the level of size m-1."""
    where = {}  # each simple candidate, with the place its new point took
    if m % 2 == 0:  # an alternation extends no simple: any place (pos = m)
        where = dict.fromkeys(map(bytes, _parallel_alternations(m)), m)
    for val in range(1, m + 1):
        lift = bytes.maketrans(bytes(range(val, m)), bytes(range(val + 1, m + 1)))
        free = set(range(1, m - 1) if val in (1, m) else range(m))
        for p in level:
            p = p.translate(lift)
            # find gives -1 only when val is 1 or m, where 0 is not free.
            a, b = p.find(val - 1), p.find(val + 1)
            for pos in free - {a, a + 1, b, b + 1}:
                where.setdefault(p[:pos] + bytes((val,)) + p[pos:], pos)
    return {c for c, pos in where.items()
            if not any(contains_through(c, q, pos) for q in patterns)}


def compute_simples(basis: Iterable[Perm],
                    cap: int = DEFAULT_SIMPLES_CAP) -> SimplesResult:
    """All simple permutations avoiding the basis, up to the cap.

    The basis must be nonempty with every element of size >= 2, and the cap
    at least 6 so that the stopping rule has room to fire.
    """
    patterns = tuple(sorted(set(basis), key=perm_key))
    if not patterns:
        raise InvalidInputError("basis must be nonempty")
    if any(len(b) < 2 for b in patterns):
        raise InvalidInputError("basis elements must have size >= 2")
    if cap < 6:
        raise InvalidInputError(f"cap must be >= 6, got {cap}")

    levels = {4: {bytes(p) for p in map(Perm, itertools.permutations(range(1, 5)))
                  if is_simple(p) and avoids(p, patterns)}}
    complete, explored = False, 4
    for m in range(5, min(cap, 255) + 1):
        levels[m] = _extensions(levels[m - 1], patterns, m)
        explored = m
        if not levels[m] and not levels[m - 1]:
            complete = True
            break

    return SimplesResult(tuple(Perm(k) for level in levels.values()
                               for k in sorted(level)), complete, explored)
