"""The simple permutations of a pattern-avoiding class.

Breadth-first extension search with a sound stopping rule: seeds of size 4
are found by exhaustive scan, and candidates of size m are the one-point
extensions (one new value inserted) of the simple avoiders of size m-1,
plus, for even m, the parallel alternations of size m.  A simple
permutation of size n >= 5 contains a simple one of size n-1 unless it is
a parallel alternation (Schmerl and Trotter 1993; Albert and Atkinson
2005), and those are added directly, so nothing is missed.  Candidates are
tested for avoidance first and simplicity second.

Two consecutive empty sizes m-1 and m prove the set is complete: a simple
avoider of size m+1 would contain a simple avoider of size m or, as a
parallel alternation, one of size m-1 (the alternation two sizes smaller),
and by induction the same holds at every larger size.  Otherwise the
search stops at the cap and the result is marked truncated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .perms import InvalidInputError, Perm, avoids, is_simple, perm_key

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


def _one_point_extensions(p: Perm) -> set[Perm]:
    """All permutations of size n+1 obtained by inserting one new value."""
    n = len(p)
    out = set()
    for val in range(1, n + 2):
        lifted = [v + 1 if v >= val else v for v in p]
        for pos in range(n + 1):
            out.add(Perm(lifted[:pos] + [val] + lifted[pos:]))
    return out


def _parallel_alternations(m: int) -> set[Perm]:
    """The symmetries of 2 4 ... m 1 3 ... m-1 for even m >= 4, all simple:
    2413 and 3142 at m = 4, four at every larger m.  The complement of the
    base is its reverse, so reverse and inverse reach all eight."""
    base = tuple(range(2, m + 1, 2)) + tuple(range(1, m, 2))
    inverse = tuple(sorted(range(1, m + 1), key=lambda i: base[i - 1]))
    return {Perm(w) for v in (base, inverse) for w in (v, v[::-1])}


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

    def keep(p: Perm) -> bool:
        return avoids(p, patterns) and is_simple(p)

    seeds = (Perm(v) for v in itertools.permutations(range(1, 5)))
    levels: dict[int, set[Perm]] = {4: {p for p in seeds if keep(p)}}
    complete = False
    explored = 4
    for m in range(5, cap + 1):
        candidates = _parallel_alternations(m) if m % 2 == 0 else set()
        for p in levels[m - 1]:
            candidates |= _one_point_extensions(p)
        levels[m] = {c for c in candidates if keep(c)}
        explored = m
        if not levels[m] and not levels[m - 1]:
            complete = True
            break

    found = sorted((p for level in levels.values() for p in level), key=perm_key)
    return SimplesResult(tuple(found), complete, explored)
