"""The simple permutations of a pattern-avoiding class.

Breadth-first extension search with a sound stopping rule: seeds of size 4
are found by exhaustive scan, candidates of size m are produced by inserting
one new value into each simple avoider of size m-1 and two new values into
each simple avoider of size m-2 (every simple permutation contains a simple
permutation one or two sizes smaller, so nothing is missed).  Two
consecutive empty sizes prove the set is complete; otherwise the search
stops at the cap and the result is marked truncated.
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
        lifted = [v + 1 if v >= val else v for v in p.values]
        for pos in range(n + 1):
            out.add(Perm(tuple(lifted[:pos] + [val] + lifted[pos:])))
    return out


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
        return is_simple(p) and avoids(p, patterns)

    levels: dict[int, set[Perm]] = {2: set(), 3: set()}
    levels[4] = {Perm(v) for v in itertools.permutations(range(1, 5)) if keep(Perm(v))}

    complete = False
    explored = 4
    for m in range(5, cap + 1):
        candidates: set[Perm] = set()
        for p in levels[m - 1]:
            candidates |= _one_point_extensions(p)
        for p in levels[m - 2]:
            for q in _one_point_extensions(p):
                candidates |= _one_point_extensions(q)
        levels[m] = {c for c in candidates if keep(c)}
        explored = m
        if not levels[m] and not levels[m - 1]:
            complete = True
            break

    found = sorted((p for level in levels.values() for p in level), key=perm_key)
    return SimplesResult(tuple(found), complete, explored)
