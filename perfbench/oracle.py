"""Reference checks written independently of permspec.

Nothing here imports permspec: the benchmark judges the program's output
with its own code.  Permutations are plain tuples of 1..n.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb


def is_perm(p) -> bool:
    return sorted(p) == list(range(1, len(p) + 1))


def pattern(seq) -> tuple[int, ...]:
    """The permutation order-isomorphic to a sequence of distinct values."""
    rank = {v: i + 1 for i, v in enumerate(sorted(seq))}
    return tuple(rank[v] for v in seq)


def is_simple(p) -> bool:
    """Size at least 4 and no interval other than singletons and the whole."""
    n = len(p)
    if n < 4:
        return False
    for i in range(n - 1):
        lo = hi = p[i]
        for j in range(i + 1, n if i else n - 1):
            lo, hi = min(lo, p[j]), max(hi, p[j])
            if hi - lo == j - i:
                return False
    return True


def contains_brute(perm, patt) -> bool:
    """Containment by trying every subsequence; for small permutations."""
    k = len(patt)
    return any(pattern(sub) == tuple(patt)
               for sub in itertools.combinations(perm, k))


def _shift(block):
    """The pattern of a block whose values are consecutive."""
    low = min(block) - 1
    return tuple(v - low for v in block)


def _split(perm, sum_split: bool):
    """First cut k with perm = A (+) B (sum) or A (-) B (skew), else None."""
    n = len(perm)
    run = 0 if sum_split else n + 1
    for k in range(1, n):
        if sum_split:
            run = max(run, perm[k - 1])
            if run == k:
                return k
        else:
            run = min(run, perm[k - 1])
            if run == n - k + 1:
                return k
    return None


def _blocks(perm):
    """Maximal proper intervals of a sum- and skew-indecomposable perm."""
    n, out, pos = len(perm), [], 0
    while pos < n:
        best, lo, hi = 1, perm[pos], perm[pos]
        for j in range(pos + 1, n):
            lo, hi = min(lo, perm[j]), max(hi, perm[j])
            if j - pos + 1 == n:
                break
            if hi - lo == j - pos:
                best = j - pos + 1
        out.append((pos, pos + best))
        pos += best
    return out


class Containment:
    """Pattern containment through the substitution decomposition.

    An occurrence of a pattern in ``A (+) B`` splits it as ``P (+) Q`` with
    P in A and Q in B; in a simple inflation ``S[a_1..a_m]`` its points in
    each block form an interval of the pattern, and the blocks used are
    ordered as S orders them.  Recursing on that is polynomial in the size
    of the permutation for a fixed pattern, unlike a subsequence search.
    """

    def __init__(self):
        self._memo: dict = {}
        self._parts: dict = {}

    def __call__(self, perm, patt) -> bool:
        perm, patt = tuple(perm), tuple(patt)
        g, n = len(patt), len(perm)
        if g <= 1:
            return g <= n
        if g >= n:
            return g == n and perm == patt
        key = (perm, patt)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._contains(perm, patt)
        return hit

    def _decompose(self, perm):
        """("sum" | "skew", A, B) or ("simple", skeleton, parts); cached."""
        hit = self._parts.get(perm)
        if hit is None:
            for kind in ("sum", "skew"):
                k = _split(perm, kind == "sum")
                if k is not None:
                    hit = (kind, _shift(perm[:k]), _shift(perm[k:]))
                    break
            else:
                blocks = _blocks(perm)
                hit = ("simple", pattern([perm[lo] for lo, _ in blocks]),
                       [_shift(perm[lo:hi]) for lo, hi in blocks])
            self._parts[perm] = hit
        return hit

    def _contains(self, perm, patt) -> bool:
        kind, first, second = self._decompose(perm)
        if kind != "simple":
            return any(self(first, head) and self(second, tail)
                       for head, tail in _linear_cuts(patt, kind == "sum"))
        return any(all(self(second[i], piece) for i, piece in split)
                   for split in _simple_splits(patt, first))


@lru_cache(maxsize=None)
def _linear_cuts(patt, sum_split: bool):
    """Ways to write patt as head (+) tail (sum) or head (-) tail (skew)."""
    g, out = len(patt), []
    for c in range(g + 1):
        head = patt[:c]
        if head and (max(head) != c if sum_split else min(head) != g - c + 1):
            continue
        out.append((pattern(head), pattern(patt[c:])))
    return tuple(out)


@lru_cache(maxsize=None)
def _simple_splits(patt, skeleton):
    """Ways to spread patt over the blocks of an inflation of skeleton.

    Each way lists (block index, pattern of the points in that block): the
    points in a block are consecutive in position and in value, and the
    blocks used are ordered by value as the skeleton orders them.
    """
    g, out = len(patt), []
    for cuts in itertools.combinations_with_replacement(
            range(g + 1), len(skeleton) - 1):
        bounds = (0, *cuts, g)
        used = [(skeleton[i], patt[lo:hi], i)
                for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
                if hi > lo]
        if any(max(piece) - min(piece) + 1 != len(piece) for _, piece, _ in used):
            continue
        by_value = sorted(used)
        if any(min(q[1]) < max(p[1]) for p, q in zip(by_value, by_value[1:])):
            continue
        out.append(tuple((i, pattern(piece)) for _, piece, i in used))
    return tuple(out)


def avoids_all(perm, basis) -> bool:
    """True when perm avoids every basis element."""
    test = Containment()
    return not any(test(perm, b) for b in basis)


def catalan(n: int) -> int:
    """Members of Av(132) of size n."""
    return comb(2 * n, n) // (n + 1)


def large_schroder(count: int) -> list[int]:
    """Members of Av(2413, 3142) of sizes 1..count: r_0 .. r_{count-1}.

    Uses (m + 1) r_m = 3 (2m - 1) r_{m-1} - (m - 2) r_{m-2}, which holds
    for the large Schroeder numbers 1, 2, 6, 22, 90, ...
    """
    r = [1, 2]
    for m in range(2, count):
        r.append((3 * (2 * m - 1) * r[m - 1] - (m - 2) * r[m - 2]) // (m + 1))
    return r[:count]
