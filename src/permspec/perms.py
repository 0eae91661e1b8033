"""Permutations in one-line notation and their substitution structure.

A permutation of size n is an immutable tuple holding each of 1..n exactly
once.  This module provides the primitives everything else is built on:
pattern containment, interval and simplicity detection, (generalized)
substitution, the canonical substitution decomposition tree, embeddings of a
permutation into a substitution root, and a brute-force enumeration oracle
for pattern-avoiding classes.

The text form of a permutation is space separated, e.g. ``"3 1 4 2"``, so
that sizes above 9 stay unambiguous.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

DEFAULT_ORACLE_CAP = 10

# Roots of linear decomposition nodes.  Simple permutations act as their own
# root labels; these two string tags cover the non-simple binary cases.
ROOT_12 = "12"
ROOT_21 = "21"


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..n}, n >= 1, in one-line notation.

    >>> str(Perm((3, 1, 4, 2)))
    '3 1 4 2'
    >>> Perm.from_text("3 1 4 2") == Perm((3, 1, 4, 2))
    True
    """

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if not vals or sorted(vals) != list(range(1, len(vals) + 1)):
            raise ValueError(f"not a permutation of 1..n: {vals!r}")

    @classmethod
    def from_text(cls, text: str) -> "Perm":
        """Parse the space-separated literal form, e.g. ``"3 1 4 2"``."""
        try:
            vals = tuple(int(tok) for tok in text.split())
        except ValueError:
            raise ValueError(f"bad permutation literal: {text!r}") from None
        return cls(vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.values)

    def __repr__(self) -> str:
        return f"Perm({self.values!r})"


def perm_key(p: Perm) -> tuple:
    """Canonical sort key: by size, then lexicographically by values."""
    return (len(p.values), p.values)


def pattern_of(values: Sequence[int]) -> Perm:
    """The permutation order-isomorphic to a sequence of distinct integers."""
    vals = tuple(values)
    rank = {v: i + 1 for i, v in enumerate(sorted(vals))}
    return Perm(tuple(rank[v] for v in vals))


@lru_cache(maxsize=None)
def contains(perm: Perm, pattern: Perm) -> bool:
    """True when some subsequence of perm is order-isomorphic to pattern.

    Backtracking subsequence matcher: pattern positions are matched left
    to right, keeping only prefixes consistent with the pattern's
    relative order.

    >>> contains(Perm.from_text("3 1 6 4 5 2"), Perm.from_text("2 4 3 1"))
    True
    >>> contains(Perm.from_text("3 1 6 4 5 2"), Perm.from_text("2 4 1 3"))
    False
    """
    s, p = perm.values, pattern.values
    k, n = len(p), len(s)
    if k > n:
        return False
    chosen: list[int] = []

    def extend(j: int, lo: int) -> bool:
        if j == k:
            return True
        for i in range(lo, n - (k - j) + 1):
            v = s[i]
            if all((v > s[c]) == (p[j] > p[m]) for m, c in enumerate(chosen)):
                chosen.append(i)
                if extend(j + 1, i + 1):
                    return True
                chosen.pop()
        return False

    return extend(0, 0)


def avoids(perm: Perm, patterns: Iterable[Perm]) -> bool:
    return all(not contains(perm, b) for b in patterns)


def minimal_patterns(perms: Iterable[Perm]) -> tuple[Perm, ...]:
    """The minimal elements of a set of permutations under containment."""
    items = sorted(set(perms), key=perm_key)
    out = [p for i, p in enumerate(items)
           if not any(contains(p, q) for q in items[:i])]
    return tuple(out)


def maximal_patterns(perms: Iterable[Perm]) -> tuple[Perm, ...]:
    """The maximal elements of a set of permutations under containment."""
    items = sorted(set(perms), key=perm_key)
    out = [p for p in items
           if not any(q != p and contains(q, p) for q in items)]
    return tuple(out)


@lru_cache(maxsize=None)
def is_simple(perm: Perm) -> bool:
    """True when perm has size >= 4 and only trivial intervals.

    An interval is a range of positions whose values are consecutive.  The
    permutations 1, 12 and 21 have only trivial intervals but do not count
    as simple.

    >>> is_simple(Perm((3, 1, 4, 2))), is_simple(Perm((2, 1)))
    (True, False)
    """
    n = len(perm)
    if n < 4:
        return False
    v = perm.values
    for i in range(n - 1):
        lo = hi = v[i]
        for j in range(i + 1, n):
            lo = min(lo, v[j])
            hi = max(hi, v[j])
            length = j - i + 1
            if length == n:
                break
            if hi - lo + 1 == length:
                return False
    return True


def substitute(skeleton: Perm, args: Sequence[Perm]) -> Perm:
    """Inflate each position of the skeleton by an interval patterned on args[i].

    >>> str(substitute(Perm((1, 3, 2)), [Perm((2, 1)), Perm((1, 3, 2)), Perm((1,))]))
    '2 1 4 6 5 3'
    """
    if len(args) != len(skeleton):
        raise ValueError(f"expected {len(skeleton)} arguments, got {len(args)}")
    n = len(skeleton)
    offsets = [0] * n
    acc = 0
    for pos in sorted(range(n), key=lambda i: skeleton.values[i]):
        offsets[pos] = acc
        acc += len(args[pos])
    out: list[int] = []
    for pos in range(n):
        out.extend(offsets[pos] + v for v in args[pos].values)
    return Perm(tuple(out))


def gen_substitute(skeleton: Perm, args: Sequence[Perm | None]) -> Perm | None:
    """Substitution allowing empty arguments (None); None iff all are empty.

    >>> str(gen_substitute(Perm((1, 3, 2)), [Perm((2, 1)), None, Perm((1,))]))
    '2 1 3'
    """
    if len(args) != len(skeleton):
        raise ValueError(f"expected {len(skeleton)} arguments, got {len(args)}")
    live = [i for i, a in enumerate(args) if a is not None]
    if not live:
        return None
    if len(live) == 1:
        return args[live[0]]
    quotient = pattern_of([skeleton.values[i] for i in live])
    return substitute(quotient, [args[i] for i in live])


@lru_cache(maxsize=None)
def top_split(perm: Perm):
    """The single top level of the canonical decomposition of a permutation.

    Returns ``(root, children)`` where root is None for the size-1
    permutation, "12" or "21" for a linear split (children are the two
    parts, the first part suitably indecomposable), or a simple Perm whose
    children are the patterns of its maximal proper blocks.
    """
    n = len(perm)
    v = perm.values
    if n == 1:
        return None, ()
    run = 0
    for k in range(1, n):
        run = max(run, v[k - 1])
        if run == k:
            return ROOT_12, (pattern_of(v[:k]), pattern_of(v[k:]))
    run = n + 1
    for k in range(1, n):
        run = min(run, v[k - 1])
        if run == n - k + 1:
            return ROOT_21, (pattern_of(v[:k]), pattern_of(v[k:]))
    # Neither linear case applies, so the maximal proper blocks are pairwise
    # disjoint and tile the positions; scan them greedily left to right.
    blocks: list[tuple[int, int]] = []
    pos = 0
    while pos < n:
        best = 1
        lo = hi = v[pos]
        for j in range(pos + 1, n):
            lo = min(lo, v[j])
            hi = max(hi, v[j])
            length = j - pos + 1
            if length == n:
                break
            if hi - lo + 1 == length:
                best = length
        blocks.append((pos, best))
        pos += best
    skeleton = pattern_of([v[start] for start, _ in blocks])
    if not is_simple(skeleton):
        raise AssertionError(f"block quotient of {perm} is not simple")
    children = tuple(pattern_of(v[start:start + length]) for start, length in blocks)
    return skeleton, children


@dataclass(frozen=True)
class DecompTree:
    """Substitution decomposition tree; root is None at the leaves."""

    root: str | Perm | None
    children: tuple["DecompTree", ...] = ()


def _fold(node, children, combine):
    """``combine(node, [values of its children])`` over a tree, bottom up.

    Uses an explicit stack: trees of permutations nest as deep as the
    size (the identity, say), past any recursion limit.
    """
    stack = [(node, children(node), [])]
    while True:
        node, kids, done = stack[-1]
        if len(done) < len(kids):
            stack.append((kids[len(done)], children(kids[len(done)]), []))
            continue
        stack.pop()
        value = combine(node, done)
        if not stack:
            return value
        stack[-1][2].append(value)


def decompose(perm: Perm) -> DecompTree:
    """The canonical decomposition tree of a permutation.

    First children of 12 (resp. 21) nodes are never themselves 12 (resp. 21)
    rooted, and ``rebuild(decompose(perm)) == perm``.
    """
    return _fold(perm, lambda p: top_split(p)[1],
                 lambda p, kids: DecompTree(top_split(p)[0], tuple(kids)))


def rebuild(tree: DecompTree) -> Perm:
    """Reassemble the permutation a decomposition tree describes."""
    return _fold(tree, lambda t: t.children,
                 lambda t, parts: Perm((1,)) if t.root is None
                 else substitute(root_perm(t.root), parts))


def tree_text(tree: DecompTree) -> str:
    """Compact display form, e.g. ``"2413[1,1,1,1]"`` (sizes <= 9 only)."""
    if tree.root is None:
        return "1"
    label = tree.root if isinstance(tree.root, str) else "".join(
        str(v) for v in tree.root.values)
    return label + "[" + ",".join(tree_text(c) for c in tree.children) + "]"


def root_perm(root: str | Perm) -> Perm:
    """The permutation a root label stands for."""
    if root == ROOT_12:
        return Perm((1, 2))
    if root == ROOT_21:
        return Perm((2, 1))
    if isinstance(root, Perm):
        return root
    raise ValueError(f"bad root label: {root!r}")


@lru_cache(maxsize=None)
def tree_labels(perm: Perm) -> frozenset:
    """The set of internal node labels in a permutation's decomposition tree."""
    root, parts = top_split(perm)
    if root is None:
        return frozenset()
    labels = {root}
    for part in parts:
        labels |= tree_labels(part)
    return frozenset(labels)


@lru_cache(maxsize=None)
def is_sum_decomposable(perm: Perm) -> bool:
    """True when the permutation is 12[x, y] for some x, y."""
    run = 0
    for k in range(1, len(perm)):
        run = max(run, perm.values[k - 1])
        if run == k:
            return True
    return False


@lru_cache(maxsize=None)
def is_skew_decomposable(perm: Perm) -> bool:
    """True when the permutation is 21[x, y] for some x, y."""
    n = len(perm)
    run = n + 1
    for k in range(1, n):
        run = min(run, perm.values[k - 1])
        if run == n - k + 1:
            return True
    return False


def indecomposability(perm: Perm) -> tuple[bool, bool]:
    """Flags (12-indecomposable, 21-indecomposable)."""
    return (not is_sum_decomposable(perm), not is_skew_decomposable(perm))


@dataclass(frozen=True)
class Embedding:
    """An assignment of consecutive, possibly empty index blocks of an
    embedded permutation to the positions of a host permutation.

    ``blocks[i]`` is a ``(start, length)`` pair with 1-based start and
    length 0 allowed; concatenated in order the blocks tile every index.
    """

    blocks: tuple[tuple[int, int], ...]

    def induced(self, embedded: Perm, i: int) -> Perm | None:
        """The pattern of the embedded permutation on block i (None when empty)."""
        start, length = self.blocks[i]
        if length == 0:
            return None
        return pattern_of(embedded.values[start - 1:start - 1 + length])

    def nonempty_slots(self) -> tuple[int, ...]:
        return tuple(i for i, (_, length) in enumerate(self.blocks) if length)


@lru_cache(maxsize=None)
def embeddings(embedded: Perm, host: Perm) -> tuple[Embedding, ...]:
    """All embeddings of a permutation into a host, sorted by block boundaries.

    An embedding cuts the embedded permutation's index word into one
    consecutive block per host position, such that the generalized
    substitution of the induced block patterns into the host reproduces
    the embedded permutation.

    >>> len(embeddings(Perm((1,)), Perm((1, 2))))
    2
    """
    g, n = len(embedded), len(host)
    out = []
    for cuts in itertools.combinations_with_replacement(range(g + 1), n - 1):
        bounds = (0, *cuts, g)
        args = tuple(
            None if lo == hi else pattern_of(embedded.values[lo:hi])
            for lo, hi in zip(bounds, bounds[1:]))
        if gen_substitute(host, args) == embedded:
            out.append(Embedding(tuple(
                (lo + 1, hi - lo) for lo, hi in zip(bounds, bounds[1:]))))
    return tuple(out)


def enumerate_avoiders(basis: Iterable[Perm], n: int,
                       cap: int = DEFAULT_ORACLE_CAP) -> list[Perm]:
    """All permutations of size n avoiding every basis element, in
    lexicographic order.  Scans all n! permutations, so n is capped.
    """
    if n > cap:
        raise ValueError(f"oracle size {n} exceeds cap {cap}")
    patterns = tuple(sorted(set(basis), key=perm_key))
    out = []
    for vals in itertools.permutations(range(1, n + 1)):
        p = Perm(vals)
        if avoids(p, patterns):
            out.append(p)
    return out
