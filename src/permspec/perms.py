"""Permutations in one-line notation and their substitution structure.

A permutation of size n is a ``Perm``: a tuple, checked on construction to
hold each of 1..n exactly once.  This module provides the primitives
everything else is built on: pattern containment (pairwise, and for all
permutations up to a size by one-point deletion), the top level of the
canonical decomposition (``split_blocks``, from which simplicity is also
read), (generalized) substitution, the decomposition tree, embeddings into
a substitution root, and a brute-force oracle for Av(basis).

The text form of a permutation is space separated, e.g. ``"3 1 4 2"``, so
that sizes above 9 stay unambiguous.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

DEFAULT_ORACLE_CAP = 10


class InvalidInputError(ValueError):
    """Unparseable or inconsistent user input, including out-of-range
    arguments; any other ValueError signals a bug."""


class Perm(tuple):
    """A permutation of {1..n}, n >= 1, in one-line notation.

    It is the tuple of its values, so it compares and hashes like that
    tuple, and slicing gives a plain tuple.

    >>> str(Perm((3, 1, 4, 2)))
    '3 1 4 2'
    >>> Perm.from_text("3 1 4 2") == Perm((3, 1, 4, 2))
    True
    >>> Perm([3, 1, 2]), Perm([3, 1, 2]) == (3, 1, 2)
    (Perm((3, 1, 2)), True)
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int]):
        self = tuple.__new__(cls, values)
        if not self or sorted(self) != list(range(1, len(self) + 1)):
            raise ValueError(
                f"not a permutation of 1..n: {tuple.__repr__(self)}")
        return self

    @property
    def values(self) -> "Perm":
        """The permutation itself, for callers that spell out the values."""
        return self

    @classmethod
    def from_text(cls, text: str) -> "Perm":
        """Parse the space-separated literal form, e.g. ``"3 1 4 2"``."""
        try:
            vals = tuple(int(tok) for tok in text.split())
        except ValueError:
            raise ValueError(f"bad permutation literal: {text!r}") from None
        return cls(vals)

    def __str__(self) -> str:
        return " ".join(map(str, self))

    def __repr__(self) -> str:
        return f"Perm({tuple.__repr__(self)})"


# Roots of linear decomposition nodes; every other root is a simple Perm.
ROOT_12 = Perm((1, 2))
ROOT_21 = Perm((2, 1))


def perm_key(p: Perm) -> tuple:
    """Canonical sort key: by size, then lexicographically by values."""
    return (len(p), p)


def pattern_of(values: Sequence[int]) -> Perm:
    """The permutation order-isomorphic to a sequence of distinct integers."""
    rank = {v: i + 1 for i, v in enumerate(sorted(values))}
    return Perm([rank[v] for v in values])


@lru_cache(maxsize=1024)
def _neighbours(p: Perm) -> tuple[tuple[int, int], ...]:
    """Per pattern position j, the earlier positions holding the nearest
    smaller and the nearest larger value; -2 and -1 (the two sentinel slots
    of ``contains_through``) stand in where there is none."""
    return tuple(
        (max((m for m in range(j) if p[m] < v), key=p.__getitem__, default=-2),
         min((m for m in range(j) if p[m] > v), key=p.__getitem__, default=-1))
        for j, v in enumerate(p))


@lru_cache(maxsize=1024)
def _value_order(p: Perm) -> tuple[int, ...]:
    """The positions of p, from 0, in the order of their values."""
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _longest_increasing(p: Sequence[int]) -> int:
    """The length of p's longest increasing subsequence (patience sorting)."""
    tails: list[int] = []
    for v in p:
        i = bisect_left(tails, v)
        tails[i:i + 1] = [v]
    return len(tails)


@lru_cache(maxsize=None)
def contains(perm: Perm, pattern: Perm) -> bool:
    """True when some subsequence of perm is order-isomorphic to pattern; at
    once False when pattern has a longer monotone subsequence than perm.

    >>> contains(Perm.from_text("3 1 6 4 5 2"), Perm.from_text("2 4 3 1"))
    True
    >>> contains(Perm.from_text("3 1 6 4 5 2"), Perm.from_text("2 4 1 3"))
    False
    """
    return all(_longest_increasing(pattern[::s]) <= _longest_increasing(perm[::s])
               for s in (1, -1)) and contains_through(perm, pattern, len(perm))


def contains_through(perm: Sequence[int], pattern: Perm, pos: int) -> bool:
    """True when pattern occurs in perm (a ``Perm`` or ``bytes``) at
    positions that include pos or all lie left of it.  Backtracking: the
    pattern's positions are matched left to right, none right of pos until
    pos is matched, each to a value strictly between those matched to its
    neighbours in ``_neighbours`` (a matched prefix is order-isomorphic to
    the pattern's)."""
    k, n = len(pattern), len(perm)
    if k > n:
        return False
    bounds = _neighbours(pattern)
    got = [0] * k + [0, n + 1]  # matched values, then the two sentinels
    start = [0] * (k + 1)       # where each position's search resumes, then
    j = 0                       # a 0 that start[j - 1] reads at j = 0
    while j >= 0:
        lo, hi = bounds[j]
        a, b = got[lo], got[hi]
        i, last = start[j], n - k + j
        if start[j - 1] <= pos < last:  # pos is not matched yet
            last = pos
        while i <= last and not a < perm[i] < b:
            i += 1
        if i > last:
            j -= 1
            continue
        got[j] = perm[i]
        if j == k - 1:
            return True
        start[j] = i + 1
        j += 1
        start[j] = i + 1
    return False


def avoids(perm: Perm, patterns: Iterable[Perm]) -> bool:
    return all(not contains(perm, b) for b in patterns)


def minimal_patterns(perms: Iterable[Perm]) -> tuple[Perm, ...]:
    """The minimal elements of a set of permutations under containment."""
    items = sorted(set(perms), key=perm_key)
    return tuple(p for i, p in enumerate(items)
                 if not any(contains(p, q) for q in items[:i]))


@lru_cache(maxsize=None)
def is_simple(perm: Perm) -> bool:
    """True when perm has size >= 4 and only trivial intervals, i.e. when
    ``split_blocks`` cuts it into singletons.

    An interval is a range of positions whose values are consecutive.  The
    permutations 1, 12 and 21 have only trivial intervals but do not count
    as simple.

    >>> is_simple(Perm((3, 1, 4, 2))), is_simple(Perm((2, 1)))
    (True, False)
    """
    return len(perm) >= 4 and len(split_blocks(perm)[1]) == len(perm)


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
    for pos in _value_order(skeleton):
        offsets[pos] = acc
        acc += len(args[pos])
    out: list[int] = []
    for pos in range(n):
        out.extend(offsets[pos] + v for v in args[pos])
    return Perm(out)


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
    quotient = pattern_of([skeleton[i] for i in live])
    return substitute(quotient, [args[i] for i in live])


def split_blocks(perm: Sequence[int]):
    """The single top level of the canonical decomposition of a sequence
    of 1..n (a ``Perm``, a tuple or ``bytes``): ``(root, blocks)`` with the
    root of ``top_split`` and one ``(start, length, low)`` per part, its
    first position from 0, its length and its least value.

    >>> split_blocks(bytes((3, 4, 6, 2, 1, 5)))
    (Perm((2, 4, 1, 3)), ((0, 2, 3), (2, 1, 6), (3, 2, 1), (5, 1, 5)))
    """
    n = len(perm)
    if n == 1:
        return None, ()
    # A proper prefix holding 1..k cannot also hold n-k+1..n, so the first
    # prefix of either kind gives the split.
    hi, lo = 0, n + 1
    for k in range(1, n):
        if perm[k - 1] > hi:
            hi = perm[k - 1]
        if perm[k - 1] < lo:
            lo = perm[k - 1]
        if hi == k:
            return ROOT_12, ((0, k, 1), (k, n - k, k + 1))
        if lo == n - k + 1:
            return ROOT_21, ((0, k, lo), (k, n - k, 1))
    # Neither linear case applies, so the maximal proper blocks are pairwise
    # disjoint and tile the positions; scan them greedily left to right.
    blocks: list[tuple[int, int, int]] = []
    pos = 0
    while pos < n:
        best, low = 1, perm[pos]
        lo = hi = perm[pos]
        for j in range(pos + 1, n):
            if perm[j] < lo:
                lo = perm[j]
            elif perm[j] > hi:
                hi = perm[j]
            length = j - pos + 1
            if length == n:
                break
            if hi - lo + 1 == length:
                best, low = length, lo
        blocks.append((pos, best, low))
        pos += best
    # All singletons: perm is simple.  A coarser quotient is smaller: check it.
    skeleton = pattern_of([low for _, _, low in blocks])
    if len(blocks) < n and not is_simple(skeleton):
        raise AssertionError(f"block quotient of {list(perm)} is not simple")
    return skeleton, tuple(blocks)


@lru_cache(maxsize=None)
def top_split(perm: Perm):
    """The single top level of the canonical decomposition of a permutation.

    Returns ``(root, children)`` where root is None for the size-1
    permutation, 12 or 21 for a linear split (children are the two parts,
    the first part suitably indecomposable), or a simple Perm whose
    children are the patterns of its maximal proper blocks, the blocks of
    ``split_blocks``.

    >>> top_split(Perm((2, 1, 3, 5, 4)))
    (Perm((1, 2)), (Perm((2, 1)), Perm((1, 3, 2))))
    >>> top_split(Perm((4, 5, 3, 1, 2)))
    (Perm((2, 1)), (Perm((1, 2)), Perm((3, 1, 2))))
    >>> top_split(Perm((3, 4, 6, 2, 1, 5)))
    (Perm((2, 4, 1, 3)), (Perm((1, 2)), Perm((1,)), Perm((2, 1)), Perm((1,))))
    """
    root, blocks = split_blocks(perm)
    return root, tuple(_block_pattern(perm, start, start + length)
                       for start, length, _ in blocks)


@dataclass(frozen=True)
class DecompTree:
    """Substitution decomposition tree; root is None at the leaves."""

    root: Perm | None
    children: tuple["DecompTree", ...] = ()


def preorder(top, split) -> list:
    """The nodes of a tree in preorder, each as ``split(node)``: its label
    and its children, none at a leaf.  The walk keeps its own stack, so a
    tree may nest as deep as a permutation's size, past any recursion limit.

    >>> [root for root, _ in preorder(Perm((2, 1, 3)), top_split)]
    [Perm((1, 2)), Perm((2, 1)), None, None, None]
    """
    shape = []
    stack = [top]
    while stack:
        shape.append(split(stack.pop()))
        stack.extend(reversed(shape[-1][1]))
    return shape


def fold(shape: list, node, leaf):
    """The value of a tree given by its preorder entries (label, children,
    ...): ``leaf`` where there are no children, else ``node(label, parts)``
    on the children's values.  Folds from the end, first part on top.

    >>> fold(preorder(Perm((2, 1, 3)), top_split), lambda root, parts:
    ...      "".join(map(str, root)) + "[" + ",".join(parts) + "]", "1")
    '12[21[1,1],1]'
    """
    stack = []
    for entry in reversed(shape):
        if k := len(entry[1]):
            parts = stack[:-k - 1:-1]
            del stack[-k:]
            stack.append(node(entry[0], parts))
        else:
            stack.append(leaf)
    return stack[0]


def inflate(shape: list) -> Perm:
    """``fold(shape, substitute, Perm((1,)))`` in linear time: child sizes
    from the end, then from the top each child's least value, by one
    comparison at a 12 or 21 node, else by the root's cached value order.

    >>> inflate(preorder(Perm((3, 4, 6, 2, 1, 5)), top_split))
    Perm((3, 4, 6, 2, 1, 5))
    """
    parts, stack = [], []  # per node from the end, its children's sizes
    for entry in reversed(shape):
        if not (k := len(entry[1])):
            parts.append(())
            stack.append(1)
        elif k == 2:
            a, b = stack.pop(), stack.pop()
            parts.append((a, b))
            stack.append(a + b)
        else:
            parts.append(stack[:-k - 1:-1])
            stack[-k:] = [sum(parts[-1])]
    out, stack = [], [0]
    for entry, sizes in zip(shape, reversed(parts)):
        low = stack.pop()
        if not sizes:
            out.append(low + 1)
        elif len(sizes) == 2:
            root = entry[0]
            stack += ((low + sizes[0], low) if root[0] < root[1]
                      else (low, low + sizes[1]))
        else:
            lows = [0] * len(sizes)
            for pos in _value_order(entry[0]):
                lows[pos], low = low, low + sizes[pos]
            stack += reversed(lows)
    return Perm(out)


def decompose(perm: Perm) -> DecompTree:
    """The canonical decomposition tree of a permutation.

    First children of 12 (resp. 21) nodes are never themselves 12 (resp. 21)
    rooted, and ``rebuild(decompose(perm)) == perm``.
    """
    return fold(preorder(perm, top_split),
                lambda root, kids: DecompTree(root, tuple(kids)), DecompTree(None))


def rebuild(tree: DecompTree) -> Perm:
    """Reassemble the permutation a decomposition tree describes."""
    return inflate(preorder(tree, lambda t: (t.root, t.children)))


def tree_text(tree: DecompTree) -> str:
    """Compact display form, e.g. ``"2413[1,1,1,1]"`` (sizes <= 9 only)."""
    def text(root, parts):
        return "".join(map(str, root)) + "[" + ",".join(parts) + "]"
    return fold(preorder(tree, lambda t: (t.root, t.children)), text, "1")


@lru_cache(maxsize=None)
def tree_labels(perm: Perm) -> frozenset:
    """The set of internal node labels in a permutation's decomposition tree."""
    return frozenset(root for root, _ in preorder(perm, top_split)
                     if root is not None)


def indecomposability(perm: Perm) -> tuple[bool, bool]:
    """Flags (12-indecomposable, 21-indecomposable), from the top split."""
    root = top_split(perm)[0]
    return (root != ROOT_12, root != ROOT_21)


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
        return _block_pattern(embedded, start - 1, start - 1 + length) \
            if length else None


def _block_pattern(embedded: Perm, lo: int, hi: int) -> Perm:
    low = min(embedded[lo:hi]) - 1  # the block's values form an interval
    return Perm([v - low for v in embedded[lo:hi]])


@lru_cache(maxsize=None)
def embeddings(embedded: Perm, host: Perm) -> tuple[Embedding, ...]:
    """All embeddings of a permutation into a host, sorted by block boundaries.

    An embedding cuts the embedded permutation's index word into one
    consecutive, possibly empty block per host position (its slot) such
    that entries in slots t != s compare as host[t] and host[s] do: so each
    block's values form an interval, and the blocks' patterns substituted
    into the host rebuild it.  These are the blocks of ``embedding_parts``.

    >>> len(embeddings(Perm((1,)), Perm((1, 2))))
    2
    >>> len(embeddings(Perm.from_text("5 4 6 3 1 2"), Perm.from_text("3 1 4 2")))
    12
    """
    return tuple(Embedding(tuple(zip(itertools.accumulate(sizes, initial=1), sizes)))
                 for parts in map(dict, embedding_parts(embedded, host))
                 for sizes in [[len(parts.get(t, ())) for t in range(len(host))]])


@lru_cache(maxsize=None)
def embedding_parts(embedded: Perm, host: Perm) -> tuple[tuple, ...]:
    """Per embedding, by ascending cuts, the (slot, induced pattern) pairs
    of its nonempty slots, each block's pattern built once.  Entries take
    host slots left to right, never decreasing, highest first, from the
    bitmasks ``above`` (``below``) each earlier smaller (larger) entry's slot.

    >>> embedding_parts(Perm((1, 2)), Perm((1, 2)))[1]
    ((0, Perm((1,))), (1, Perm((1,))))
    """
    g, n = len(embedded), len(host)
    above = [sum(1 << s for s in range(n) if host[s] >= h) for h in host]
    below = [sum(1 << s for s in range(n) if host[s] <= h) for h in host]
    out, induced, slot, left, i = [], {}, [0] * g, [(1 << n) - 1] + [0] * g, 0
    while i >= 0:
        if not left[i]:
            i -= 1
            continue
        s = slot[i] = left[i].bit_length() - 1
        left[i] ^= 1 << s
        if i < g - 1:
            i, mask = i + 1, -1 << s  # the slots left for the next entry
            for j in range(i):
                mask &= (above if embedded[j] < embedded[i] else below)[slot[j]]
            left[i] = mask
            continue
        parts, lo = [], 0
        for hi in range(1, g + 1):
            if hi == g or slot[hi] != slot[lo]:
                if (lo, hi) not in induced:
                    induced[lo, hi] = _block_pattern(embedded, lo, hi)
                parts.append((slot[lo], induced[lo, hi]))
                lo = hi
        out.append(tuple(parts))
    return tuple(out)


def pattern_masks(bits: dict[Perm, int], max_size: int,
                  keep=lambda key, mask: (key, mask)):
    """``keep(bytes(p), mask)`` for each p of size 1..max_size in a class
    (keep gives None outside it), in ``perm_key`` order; mask is the OR of
    ``bits[q]`` over all q <= p, from p's one-point deletions.  Size n puts
    n at each position of each key kept at size n - 1, its parent, whose
    mask it starts from, and drops it at the first other one-point deletion
    not kept; patterns past max_size hold in none.

    >>> [m for _, m in pattern_masks({Perm((1, 2)): 1}, 3)]
    [0, 1, 0, 1, 1, 1, 1, 1, 0]
    """
    own, level = {bytes(q): bits[q] for q in bits if len(q) <= max_size}, {b"": 0}
    for n in range(1, max_size + 1):
        top = bytes((n,))
        cuts = [(bytes((x,)), bytes(v - (v > x) for v in range(256)))
                for x in range(1, n)]  # drop value x, lower those above
        prev, level = level, {}
        for key in sorted([k[:i] + top + k[i:] for k in prev for i in range(n)]):
            mask, sub = prev[key.replace(top, b"")] | own.get(key, 0), 0
            for one, down in cuts:  # up to the first deletion not kept
                if (sub := prev.get(key.replace(one, b"").translate(down))) is None:
                    break
                mask |= sub
            if sub is not None and (kept := keep(key, mask)) is not None:
                if n < max_size:
                    level[key] = mask
                yield kept


def enumerate_avoiders(basis: Iterable[Perm], n: int) -> list[Perm]:
    """All permutations of size n avoiding every basis element, in
    lexicographic order: p avoids it when p is no basis element and its
    one-point deletions avoid it (``pattern_masks``).  n must lie in
    1..DEFAULT_ORACLE_CAP."""
    if not 1 <= n <= DEFAULT_ORACLE_CAP:
        raise InvalidInputError(
            f"oracle size {n} is outside 1..{DEFAULT_ORACLE_CAP}")
    keys = pattern_masks(dict.fromkeys(basis, 1), n, lambda k, m: None if m else k)
    return [Perm(key) for key in keys if len(key) == n]
