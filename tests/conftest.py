"""Shared fixtures: the worked bases and their systems, built once."""

from __future__ import annotations

import itertools

import pytest

from permspec import (
    Perm,
    ambiguous_system,
    class_input,
    compute_simples,
    contains,
    disambiguate_system,
)
from permspec.perms import (ROOT_12, ROOT_21, Embedding, avoids,
                            gen_substitute, is_simple, pattern_of, perm_key)

# Test bases used throughout: one substitution-closed, one with an empty
# simples set, one with a single simple permutation and a non-simple basis
# element exercising the whole constraint machinery.
BASIS_132 = (Perm((1, 3, 2)),)
BASIS_SEPARABLE = (Perm((2, 4, 1, 3)), Perm((3, 1, 4, 2)))
BASIS_ONE_SIMPLE = (
    Perm((1, 2, 4, 3)),
    Perm((2, 4, 1, 3)),
    Perm((5, 3, 1, 6, 4, 2)),
    Perm((4, 1, 3, 5, 2)),
)


# Further bases of the benchmark corpus, by name; B1..B4 have several
# simple permutations each and large same-root groups to disambiguate.
CORPUS = {
    "L1": ("1234", "2314", "3241"),
    "L2": ("1234", "2314", "2431", "41352", "41523"),
    "L4": ("2413", "3421", "4123"),
    "B1": ("2314", "4132", "31245"),
    "B2": ("2314", "4123", "4312"),
    "B3": ("1243", "2134", "3421", "23451", "24153"),
    "B4": ("1243", "2431", "3241"),
}


def pc(text: str) -> Perm:
    """Compact literal for tests: pc("3142") == Perm((3, 1, 4, 2))."""
    return Perm(tuple(int(ch) for ch in text))


def perms_of_size(n: int) -> list[Perm]:
    return [Perm(v) for v in itertools.permutations(range(1, n + 1))]


# --- the contains routes that one-point deletion replaced --------------------

def contains_mask(p: Perm, bits: dict) -> int:
    """OR of bits[q] over the patterns q that p contains, one ``contains``
    call per pattern: how ``Profiles.split`` once set the pattern bits."""
    mask = 0
    for q, bit in bits.items():
        if contains(p, q):
            mask |= bit
    return mask


def scan_avoiders(basis, n: int) -> list[Perm]:
    """Size-n members of Av(basis) by a ``contains`` scan of all n!
    permutations: how ``enumerate_avoiders`` once found them."""
    patterns = tuple(sorted(set(basis), key=perm_key))
    return [p for p in perms_of_size(n) if avoids(p, patterns)]


# --- the pattern_of routes that the slot search and offsets replaced ---------

def cut_embeddings(embedded: Perm, host: Perm) -> tuple[Embedding, ...]:
    """Embeddings by trying every cut vector, each block ranked by
    ``pattern_of`` (an empty block is None) and the cut kept when
    ``gen_substitute`` rebuilds the embedded permutation: how
    ``embeddings`` once found them."""
    g, n = len(embedded), len(host)
    ranked = {(lo, hi): pattern_of(embedded[lo:hi])
              for lo in range(g) for hi in range(lo + 1, g + 1)}
    out = []
    for cuts in itertools.combinations_with_replacement(range(g + 1), n - 1):
        bounds = (0, *cuts, g)
        args = tuple(ranked.get(block) for block in zip(bounds, bounds[1:]))
        if gen_substitute(host, args) == embedded:
            out.append(Embedding(tuple(
                (lo + 1, hi - lo) for lo, hi in zip(bounds, bounds[1:]))))
    return tuple(out)


def rank_top_split(perm: Perm):
    """The top split with every part ranked by ``pattern_of``: how
    ``top_split`` once built its parts."""
    n = len(perm)
    if n == 1:
        return None, ()
    run = 0
    for k in range(1, n):
        run = max(run, perm[k - 1])
        if run == k:
            return ROOT_12, (pattern_of(perm[:k]), pattern_of(perm[k:]))
    run = n + 1
    for k in range(1, n):
        run = min(run, perm[k - 1])
        if run == n - k + 1:
            return ROOT_21, (pattern_of(perm[:k]), pattern_of(perm[k:]))
    blocks: list[tuple[int, int]] = []
    pos = 0
    while pos < n:
        best = 1
        lo = hi = perm[pos]
        for j in range(pos + 1, n):
            lo = min(lo, perm[j])
            hi = max(hi, perm[j])
            length = j - pos + 1
            if length == n:
                break
            if hi - lo + 1 == length:
                best = length
        blocks.append((pos, best))
        pos += best
    skeleton = pattern_of([perm[start] for start, _ in blocks])
    assert is_simple(skeleton)
    return skeleton, tuple(pattern_of(perm[start:start + length])
                           for start, length in blocks)


def _pipeline(basis, cap=8):
    result = compute_simples(basis, cap=cap)
    assert result.complete
    amb = ambiguous_system(class_input(basis, result.simples))
    return amb, disambiguate_system(amb)


@pytest.fixture(scope="session")
def systems_132():
    return _pipeline(BASIS_132)


@pytest.fixture(scope="session")
def systems_separable():
    return _pipeline(BASIS_SEPARABLE)


@pytest.fixture(scope="session")
def systems_one_simple():
    return _pipeline(BASIS_ONE_SIMPLE)


@pytest.fixture(scope="session")
def all_systems(systems_132, systems_separable, systems_one_simple):
    return {
        BASIS_132: systems_132,
        BASIS_SEPARABLE: systems_separable,
        BASIS_ONE_SIMPLE: systems_one_simple,
    }


@pytest.fixture(scope="session")
def corpus_systems():
    """Ambiguous and disjoint systems of every corpus basis, by name."""
    return {name: _pipeline(tuple(pc(b) for b in basis), cap=10)
            for name, basis in CORPUS.items()}
