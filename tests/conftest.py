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
from permspec.checks import (IN_CLOSURE, SKEW_DEC, SUM_DEC, Profiles,
                             check_max_size)
from permspec.engine import count_coefficients
from permspec.perms import (ROOT_12, ROOT_21, Embedding, avoids,
                            enumerate_avoiders, gen_substitute, is_simple,
                            pattern_masks, pattern_of, perm_key, top_split)
from permspec.restrictions import MODE_DISJOINT

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
    call per pattern: how ``Profiles`` once set the pattern bits."""
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


# --- the Perm walk that the bytes walk and the verdict memo replaced ---------

class PermWalkProfiles(Profiles):
    """Profiles kept by ``Perm``, each permutation split by the cached
    ``top_split`` and tallied on its own: how ``Profiles`` once walked."""

    def split(self, p: Perm, mask: int, simples: frozenset):
        table = self._splits.setdefault(simples, {})
        if p not in table:
            root, parts = top_split(p)
            subs = [table[q][0] for q in parts]
            prof = mask | {ROOT_12: SUM_DEC, ROOT_21: SKEW_DEC}.get(root, 0)
            if (root in (None, ROOT_12, ROOT_21) or root in simples) and \
                    all(s & IN_CLOSURE for s in subs):
                prof |= IN_CLOSURE
            table[p] = (prof, (root, len(parts)), self._pack(subs))
        return table[p]

    def perm_tallies(self, systems, max_size: int):
        """(p, per system its profile, per system and equation its
        right-side summand count) for every p up to max_size."""
        check_max_size(max_size)
        sides = [self._right_sides(system) for system in systems]
        masks = pattern_masks(self._bit, max_size)
        for size in range(1, max_size + 1):
            for p, (_, mask) in zip(perms_of_size(size), masks):
                profs, counts = [], []
                for simples, index, atoms in sides:
                    prof, shape, parts = self.split(p, mask, simples)
                    mults = atoms[:] if shape[0] is None else [0] * len(atoms)
                    for i, forbidden, needed in index.get(shape, ()):
                        if not parts & forbidden and parts & needed == needed:
                            mults[i] += 1
                    profs.append(prof)
                    counts.append(mults)
                yield p, profs, counts


def perm_walk_report(ambiguous, disjoint, max_size: int):
    """``run_check`` on the Perm walk: every row checked on its own, and
    one ``enumerate_avoiders`` call per size."""
    profiles = PermWalkProfiles([ambiguous, disjoint])

    def membership(system, k):
        exact = system.mode == MODE_DISJOINT
        tests = [(lhs, *profiles.test(lhs)) for lhs in system.equations]

        def check(p, profs, counts):
            for (lhs, forbidden, needed), mult in zip(tests, counts[k]):
                member = not profs[k] & forbidden and \
                    profs[k] & needed == needed
                if (mult if exact else min(mult, 1)) != member:
                    yield (f"{lhs.name()} vs {p}: member={member}, "
                           f"summand multiplicity={mult}")
        return check

    def conservation(p, _, counts):
        was, now = counts
        for lhs, i, j in shared:
            if (was[i] > 0) != (now[j] > 0):
                yield (f"{lhs.name()} vs {p}: before={was[i] > 0}, "
                       f"after={now[j] > 0}")
    where = {lhs: j for j, lhs in enumerate(disjoint.equations)}
    shared = [(lhs, i, where[lhs]) for i, lhs in
              enumerate(ambiguous.equations) if lhs in where]
    checks = (membership(ambiguous, 0), membership(disjoint, 1), conservation)
    found = [[], [], []]
    for row in profiles.perm_tallies([ambiguous, disjoint], max_size):
        for out, check in zip(found, checks):
            out.extend(check(*row))
    table = count_coefficients(disjoint, max_size)
    found.append([
        f"size {n}: engine {table.root_count(n)}, enumeration {want}"
        for n in range(1, max_size + 1)
        for want in [len(enumerate_avoiders(disjoint.basis, n))]
        if table.root_count(n) != want])
    names = ("ambiguous equation membership", "specification partition",
             "conservation through disambiguation", "counting equality")
    return [(name, not v, "" if not v else
             f"{len(v)} violation(s); first: {v[0]}")
            for name, v in zip(names, found)]


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
