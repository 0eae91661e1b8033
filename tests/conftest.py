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
from permspec.builder import close, closure_terms
from permspec.checks import (IN_CLOSURE, SKEW_DEC, SUM_DEC, Profiles,
                             _closure_roots, check_max_size)
from permspec.engine import count_coefficients
from permspec.perms import (ROOT_12, ROOT_21, Embedding, _value_order, avoids,
                            embeddings, gen_substitute, is_simple, pattern_of,
                            perm_key, split_blocks, top_split)
from permspec.restrictions import (FLAVOR_ALL, MODE_DISJOINT, Restriction,
                                   System, Term, _interned, make_equation,
                                   term_key, term_leq)

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
    "L3": ("1423", "2431", "4123", "24153", "51432"),
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


# --- the n! walk that growing a class by one point replaced ---------------

def every_pattern_mask(bits: dict, max_size: int):
    """(bytes(p), mask) for every p of size 1..max_size in ``perm_key``
    order, mask the OR of p's own bit and its one-point deletions' masks,
    over all n! permutations of each size: how ``pattern_masks`` once
    walked, before it grew a class by one point a size."""
    own = {bytes(q): bits[q] for q in bits}
    level = {b"": 0}
    for n in range(1, max_size + 1):
        cuts = [(bytes((x,)), bytes(v - (v > x) for v in range(256)))
                for x in range(1, n + 1)]  # drop value x, lower those above
        prev, level = level, {}
        for key in map(bytes, itertools.permutations(range(1, n + 1))):
            mask = own.get(key, 0)
            for one, down in cuts:
                mask |= prev[key.replace(one, b"").translate(down)]
            if n < max_size:
                level[key] = mask
            yield key, mask


# --- the walk that parent masks and one profile table replaced ---------------

def every_deletion_masks(bits: dict, max_size: int, keep):
    """``pattern_masks`` with every one-point deletion looked up for each
    candidate, a deletion not kept turning the mask to -1: how it once
    grew a class, before it started from the parent's mask and stopped at
    the first deletion not kept."""
    own, level = {bytes(q): bits[q] for q in bits if len(q) <= max_size}, {b"": 0}
    for n in range(1, max_size + 1):
        top = bytes((n,))
        cuts = [(bytes((x,)), bytes(v - (v > x) for v in range(256)))
                for x in range(1, n + 1)]  # drop value x, lower those above
        prev, level = level, {}
        for key in sorted([k[:i] + top + k[i:] for k in prev for i in range(n)]):
            mask = own.get(key, 0)
            for one, down in cuts:  # -1 where a deletion was not kept
                mask |= prev.get(key.replace(one, b"").translate(down), -1)
            if mask >= 0 and (kept := keep(key, mask)) is not None:
                if n < max_size:
                    level[key] = mask
                yield kept


def two_table_tallies(profiles: Profiles, systems, max_size: int):
    """(key, mask, profs, counts) of ``Profiles.tallies`` from one table
    per simples set, each entry a (profile, shape, packed parts) tuple with
    ``IN_CLOSURE`` for that set, a row's signature the tuple of its
    entries, and a tally per signature: how ``tallies`` once kept its
    profiles, before one table held one int per key."""
    check_max_size(max_size)
    sides = [profiles._right_sides(system) for system in systems]
    roots = _closure_roots(systems)  # entry 0 of every signature
    tables = {s: {} for s in [roots, *(simples for simples, _, _ in sides)]}
    which = [list(tables).index(simples) for simples, _, _ in sides]
    closure_bit = IN_CLOSURE if systems else 0  # else Av(basis) alone
    lower = [bytes((v - d) % 256 for v in range(256))
             for d in range(max_size)]  # lower[d] takes v to v - d
    decomposed = {ROOT_12: SUM_DEC, ROOT_21: SKEW_DEC}
    rows: dict[tuple, tuple] = {}

    def row(key: bytes, mask: int):
        root, blocks = split_blocks(key)
        parts = [key[s:s + m].translate(lower[low - 1])
                 for s, m, low in blocks]
        flags = mask | decomposed.get(root, 0)
        signature = []
        for simples, table in tables.items():
            subs = [table[q][0] for q in parts]
            closed = (root in (None, ROOT_12, ROOT_21) or root in simples) \
                and all(q & IN_CLOSURE for q in subs)
            entry = (flags | IN_CLOSURE if closed else flags,
                     (root, len(parts)), profiles._pack(subs))
            if len(key) < max_size:
                table[key] = entry
            signature.append(entry)
        if mask & profiles.basis_mask and not signature[0][0] & closure_bit:
            return None
        signature = tuple(signature)
        tally = rows.get(signature)
        if tally is None:
            tally = rows[signature] = ([], [])
            for w, (_, index, atoms) in zip(which, sides):
                prof, shape, packed = signature[w]
                mults = atoms[:] if root is None else [0] * len(atoms)
                for i, forbidden, needed in index.get(shape, ()):
                    if not packed & forbidden and packed & needed == needed:
                        mults[i] += 1
                tally[0].append(prof)
                tally[1].append(mults)
        return key, mask, *tally
    return every_deletion_masks(profiles._bit, max_size, row)


# --- the generator driver that preorder shapes and ``perms.fold`` replaced ---

def recurse(gen):
    """The value of a recursion written as generators, on an explicit stack.

    A generator asks for a sub-result by yielding the generator that
    computes it and receives the value back from its ``yield`` (or hands
    over to it with ``yield from``); its return value is its own result.
    Sub-results are computed in the order they are asked for: how the
    decomposition trees and the exact sampler once nested past any
    recursion limit.
    """
    stack = [gen]
    value = None
    while True:
        try:
            child = stack[-1].send(value)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                return stop.value
            value = stop.value
        else:
            stack.append(child)
            value = None


# --- the inflate that placed every node by its root's value order ----------

def value_order_inflate(shape: list) -> Perm:
    """``perms.inflate`` as it was before linear nodes were placed by one
    comparison: child sizes from the end as a slice and a sum per node,
    then from the top each child's least value by the root's cached value
    order, 12 and 21 included."""
    parts, stack = [], []  # per node from the end, its children's sizes
    for entry in reversed(shape):
        k = len(entry[1])
        parts.append(stack[:-k - 1:-1] if k else ())
        stack[len(stack) - k:] = [sum(parts[-1]) if k else 1]
    out, stack = [], [0]
    for entry, sizes in zip(shape, reversed(parts)):
        low = stack.pop()
        if not sizes:
            out.append(low + 1)
            continue
        lows = [0] * len(sizes)
        for pos in _value_order(entry[0]):
            lows[pos], low = low, low + sizes[pos]
        stack += reversed(lows)
    return Perm(out)


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


# --- the any() slot search that the bitmask slot search replaced ------------

def any_slot_embeddings(embedded: Perm, host: Perm) -> tuple[Embedding, ...]:
    """Embeddings by the slot search that tests each candidate slot with an
    ``any()`` over the earlier entries' slots, a fresh slice per slot: how
    ``embeddings`` once found them, before the bitmask slot search."""
    g, n = len(embedded), len(host)
    out, slot, i = [], [n] * g, 0  # an entry's slot is n until first tried
    while i >= 0:
        v, s, floor = embedded[i], slot[i] - 1, slot[i - 1] if i else 0
        while s >= floor and any((embedded[j] < v) != (host[t] < host[s])
                                 for j, t in enumerate(slot[:i]) if t != s):
            s -= 1
        slot[i] = s if s >= floor else n
        if s >= floor and i == g - 1:
            sizes = [slot.count(t) for t in range(n)]
            out.append(Embedding(tuple(
                zip(itertools.accumulate(sizes, initial=1), sizes))))
        else:
            i += 1 if s >= floor else -1
    return tuple(out)


# --- the tuple-built pushes that the mask clauses replaced ------------------

def push_avoidance_reference(args, excluded: Perm, embs) -> set:
    """Every component tuple blocking each embedding, each blocked component
    a ``Restriction`` built from tuples with the induced pattern added: how
    ``builder._push_avoidance`` once pushed avoidance."""
    profiles = {args}
    for emb in embs:
        nxt = set()
        for prof in profiles:
            for slot in [i for i, (_, n) in enumerate(emb.blocks) if n]:
                r = prof[slot]
                blocked = Restriction(
                    r.flavor, r.avoid + (emb.induced(excluded, slot),), r.contain)
                if not blocked.empty:
                    nxt.add(prof[:slot] + (blocked,) + prof[slot + 1:])
        profiles = nxt
        if not profiles:
            break
    return profiles


def add_mandatory_reference(term: Term, pattern: Perm) -> list[Term]:
    """One summand per embedding, each hosting component a ``Restriction``
    built from tuples with the induced pattern made mandatory: how
    ``builder.add_mandatory`` once pushed containment."""
    out = set()
    for emb in embeddings(pattern, term.root):
        args = list(term.args)
        for slot in [i for i, (_, n) in enumerate(emb.blocks) if n]:
            r = args[slot]
            args[slot] = Restriction(
                r.flavor, r.avoid, r.contain + (emb.induced(pattern, slot),))
            if args[slot].empty:
                break
        else:
            out.add(Term(term.root, tuple(args)))
    return sorted(out, key=term_key)


# --- the pairwise prune that the mask fields replaced ------------------------

def prune_subsumed_reference(terms) -> list[Term]:
    """The terms in ``term_key`` order, each dropped when ``term_leq`` puts
    it below another term of the union, one call per pair: how
    ``prune_subsumed`` once pruned."""
    items = sorted(set(terms), key=term_key)
    return [t for t in items
            if not any(u != t and term_leq(t, u) for u in items)]


# --- the Perm walk that the bytes walk and the verdict memo replaced ---------

class PermWalkProfiles(Profiles):
    """Profiles kept by ``Perm``, each permutation split by the cached
    ``top_split`` and tallied on its own: how ``Profiles`` once walked."""

    def __init__(self, systems, basis=()):
        super().__init__(systems, basis)
        self._tables: dict[frozenset, dict] = {}

    def split(self, p: Perm, mask: int, simples: frozenset):
        table = self._tables.setdefault(simples, {})
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
        masks = every_pattern_mask(self._bit, max_size)
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
    """``run_check`` on the Perm walk of all n! permutations: every row
    checked on its own, and the avoiders counted by ``scan_avoiders``."""
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
        for want in [len(scan_avoiders(disjoint.basis, n))]
        if table.root_count(n) != want])
    names = ("ambiguous equation membership", "specification partition",
             "conservation through disambiguation", "counting equality")
    return [(name, not v, "" if not v else
             f"{len(v)} violation(s); first: {v[0]}")
            for name, v in zip(names, found)]


# --- the routines that one decomposition definition replaced ---------------

def interval_scan_is_simple(perm) -> bool:
    """Simplicity by scanning every window from each start for consecutive
    values: how ``is_simple`` once decided it, beside ``split_blocks``."""
    n = len(perm)
    if n < 4:
        return False
    for i in range(n - 1):
        lo = hi = perm[i]
        for j in range(i + 1, n):
            lo = min(lo, perm[j])
            hi = max(hi, perm[j])
            length = j - i + 1
            if length == n:
                break
            if hi - lo + 1 == length:
                return False
    return True


def two_loop_split_blocks(perm):
    """The top split with one prefix loop for 12 and a second for 21, and
    the quotient always checked by ``interval_scan_is_simple``: how
    ``split_blocks`` once found it."""
    n = len(perm)
    if n == 1:
        return None, ()
    run = 0
    for k in range(1, n):
        run = max(run, perm[k - 1])
        if run == k:
            return ROOT_12, ((0, k, 1), (k, n - k, k + 1))
    run = n + 1
    for k in range(1, n):
        run = min(run, perm[k - 1])
        if run == n - k + 1:
            return ROOT_21, ((0, k, run), (k, n - k, 1))
    blocks: list[tuple[int, int, int]] = []
    pos = 0
    while pos < n:
        best, low = 1, perm[pos]
        lo = hi = perm[pos]
        for j in range(pos + 1, n):
            lo = min(lo, perm[j])
            hi = max(hi, perm[j])
            length = j - pos + 1
            if length == n:
                break
            if hi - lo + 1 == length:
                best, low = length, lo
        blocks.append((pos, best, low))
        pos += best
    skeleton = pattern_of([low for _, _, low in blocks])
    assert interval_scan_is_simple(skeleton)
    return skeleton, tuple(blocks)


def close_closure_system(simples) -> System:
    """The closure's specification from ``close`` driven by each flavor's
    ``closure_terms``: how ``closure_system`` once built it, beside the
    empty-basis ``ambiguous_system``."""
    simples_t = class_input((), simples).simples
    root = _interned(FLAVOR_ALL, 0, 0)
    equations = close(root, lambda lhs: make_equation(
        lhs, True, closure_terms(lhs.flavor, simples_t)))
    return System(root=root, equations=equations, basis=(),
                  simples=simples_t, mode=MODE_DISJOINT)


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
