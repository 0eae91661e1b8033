"""Oracle cross-validation of built systems.

Every check here compares a system against direct, decomposition-based
membership of concrete permutations, so a passing report means the
equations describe exactly the sets they claim to.  Used by the command
line ``check`` subcommand and by the test suite.  Memberships are those of
``in_restriction`` and ``rhs_multiplicity``, decided on profiles.  One walk
of ``pattern_masks`` grows a class that holds Av(basis) and every member
and summand, one point a size, as ``bytes`` keys with their pattern bits
from their one-point deletions; a key's parts, cut by ``split_blocks``,
give their profiles from one table.  Rows with one signature (profile,
root, arity, parts' packed profiles) share one tally, rows with one view
(all that a check reads) one verdict; a ``Perm`` names a violation.  The
basis has profile bits too, so ``run_check``'s walk also counts avoiders.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .perms import (DEFAULT_ORACLE_CAP, InvalidInputError, Perm, ROOT_12,
                    ROOT_21, enumerate_avoiders, is_simple, pattern_masks,
                    pattern_of, split_blocks)
from .restrictions import (FLAVOR_SKEW_INDEC, FLAVOR_SUM_INDEC, MODE_DISJOINT,
                           Restriction, System)
from .engine import count_coefficients

# Profile flag bits; bit 3 + i stands for the i-th constraint pattern.
IN_CLOSURE, SUM_DEC, SKEW_DEC = 1, 2, 4
_FORBIDDEN = {FLAVOR_SUM_INDEC: SUM_DEC, FLAVOR_SKEW_INDEC: SKEW_DEC}
_DECOMPOSED = {ROOT_12: SUM_DEC, ROOT_21: SKEW_DEC}


# perfbench/tracer.py rebinds this and enumerate_avoiders; the walk uses neither.
def perms_of_size(n: int) -> tuple[Perm, ...]:
    return tuple(Perm(v) for v in itertools.permutations(range(1, n + 1)))


def check_max_size(max_size: int) -> None:
    """Reject sizes outside 1..DEFAULT_ORACLE_CAP (size n holds up to n!)."""
    if not 1 <= max_size <= DEFAULT_ORACLE_CAP:
        raise InvalidInputError("depth must be >= 1" if max_size < 1 else
                                f"oracle size {max_size} exceeds cap "
                                f"{DEFAULT_ORACLE_CAP}")


class Profiles:
    """Per-permutation profiles and compiled restriction tests for one run.

    A profile is an int: ``SUM_DEC``/``SKEW_DEC`` by the top split, one bit
    per pattern p contains, by ``pattern_masks`` (the systems' restriction
    patterns and the basis), and above those, per simples set, a closure
    bit when every tree label is 12, 21 or one of its simples.  A walk
    keeps one profile per ``bytes`` key; p's profile in one system has
    ``IN_CLOSURE`` for that system's closure bit.  A restriction compiles
    to (forbidden, needed) masks, and a term to the same masks over its
    parts' packed profiles.
    """

    def __init__(self, systems: Sequence[System], basis: Iterable[Perm] = ()):
        basis = set(basis)
        patterns = basis | {q for s in systems for eq in s.equations.values()
                            for r in (eq.lhs, *(a for t in eq.terms
                                                for a in t.args))
                            for q in r.avoid + r.contain}
        self._bit = {q: 8 << i for i, q in enumerate(sorted(patterns, key=len))}
        self._width = 4 + len(self._bit) + len(systems)  # and closure bits
        self.basis_mask = sum(self._bit[q] for q in basis)

    def test(self, r: Restriction, closed: int = IN_CLOSURE) -> tuple[int, int]:
        """(forbidden, needed) masks of r; a statically empty r admits none."""
        if r.empty:
            return closed, closed
        bit = self._bit
        return (sum(bit[e] for e in r.avoid) | _FORBIDDEN.get(r.flavor, 0),
                sum(bit[a] for a in r.contain) | closed)

    def _pack(self, profiles: Iterable[int]) -> int:
        return sum(q << i * self._width for i, q in enumerate(profiles))

    def _right_sides(self, system: System, closed: int = IN_CLOSURE):
        """(simples, {(root, arity): [(equation index, term masks)]}, per
        equation its atom count) for the right sides of a system."""
        index: dict[tuple, list] = {}
        for i, eq in enumerate(system.equations.values()):
            for t in eq.terms:
                forbidden, needed = zip(*(self.test(a, closed) for a in t.args))
                index.setdefault((t.root, len(t.args)), []).append(
                    (i, self._pack(forbidden), self._pack(needed)))
        return system.simples_set(), index, [
            int(eq.has_atom) for eq in system.equations.values()]

    def tallies(self, systems: list[System], max_size: int):
        """(key, mask, view, profs, counts) for every p up to max_size in
        Av(basis) or (given systems) the closure of ``_closure_roots``, in
        walk order: key is bytes(p) and mask its pattern bits; profs per
        system p's profile, counts per system and equation the number of
        right-side summands holding p (the atom counts as one), and view
        numbers what a check reads: the profs' bits some left side tests,
        and the counts.  Rows of one signature share all three."""
        check_max_size(max_size)
        roots = _closure_roots(systems)
        closure = {s: 1 << 3 + len(self._bit) + j for j, s in enumerate(
            dict.fromkeys([roots, *(s.simples_set() for s in systems)]))}
        sides = [self._right_sides(s, closure[s.simples_set()]) for s in systems]
        first = closure[roots] if systems else 0  # else Av(basis) alone
        flags = (1 << 3 + len(self._bit)) - 1  # all but the closure bits
        allowed = {r: sum(bit for simples, bit in closure.items()
                          if r in (None, ROOT_12, ROOT_21) or r in simples)
                   for r in (None, ROOT_12, ROOT_21, *roots)}
        lower = [bytes((v - d) % 256 for v in range(256))
                 for d in range(max_size)]  # lower[d] takes v to v - d
        tested = 0  # the profile bits some left side tests
        for f, n in map(self.test, [r for s in systems for r in s.equations]):
            tested |= f | n
        table, rows, views = {}, {}, {}  # by key, signature and view

        def row(key: bytes, mask: int):
            root, blocks = split_blocks(key)
            closed, packed = allowed.get(root, 0), 0
            for s, m, low in reversed(blocks):  # packed as ``_pack`` packs
                q = table[key[s:s + m].translate(lower[low - 1])]
                closed &= q
                packed = packed << self._width | q
            prof = mask | _DECOMPOSED.get(root, 0) | closed
            if len(key) < max_size:
                table[key] = prof
            if mask & self.basis_mask and not prof & first:
                return None
            tally = rows.get(signature := (prof, (root, len(blocks)), packed))
            if tally is None:
                profs, counts = [], []
                for simples, index, atoms in sides:
                    mults = atoms[:] if root is None else [0] * len(atoms)
                    for i, forbidden, needed in index.get(signature[1], ()):
                        if not packed & forbidden and packed & needed == needed:
                            mults[i] += 1
                    profs.append(prof & flags | IN_CLOSURE if
                                 prof & closure[simples] else prof & flags)
                    counts.append(mults)
                view = (*(q & tested for q in profs), *map(tuple, counts))
                tally = rows[signature] = (
                    views.setdefault(view, len(views)), profs, counts)
            return key, mask, *tally
        return pattern_masks(self._bit, max_size, row)


def _closure_roots(systems: list[System]) -> frozenset:
    """The systems' simples and term roots and their simple patterns, found
    one or two points apart (Schmerl and Trotter 1993): a class's roots."""
    roots, todo = set(), [r for s in systems for eq in s.equations.values()
                          for r in (*s.simples, *(t.root for t in eq.terms))]
    while todo:
        if len(tau := todo.pop()) > 2 and tau not in roots:
            roots.add(tau)
            todo += filter(is_simple, map(pattern_of, itertools.chain(
                *(itertools.combinations(tau, len(tau) - k) for k in (1, 2)))))
    return frozenset(roots)


def _membership_check(system: System, profiles: Profiles, k: int):
    """The k-th system's equation violations, as (left side, detail), in
    one ``tallies`` row: in an ambiguous system a member must land in at
    least one summand; in a disjoint one, in exactly one.  Non-members
    must land in none."""
    exact = system.mode == MODE_DISJOINT
    lhs_tests = [(lhs.name(), *profiles.test(lhs)) for lhs in system.equations]

    def check(profs: list[int], counts: list[list[int]]):
        prof = profs[k]
        for (name, forbidden, needed), mult in zip(lhs_tests, counts[k]):
            member = not prof & forbidden and prof & needed == needed
            if (mult if exact else mult > 0) != member:
                yield name, f"member={member}, summand multiplicity={mult}"
    return check


def _conservation_check(before: System, after: System):
    """Shared equations whose right-side membership differs, per row."""
    where = {lhs: j for j, lhs in enumerate(after.equations)}
    shared = [(lhs.name(), i, where[lhs])
              for i, lhs in enumerate(before.equations) if lhs in where]

    def check(_, counts: list[list[int]]):
        was, now = counts
        for name, i, j in shared:
            if (was[i] > 0) != (now[j] > 0):
                yield name, f"before={was[i] > 0}, after={now[j] > 0}"
    return check


def _walk(profiles: Profiles, systems: list[System], checks, max_size: int):
    """(per check its violations in walk order, per size n the number of
    permutations of size n with no basis bit).  Each view is judged once;
    a failing one is named by every permutation that has it."""
    found: list[list[str]] = [[] for _ in checks]
    avoiders = [0] * (max_size + 1)
    verdicts: dict[int, list] = {}
    for key, mask, view, profs, counts in profiles.tallies(systems, max_size):
        avoiders[len(key)] += not mask & profiles.basis_mask
        fails = verdicts.get(view)
        if fails is None:
            fails = [list(check(profs, counts)) for check in checks]
            fails = verdicts[view] = fails if any(fails) else []
        if fails:
            p = Perm(key)
            for out, fail in zip(found, fails):
                out.extend(f"{name} vs {p}: {detail}" for name, detail in fail)
    return found, avoiders


def equation_violations(system: System, max_size: int) -> list[str]:
    """Left side vs right side, per equation, on every permutation."""
    profiles = Profiles([system], system.basis)
    check = _membership_check(system, profiles, 0)
    return _walk(profiles, [system], [check], max_size)[0][0]


def conservation_violations(before: System, after: System,
                            max_size: int) -> list[str]:
    """Right-side membership unchanged for every equation both systems share."""
    profiles = Profiles([before, after], after.basis)
    check = _conservation_check(before, after)
    return _walk(profiles, [before, after], [check], max_size)[0][0]


def count_violations(system: System, basis: Sequence[Perm], max_size: int,
                     avoiders: Sequence[int] | None = None) -> list[str]:
    """Root coefficients vs brute-force enumeration of the avoidance class.

    ``avoiders[n]`` is the number of size-n avoiders when a walk has
    counted them already; otherwise one walk of Av(basis) alone counts them.
    """
    check_max_size(max_size)
    if avoiders is None:
        avoiders = _walk(Profiles([], basis), [], (), max_size)[1]
    table = count_coefficients(system, max_size)
    return [f"size {n}: engine {got}, enumeration {avoiders[n]}"
            for n in range(1, max_size + 1)
            if (got := table.root_count(n)) != avoiders[n]]


def run_check(ambiguous: System, disjoint: System,
              max_size: int) -> list[tuple[str, bool, str]]:
    """The full cross-validation suite; one (name, passed, detail) per check."""
    check_max_size(max_size)
    profiles = Profiles([ambiguous, disjoint], disjoint.basis)
    checks = (_membership_check(ambiguous, profiles, 0),
              _membership_check(disjoint, profiles, 1),
              _conservation_check(ambiguous, disjoint))
    found, avoiders = _walk(profiles, [ambiguous, disjoint], checks, max_size)
    found.append(count_violations(disjoint, disjoint.basis, max_size,
                                  avoiders))
    names = ("ambiguous equation membership", "specification partition",
             "conservation through disambiguation", "counting equality")
    return [(name, not v, "" if not v else
             f"{len(v)} violation(s); first: {v[0]}")
            for name, v in zip(names, found)]
