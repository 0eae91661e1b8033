"""Oracle cross-validation of built systems.

Every check here compares a system against direct, decomposition-based
membership of concrete permutations, so a passing report means the
equations describe exactly the sets they claim to.  Used by the command
line ``check`` subcommand and by the test suite.  Memberships are those of
``in_restriction`` and ``rhs_multiplicity``, decided on profiles: each
permutation is split once per run, takes its pattern bits from its
one-point deletions (``pattern_masks``) and meets only its root's terms.
``run_check`` makes one walk for all three of its per-permutation checks.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .perms import (DEFAULT_ORACLE_CAP, InvalidInputError, Perm, ROOT_12,
                    ROOT_21, enumerate_avoiders, pattern_masks, top_split)
from .restrictions import (FLAVOR_SKEW_INDEC, FLAVOR_SUM_INDEC, MODE_DISJOINT,
                           Restriction, System)
from .engine import count_coefficients

# Profile flag bits; bit 3 + i stands for the i-th constraint pattern.
IN_CLOSURE, SUM_DEC, SKEW_DEC = 1, 2, 4
_FORBIDDEN = {FLAVOR_SUM_INDEC: SUM_DEC, FLAVOR_SKEW_INDEC: SKEW_DEC}
_DECOMPOSED = {ROOT_12: SUM_DEC, ROOT_21: SKEW_DEC}


def perms_of_size(n: int) -> tuple[Perm, ...]:
    return tuple(Perm(v) for v in itertools.permutations(range(1, n + 1)))


def check_max_size(max_size: int) -> None:
    """Reject sizes outside 1..DEFAULT_ORACLE_CAP (size n walks n! perms)."""
    if not 1 <= max_size <= DEFAULT_ORACLE_CAP:
        raise InvalidInputError("depth must be >= 1" if max_size < 1 else
                                f"oracle size {max_size} exceeds cap "
                                f"{DEFAULT_ORACLE_CAP}")


class Profiles:
    """Per-permutation profiles and compiled restriction tests for one run.

    A profile is an int: ``IN_CLOSURE`` when every tree label is 12, 21 or
    a listed simple, ``SUM_DEC``/``SKEW_DEC`` by the top split, and one bit
    per restriction pattern p contains, by ``pattern_masks``.  A
    restriction compiles to (forbidden, needed) masks, and a term to the
    same masks over the packed profiles of p's parts.
    """

    def __init__(self, systems: Iterable[System]):
        patterns = {q for s in systems for eq in s.equations.values()
                    for r in (eq.lhs, *(a for t in eq.terms for a in t.args))
                    for q in r.avoid + r.contain}
        self._bit = {q: 8 << i for i, q in enumerate(sorted(patterns, key=len))}
        self._width = 3 + len(self._bit)
        self._splits: dict[frozenset, dict] = {}

    def test(self, r: Restriction) -> tuple[int, int]:
        """(forbidden, needed) masks of r; a statically empty r admits none."""
        if r.empty:
            return IN_CLOSURE, IN_CLOSURE
        bit = self._bit
        return (sum(bit[e] for e in r.avoid) | _FORBIDDEN.get(r.flavor, 0),
                sum(bit[a] for a in r.contain) | IN_CLOSURE)

    def _pack(self, profiles: Iterable[int]) -> int:
        return sum(q << i * self._width for i, q in enumerate(profiles))

    def split(self, p: Perm, mask: int, simples: frozenset[Perm]):
        """(profile, (root, arity), packed parts' profiles) of p; parts first."""
        table = self._splits.setdefault(simples, {})
        if p not in table:
            root, parts = top_split(p)
            subs = [table[q][0] for q in parts]
            prof = mask | _DECOMPOSED.get(root, 0)
            if (root in (None, ROOT_12, ROOT_21) or root in simples) and \
                    all(s & IN_CLOSURE for s in subs):
                prof |= IN_CLOSURE
            table[p] = (prof, (root, len(parts)), self._pack(subs))
        return table[p]

    def _right_sides(self, system: System):
        """(simples, {(root, arity): [(equation index, term masks)]}, per
        equation its atom count) for the right sides of a system."""
        index: dict[tuple, list] = {}
        for i, eq in enumerate(system.equations.values()):
            for t in eq.terms:
                forbidden, needed = zip(*map(self.test, t.args))
                index.setdefault((t.root, len(t.args)), []).append(
                    (i, self._pack(forbidden), self._pack(needed)))
        return system.simples_set(), index, [
            int(eq.has_atom) for eq in system.equations.values()]

    def tallies(self, systems: list[System], max_size: int):
        """(p, per system p's profile, per system and equation the number
        of right-side summands holding p) for every p up to max_size; the
        atom counts as one."""
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


def _membership_check(system: System, profiles: Profiles, k: int):
    """The k-th system's equation violations in one ``tallies`` row: in an
    ambiguous system a member must land in at least one summand; in a
    disjoint one, in exactly one.  Non-members must land in none."""
    exact = system.mode == MODE_DISJOINT
    lhs_tests = [(lhs, *profiles.test(lhs)) for lhs in system.equations]

    def check(p: Perm, profs: list[int], counts: list[list[int]]):
        for (lhs, forbidden, needed), mult in zip(lhs_tests, counts[k]):
            member = not profs[k] & forbidden and profs[k] & needed == needed
            if (mult if exact else min(mult, 1)) != member:
                yield (f"{lhs.name()} vs {p}: member={member}, "
                       f"summand multiplicity={mult}")
    return check


def _conservation_check(before: System, after: System):
    """Shared equations whose right-side membership differs, per row."""
    where = {lhs: j for j, lhs in enumerate(after.equations)}
    shared = [(lhs, i, where[lhs]) for i, lhs in enumerate(before.equations)
              if lhs in where]

    def check(p: Perm, _, counts: list[list[int]]):
        was, now = counts
        for lhs, i, j in shared:
            if (was[i] > 0) != (now[j] > 0):
                yield (f"{lhs.name()} vs {p}: before={was[i] > 0}, "
                       f"after={now[j] > 0}")
    return check


def equation_violations(system: System, max_size: int,
                        profiles: Profiles | None = None) -> list[str]:
    """Left side vs right side, per equation, on every permutation."""
    profiles = profiles or Profiles([system])
    check = _membership_check(system, profiles, 0)
    return [v for row in profiles.tallies([system], max_size)
            for v in check(*row)]


def conservation_violations(before: System, after: System, max_size: int,
                            profiles: Profiles | None = None) -> list[str]:
    """Right-side membership unchanged for every equation both systems share."""
    profiles = profiles or Profiles([before, after])
    check = _conservation_check(before, after)
    return [v for row in profiles.tallies([before, after], max_size)
            for v in check(*row)]


def count_violations(system: System, basis: Sequence[Perm],
                     max_size: int) -> list[str]:
    """Root coefficients vs brute-force enumeration of the avoidance class."""
    check_max_size(max_size)
    table = count_coefficients(system, max_size)
    out = []
    for n in range(1, max_size + 1):
        want = len(enumerate_avoiders(basis, n))
        got = table.root_count(n)
        if got != want:
            out.append(f"size {n}: engine {got}, enumeration {want}")
    return out


def run_check(ambiguous: System, disjoint: System,
              max_size: int) -> list[tuple[str, bool, str]]:
    """The full cross-validation suite; one (name, passed, detail) per check."""
    check_max_size(max_size)
    profiles = Profiles([ambiguous, disjoint])
    checks = (_membership_check(ambiguous, profiles, 0),
              _membership_check(disjoint, profiles, 1),
              _conservation_check(ambiguous, disjoint))
    found: list[list[str]] = [[], [], []]
    for row in profiles.tallies([ambiguous, disjoint], max_size):
        for out, check in zip(found, checks):
            out.extend(check(*row))
    found.append(count_violations(disjoint, disjoint.basis, max_size))
    names = ("ambiguous equation membership", "specification partition",
             "conservation through disambiguation", "counting equality")
    return [(name, not v, "" if not v else
             f"{len(v)} violation(s); first: {v[0]}")
            for name, v in zip(names, found)]
