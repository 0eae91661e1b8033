"""Build the (possibly ambiguous) equation system for a class.

Starting point: the closure of the class decomposes every member as an
atom, a 12 or 21 split with suitably indecomposable first part, or a
simple-rooted inflation (``closure_terms``, with the flavors of one table,
``component_flavors``); the closure's own specification is the build of
the empty basis.  Avoidance of the non-simple basis elements is
then pushed from each equation's left side into the components of its
terms, one excluded pattern at a time: its ``embedding_parts`` in the
term's root become (slot, pattern bit) clauses, each embedding must be
blocked in some slot, and every choice of one slot per embedding yields
one term, its components' avoid masks ORed with the chosen bits.
Containment of a mandatory pattern is pushed into contain masks, one
summand per embedding; ``restriction_equation`` does both and seeds every
equation here and in the disambiguator, pushing a (root, avoid mask) once
a build, both stages included.  ``close`` gives an equation to the root
and all it reaches: finitely many, all in the basis's pattern closure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from .perms import (
    InvalidInputError,
    Perm,
    ROOT_12,
    ROOT_21,
    avoids,
    embedding_parts,
    is_simple,
    minimal_patterns,
    perm_key,
)
from .restrictions import (
    FLAVOR_ALL,
    FLAVORS,
    MODE_AMBIGUOUS,
    MODE_DISJOINT,
    Equation,
    Restriction,
    System,
    Term,
    _interned,
    _number,
    component_flavors,
    make_equation,
    prune_subsumed,
    term_key,
)

# Hard ceiling on system growth; hitting it signals a bug, not a big input.
MAX_EQUATIONS = 50_000


class IterationLimitError(RuntimeError):
    """Safety valve: a closure built ``MAX_EQUATIONS`` with more pending."""


@dataclass(frozen=True)
class ClassInput:
    """A basis together with the simple permutations of its class."""

    basis: tuple[Perm, ...]
    simples: tuple[Perm, ...]

    @property
    def non_simple_basis(self) -> tuple[Perm, ...]:
        """The non-simple basis elements; only these survive inside the closure."""
        return tuple(b for b in self.basis if not is_simple(b))


def class_input(basis: Iterable[Perm], simples: Iterable[Perm]) -> ClassInput:
    """Validate and assemble builder input.

    The basis must already be an antichain (see ``minimal_patterns``), and
    every supplied simple permutation must be simple and avoid the basis.
    """
    basis_t = tuple(sorted(set(basis), key=perm_key))
    if minimal_patterns(basis_t) != basis_t:
        raise InvalidInputError("basis is not an antichain; minimize it first")
    simples_t = tuple(sorted(set(simples), key=perm_key))
    for s in simples_t:
        if not is_simple(s):
            raise InvalidInputError(f"not a simple permutation: {s}")
        if not avoids(s, basis_t):
            raise InvalidInputError(
                f"simple permutation {s} contains a basis element")
    return ClassInput(basis_t, simples_t)


def closure_terms(flavor: str, simples: Sequence[Perm]) -> list[Term]:
    """The unconstrained right-side terms describing one closure flavor."""
    universe = {f: _interned(f, 0, 0) for f in FLAVORS}
    # The + (-) flavor is not 12 (21) rooted, and is that root's first part.
    roots = [r for r in (ROOT_12, ROOT_21) if component_flavors(r)[0] != flavor]
    return [Term(root, tuple(map(universe.__getitem__, component_flavors(root))))
            for root in roots + sorted(simples, key=perm_key)]


def closure_system(simples: Iterable[Perm]) -> System:
    """The specification of the substitution closure: the build of the empty
    basis, already disjoint by uniqueness of the decomposition."""
    return replace(ambiguous_system(class_input((), simples)), mode=MODE_DISJOINT)


def _push_avoidance(args: tuple, clauses: list) -> set[tuple]:
    """All distinct component tuples obtained by blocking every embedding.

    Each embedding of the excluded pattern in the root is a clause of
    (slot, pattern bit) pairs and must be blocked in one of them; blocking
    slot k ORs the bit into that component's avoid mask.  Profiles are
    merged as they are produced, and any profile with a statically empty
    component (say, avoiding the size-1 pattern) is dropped on the spot.
    """
    profiles = {args}
    for clause in clauses:
        if not (profiles := _block(profiles, clause)):
            break
    return profiles


def _block(profiles: set, clause: list) -> set:
    """The profiles that block one more clause, each in one of its slots."""
    nxt = set()
    for prof in profiles:
        for slot, bit in clause:
            if (r := prof[slot]).avoid_mask & bit:  # blocked there already
                nxt.add(prof)
                continue
            blocked = _interned(r.flavor, r.avoid_mask | bit, r.contain_mask)
            if not blocked.empty:
                nxt.add(prof[:slot] + (blocked,) + prof[slot + 1:])
    return nxt


def add_constraints(term: Term, patterns: Iterable[Perm]) -> list[Term]:
    """Rewrite a term intersected with avoidance of the given patterns as a
    union of terms carrying the constraints componentwise.

    The union may be ambiguous; it is exact, i.e. it has the same members
    as the original term restricted to avoiders of every pattern.  Terms
    statically contained in another produced term are dropped, so the
    result lists maximal terms only, in ``term_key`` order.
    """
    out = [term]
    for excluded in sorted(set(patterns), key=perm_key):
        clauses = [[(slot, 1 << _number(q)) for slot, q in parts] for parts
                   in embedding_parts(excluded, term.root)]
        out = prune_subsumed(Term._trusted(t.root, prof) for t in out
                             for prof in _push_avoidance(t.args, clauses))
        if not out:
            break
    return out


def add_mandatory(term: Term, pattern: Perm) -> list[Term]:
    """Rewrite a term restricted to permutations containing a pattern.

    One summand per embedding of the pattern in the root: the components
    hosting a nonempty block must contain the pattern induced on them, its
    bit ORed into their contain masks.  The union is exact but possibly
    ambiguous (an occurrence may realize several embeddings); duplicates
    are merged and statically empty summands dropped.
    """
    out = set()
    for parts in embedding_parts(pattern, term.root):
        args = list(term.args)
        for slot, q in parts:
            r = args[slot]
            args[slot] = _interned(
                r.flavor, r.avoid_mask, r.contain_mask | 1 << _number(q))
        if not any(a.empty for a in args):
            out.add(Term._trusted(term.root, tuple(args)))
    return sorted(out, key=term_key)


def restriction_equation(r: Restriction, simples: Iterable[Perm],
                         pushes: dict | None = None) -> Equation:
    """An equation describing one restriction, in possibly ambiguous form.

    Starts from the closure shape of the restriction's flavor, pushes every
    avoided pattern down, then every mandatory pattern.  The atom survives
    only when the size-1 permutation itself satisfies the restriction,
    i.e. when no pattern is mandatory.  ``pushes`` keeps avoidance pushes
    by (root, avoid mask), which fix them; one dict serves both stages of a
    build (``System.pushes``) and dies with it (fresh when not given).
    """
    if r.empty:
        raise ValueError(f"no equation for statically empty {r.name()}")
    pushes = {} if pushes is None else pushes
    terms: list[Term] = []
    for base in closure_terms(r.flavor, tuple(simples)):
        if (key := (base.root, r.avoid_mask)) not in pushes:
            pushes[key] = add_constraints(base, r.avoid)
        terms.extend(pushes[key])
    for mandatory in r.contain:
        terms = [t2 for t in terms for t2 in add_mandatory(t, mandatory)]
    return make_equation(r, not r.contain, terms)


def close(root: Restriction, equation: Callable[[Restriction], Equation]
          ) -> dict[Restriction, Equation]:
    """The equations of the root and of every restriction it reaches.

    A worklist from the root: each restriction taken gets ``equation(lhs)``,
    and the components of its terms not seen before are queued.
    """
    equations: dict[Restriction, Equation] = {}
    order = [root]
    queued = {root}
    for lhs in order:  # grows as new components are queued
        if len(equations) == MAX_EQUATIONS:
            raise IterationLimitError(
                f"equation ceiling of {MAX_EQUATIONS} reached: "
                f"{len(equations)} equations built, "
                f"{len(order) - len(equations)} restrictions still pending")
        eq = equations[lhs] = equation(lhs)
        for t in eq.terms:
            for comp in t.args:
                if comp not in queued:
                    queued.add(comp)
                    order.append(comp)
    return equations


def ambiguous_system(ci: ClassInput) -> System:
    """The full (possibly ambiguous) system describing the class: the
    closure of its root, or the root alone, with an empty right side, when
    the basis is {1} and the root is statically empty."""
    mask = sum(1 << _number(b) for b in ci.non_simple_basis)
    root, pushes = _interned(FLAVOR_ALL, mask, 0), {}
    equations = ({root: make_equation(root, False, ())} if root.empty else close(
        root, lambda lhs: restriction_equation(lhs, ci.simples, pushes)))
    return System(root=root, equations=equations, basis=ci.basis,
                  simples=ci.simples, mode=MODE_AMBIGUOUS, pushes=pushes)
