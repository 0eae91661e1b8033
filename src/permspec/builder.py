"""Build the (possibly ambiguous) equation system for a class.

Starting point: the closure of the class decomposes every member as an
atom, a 12 or 21 split with suitably indecomposable first part, or a
simple-rooted inflation.  Avoidance of the non-simple basis elements is
then pushed from each equation's left side into the components of its
terms, one excluded pattern at a time, through the embeddings of that
pattern in the term's root: each embedding must be blocked in some slot,
and every way of choosing a blocking slot per embedding yields one term
whose components avoid the patterns pushed into them.  Containment of a
mandatory pattern is pushed down likewise, one summand per embedding;
``restriction_equation`` does both and seeds every equation, here and in
the disambiguator.  New restriction sets appearing on right sides get
their own equations until the system closes; everything lives in the
finite pattern closure of the basis, so this terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .perms import (
    Perm,
    ROOT_12,
    ROOT_21,
    avoids,
    embeddings,
    is_simple,
    minimal_patterns,
    perm_key,
    root_perm,
)
from .restrictions import (
    FLAVOR_ALL,
    FLAVOR_SKEW_INDEC,
    FLAVOR_SUM_INDEC,
    MODE_AMBIGUOUS,
    MODE_DISJOINT,
    Equation,
    Restriction,
    System,
    Term,
    make_equation,
    prune_subsumed,
    term_key,
)


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
        raise ValueError("basis is not an antichain; minimize it first")
    simples_t = tuple(sorted(set(simples), key=perm_key))
    for s in simples_t:
        if not is_simple(s):
            raise ValueError(f"not a simple permutation: {s}")
        if not avoids(s, basis_t):
            raise ValueError(f"simple permutation {s} contains a basis element")
    return ClassInput(basis_t, simples_t)


def closure_terms(flavor: str, simples: Sequence[Perm]) -> list[Term]:
    """The unconstrained right-side terms describing one closure flavor."""
    full = Restriction(FLAVOR_ALL)
    plus = Restriction(FLAVOR_SUM_INDEC)
    minus = Restriction(FLAVOR_SKEW_INDEC)
    terms = []
    if flavor != FLAVOR_SUM_INDEC:
        terms.append(Term(ROOT_12, (plus, full)))
    if flavor != FLAVOR_SKEW_INDEC:
        terms.append(Term(ROOT_21, (minus, full)))
    for s in sorted(simples, key=perm_key):
        terms.append(Term(s, (full,) * len(s)))
    return terms


def closure_system(simples: Iterable[Perm]) -> System:
    """The specification of the substitution closure itself.

    By uniqueness of the decomposition these unions are disjoint, so the
    result is already a combinatorial specification.
    """
    simples_t = class_input((), simples).simples
    equations = {}
    for flavor in (FLAVOR_ALL, FLAVOR_SUM_INDEC, FLAVOR_SKEW_INDEC):
        lhs = Restriction(flavor)
        equations[lhs] = make_equation(
            lhs, True, closure_terms(flavor, simples_t), MODE_DISJOINT)
    return System(root=Restriction(FLAVOR_ALL), equations=equations,
                  basis=(), simples=simples_t, mode=MODE_DISJOINT)


def _push_avoidance(args: tuple[Restriction, ...], excluded: Perm,
                    embs) -> set[tuple[Restriction, ...]]:
    """All distinct component tuples obtained by blocking every embedding.

    Each embedding of the excluded pattern in the root must be prevented
    in one of its nonempty slots; blocking slot k means the component there
    additionally avoids the induced pattern.  Profiles are merged as
    they are produced, and any profile with a statically empty component
    (say, forced avoidance of the size-1 pattern) is dropped on the spot.
    """
    profiles = {args}
    for emb in embs:
        nxt: set[tuple[Restriction, ...]] = set()
        for prof in profiles:
            for slot in emb.nonempty_slots():
                r = prof[slot]
                blocked = Restriction(
                    r.flavor, r.avoid + (emb.induced(excluded, slot),), r.contain)
                if not blocked.empty:
                    nxt.add(prof[:slot] + (blocked,) + prof[slot + 1:])
        profiles = nxt
        if not profiles:
            break
    return profiles


def add_constraints(term: Term, patterns: Iterable[Perm]) -> list[Term]:
    """Rewrite a term intersected with avoidance of the given patterns as a
    union of terms carrying the constraints componentwise.

    The union may be ambiguous; it is exact, i.e. it has the same members
    as the original term restricted to avoiders of every pattern.  Terms
    statically contained in another produced term are dropped, so the
    result lists maximal terms only.
    """
    pending = sorted(set(patterns), key=perm_key)
    out = [term]
    for excluded in pending:
        embs = embeddings(excluded, root_perm(term.root))
        nxt: set[Term] = set()
        for t in out:
            for prof in _push_avoidance(t.args, excluded, embs):
                nxt.add(Term(t.root, prof))
        out = prune_subsumed(nxt)
        if not out:
            break
    return sorted(out, key=term_key)


def add_mandatory(term: Term, pattern: Perm) -> list[Term]:
    """Rewrite a term restricted to permutations containing a pattern.

    One summand per embedding of the pattern in the root: the components
    hosting a nonempty block must contain the pattern induced on them.  The union
    is exact but possibly ambiguous (an occurrence may realize several
    embeddings); duplicates are merged and statically empty summands
    dropped.
    """
    out = set()
    for emb in embeddings(pattern, root_perm(term.root)):
        args = list(term.args)
        for slot in emb.nonempty_slots():
            r = args[slot]
            args[slot] = Restriction(
                r.flavor, r.avoid, r.contain + (emb.induced(pattern, slot),))
            if args[slot].empty:
                break
        else:
            out.add(Term(term.root, tuple(args)))
    return sorted(out, key=term_key)


def restriction_equation(r: Restriction, simples: Iterable[Perm]) -> Equation:
    """An equation describing one restriction, in possibly ambiguous form.

    Starts from the closure shape of the restriction's flavor, pushes every
    avoided pattern down, then every mandatory pattern.  The atom survives
    only when the size-1 permutation itself satisfies the restriction,
    i.e. when no pattern is mandatory.
    """
    if r.empty:
        raise ValueError(f"no equation for statically empty {r.name()}")
    terms: list[Term] = []
    for base in closure_terms(r.flavor, tuple(simples)):
        terms.extend(add_constraints(base, r.avoid))
    for mandatory in r.contain:
        terms = [t2 for t in terms for t2 in add_mandatory(t, mandatory)]
    return make_equation(r, not r.contain, terms, MODE_AMBIGUOUS)


def ambiguous_system(ci: ClassInput) -> System:
    """The full (possibly ambiguous) system describing the class.

    Seeds equations for all three flavors restricted to the non-simple
    basis elements, then keeps adding equations for restrictions that occur
    on a right side only, until the system closes.
    """
    survivors = ci.non_simple_basis
    root = Restriction(FLAVOR_ALL, survivors)
    equations: dict[Restriction, Equation] = {}
    pending = [Restriction(f, survivors) for f in
               (FLAVOR_ALL, FLAVOR_SUM_INDEC, FLAVOR_SKEW_INDEC)]
    queued = set(pending)
    while pending:
        lhs = pending.pop(0)
        # Only the seeds can be statically empty, when the basis is {1}.
        eq = (make_equation(lhs, False, (), MODE_AMBIGUOUS) if lhs.empty
              else restriction_equation(lhs, ci.simples))
        equations[lhs] = eq
        for t in eq.terms:
            for comp in t.args:
                if comp not in queued:
                    queued.add(comp)
                    pending.append(comp)
    return System(root=root, equations=equations, basis=ci.basis,
                  simples=ci.simples, mode=MODE_AMBIGUOUS)
