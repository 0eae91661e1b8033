"""Turn an ambiguous system into a combinatorial specification.

Each equation's union t_0 | t_1 | ... is replaced by the disjoint union
of t_0, t_1 minus t_0, t_2 minus t_0 and t_1, and so on (A | B equals A
plus B minus A).  A term is only met with the complements of earlier terms
it may intersect; summands with distinct roots are disjoint outright.  The
complement of a term is split at the first slot that leaves it, one term
per complement cell of that slot.  Complementing flips avoidance
constraints into containment constraints, which is what restrictions with
mandatory patterns are for.  The builder's ``close`` runs from the root,
making each equation reached disjoint; a restriction on a right side only
is first seeded by ``restriction_equation``.  A second ``close`` drops the
terms that use a memberless nonterminal, so the specification is trimmed:
every nonterminal is reachable from the root and generates some member.
Both walks are finite, since every constraint pattern lives in the
pattern closure of the basis.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache, reduce

from .restrictions import (
    MODE_DISJOINT,
    Equation,
    Restriction,
    System,
    Term,
    intersect_terms,
    complement_term,
    make_equation,
)
from .builder import IterationLimitError, close, restriction_equation


def _meet(cells: list[Term], pool: list[Term]) -> list[Term]:
    """The nonempty intersections of each cell with each member of the pool."""
    return [q for cell in cells for t in pool
            if (q := intersect_terms(cell, t)) is not None]


def disambiguate_equation(eq: Equation, complement=None) -> Equation:
    """Make one equation's union disjoint, preserving its members.

    The union t_0 | t_1 | ... is rewritten as t_0, then t_1 minus t_0, then
    t_2 minus t_0 and t_1, and so on: each term is met with the complement
    of every earlier term it may intersect.  Terms with different roots
    never intersect, and neither do the atom and a term (terms produce size
    >= 2 only), so an equation whose terms are pairwise statically disjoint
    comes back unchanged.  Each term is complemented at most once, by
    ``complement``: a build's ``cache(complement_term)``, or this call's.
    """
    terms, complement = [], complement or cache(complement_term)
    for j, t in enumerate(eq.terms):
        terms += reduce(_meet, [complement(u) for u in eq.terms[:j]
                                if intersect_terms(u, t) is not None], [t])
    return make_equation(eq.lhs, eq.has_atom, terms)


def unproductive_nonterminals(system: System) -> frozenset[Restriction]:
    """Nonterminals that generate no permutation at all.

    Least fixpoint: a nonterminal is productive when its equation has the
    atom or some term with every component productive.
    """
    productive: set[Restriction] = set()
    while new := {r for r, eq in system.equations.items()
                  if r not in productive and (eq.has_atom or any(
                      productive.issuperset(t.args) for t in eq.terms))}:
        productive |= new
    return frozenset(system.equations.keys() - productive)


def disambiguate_system(system: System) -> System:
    """The trimmed combinatorial specification of the system's root.

    The first closure from the root makes every equation it reaches
    disjoint, pushing through the build's ``pushes``, which it then drops;
    the second keeps, of each equation reached, the terms that use no
    unproductive nonterminal.  The root and its members are unchanged.
    """
    pushes, complement = system.pushes or {}, cache(complement_term)  # memos

    def disjoint(lhs: Restriction) -> Equation:
        return disambiguate_equation(
            system.equations[lhs] if lhs in system.equations
            else restriction_equation(lhs, system.simples, pushes), complement)

    untrimmed = replace(system, equations=close(system.root, disjoint),
                        mode=MODE_DISJOINT, pushes=None)
    dead = unproductive_nonterminals(untrimmed)

    def trimmed(lhs: Restriction) -> Equation:
        eq = untrimmed.equations[lhs]
        return replace(eq, terms=tuple(
            t for t in eq.terms if dead.isdisjoint(t.args)))

    return replace(untrimmed, equations=close(system.root, trimmed))
