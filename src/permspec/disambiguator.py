"""Turn an ambiguous system into a combinatorial specification.

Each equation's union t_0 | t_1 | ... is replaced by the disjoint union
of t_0, t_1 minus t_0, t_2 minus t_0 and t_1, and so on (A | B equals A
plus B minus A).  A term is only met with the complements of earlier terms
it may intersect; summands with distinct roots are disjoint outright.  The
complement of a term is split at the first slot that leaves it, one term
per complement cell of that slot.  Complementing flips avoidance
constraints into containment constraints, which is what restrictions with
mandatory patterns are for.  Restrictions appearing on right sides only then
receive equations of their own from the builder's ``restriction_equation``:
the closure shape with avoidance pushed down, followed by containment
pushed down through the embeddings of each mandatory pattern in the root
(one summand per embedding).  The new equations may again be ambiguous;
the loop continues until the system is closed and every equation is
disjoint, which happens after finitely many rounds because every
constraint pattern lives in the pattern closure of the basis.
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce

from .restrictions import (
    MODE_DISJOINT,
    Equation,
    System,
    Term,
    intersect_terms,
    complement_term,
    make_equation,
)
from .builder import restriction_equation

# Hard ceiling on system growth; hitting it signals a bug, not a big input.
MAX_EQUATIONS = 50_000


class IterationLimitError(RuntimeError):
    """Safety valve for runaway disambiguation."""


def _meet(cells: list[Term], pool: list[Term]) -> list[Term]:
    """The nonempty intersections of each cell with each member of the pool."""
    return [q for cell in cells for t in pool
            if (q := intersect_terms(cell, t)) is not None]


def disambiguate_equation(eq: Equation) -> Equation:
    """Make one equation's union disjoint, preserving its members.

    The union t_0 | t_1 | ... is rewritten as t_0, then t_1 minus t_0, then
    t_2 minus t_0 and t_1, and so on: each term is met with the complement
    of every earlier term it may intersect.  Terms with different roots
    never intersect, and neither do the atom and a term (terms produce size
    >= 2 only), so an equation whose terms are pairwise statically disjoint
    comes back unchanged.
    """
    terms: list[Term] = []
    for j, t in enumerate(eq.terms):
        terms += reduce(_meet, [complement_term(u) for u in eq.terms[:j]
                                if intersect_terms(u, t) is not None], [t])
    return make_equation(eq.lhs, eq.has_atom, terms)


def disambiguate_system(system: System) -> System:
    """The combinatorial specification equivalent to the given system.

    Alternates two moves until a fixed point: make every pending equation
    disjoint, and add equations for restrictions that occur on a right
    side only; those are the next round's pending equations.  The root and
    its members are unchanged.
    """
    work = replace(system, equations=dict(system.equations))
    equations = work.equations
    pending = list(equations)
    while pending:
        for lhs in pending:
            equations[lhs] = disambiguate_equation(equations[lhs])
        pending = work.right_only()
        for lhs in pending:
            equations[lhs] = restriction_equation(lhs, system.simples)
        if len(equations) > MAX_EQUATIONS:
            raise IterationLimitError(
                f"system grew past {MAX_EQUATIONS} equations")
    work.mode = MODE_DISJOINT
    return work
