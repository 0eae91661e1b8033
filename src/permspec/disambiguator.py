"""Turn an ambiguous system into a combinatorial specification.

Summands with distinct roots are already disjoint, so only same-root
groups need work.  An ambiguous group of terms is replaced by its nonempty
cells "inside these terms, outside the rest", found by refinement: each
term in turn splits the cells so far by itself and its complement, and
opens its own cells outside all earlier terms, so an empty cell is dropped
before later terms split it.  Complementing flips avoidance constraints
into containment constraints, which is what restrictions with mandatory
patterns are for.  Restrictions appearing on right sides only then
receive equations of their own from the builder's ``restriction_equation``:
the closure shape with avoidance pushed down, followed by containment
pushed down through the embeddings of each mandatory pattern in the root
(one summand per embedding).  The new equations may again be ambiguous;
the loop continues until the system is closed and every equation is
disjoint, which happens after finitely many rounds because every
constraint pattern lives in the pattern closure of the basis.
"""

from __future__ import annotations

import itertools
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
    term_key,
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


def _expand_group(terms: list[Term]) -> list[Term]:
    """Replace an ambiguous same-root group by an equivalent disjoint one.

    After terms 0..j-1 the cells partition their union, one per nonempty
    subset S: inside the terms of S, outside the others.  Term j splits
    each cell by meeting it with ``[t_j] + complement_term(t_j)`` and adds
    t_j met with the complement of each earlier term in turn; the part
    outside every term is never built.
    """
    complements = [complement_term(t) for t in terms]
    cells: list[Term] = []
    for j, t in enumerate(terms):
        cells = (_meet(cells, [t] + complements[j])
                 + reduce(_meet, complements[:j], [t]))
    return sorted(set(cells), key=term_key)


def _group_ambiguous(terms: list[Term]) -> bool:
    """A same-root group needs expansion when some pair may intersect."""
    return any(intersect_terms(a, b) is not None
               for a, b in itertools.combinations(terms, 2))


def disambiguate_equation(eq: Equation) -> Equation:
    """Make one equation's union disjoint, preserving its members.

    The atom never meets a term (terms produce size >= 2 only), so only
    same-root term groups with a possibly nonempty pairwise intersection
    are expanded.
    """
    groups: dict = {}
    for t in eq.terms:
        groups.setdefault(t.root, []).append(t)
    new_terms: list[Term] = []
    for ts in groups.values():
        new_terms.extend(_expand_group(ts) if _group_ambiguous(ts) else ts)
    return make_equation(eq.lhs, eq.has_atom, new_terms)


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
