"""Turn an ambiguous system into a combinatorial specification.

Summands with distinct roots are already disjoint, so only same-root
groups need work.  An ambiguous group of terms is replaced by one cell per
nonempty subset of the group: the members of that subset intersected with
the complements of the rest.  Complementing flips avoidance constraints
into containment constraints, which is what restrictions with mandatory
patterns are for.  Restrictions appearing on right sides only then receive
equations of their own from the builder's ``restriction_equation``: the
closure shape with avoidance pushed down, followed by containment pushed
down through the embeddings of each mandatory pattern in the root (one
summand per embedding).  The new equations may again be ambiguous; the
loop continues until the system is closed and every equation is disjoint,
which happens after finitely many rounds because every constraint pattern
lives in the pattern closure of the basis.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from .restrictions import (
    MODE_AMBIGUOUS,
    MODE_DISJOINT,
    Equation,
    System,
    Term,
    intersect_terms,
    complement_term,
    make_equation,
    restriction_key,
    term_key,
)
from .builder import restriction_equation

# Hard ceiling on system growth; hitting it signals a bug, not a big input.
MAX_EQUATIONS = 50_000


class IterationLimitError(RuntimeError):
    """Safety valve for runaway disambiguation."""


def _expand_group(terms: list[Term]) -> list[Term]:
    """Replace an ambiguous same-root group by an equivalent disjoint one.

    One cell per nonempty subset of the group: intersect the subset's
    terms, then intersect with each complement cell of every term outside
    the subset, distributing intersection over the complements' disjoint
    unions.
    """
    k = len(terms)
    complements = [complement_term(t) for t in terms]
    out: set[Term] = set()
    for mask in range(1, 1 << k):
        inside = [terms[i] for i in range(k) if mask >> i & 1]
        cell = inside[0]
        for t in inside[1:]:
            cell = intersect_terms(cell, t)
            if cell is None:
                break
        if cell is None:
            continue
        partial = [cell]
        for i in range(k):
            if mask >> i & 1:
                continue
            nxt = []
            for p in partial:
                for c in complements[i]:
                    q = intersect_terms(p, c)
                    if q is not None:
                        nxt.append(q)
            partial = sorted(set(nxt), key=term_key)
            if not partial:
                break
        out.update(partial)
    return sorted(out, key=term_key)


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
    for root in groups:
        ts = groups[root]
        if len(ts) > 1 and _group_ambiguous(ts):
            new_terms.extend(_expand_group(ts))
        else:
            new_terms.extend(ts)
    return make_equation(eq.lhs, eq.has_atom, new_terms, MODE_DISJOINT)


def disambiguate_system(system: System) -> System:
    """The combinatorial specification equivalent to the given system.

    Alternates two moves until a fixed point: make every equation disjoint,
    and add equations for restrictions that occur on a right side only.
    The root and its members are unchanged.
    """
    work = replace(system, equations=dict(system.equations),
                   mode=MODE_AMBIGUOUS)
    equations = work.equations
    while True:
        pending = sorted((lhs for lhs, eq in equations.items()
                          if eq.mode == MODE_AMBIGUOUS), key=restriction_key)
        for lhs in pending:
            equations[lhs] = disambiguate_equation(equations[lhs])
        missing = work.right_only()
        if not pending and not missing:
            break
        for lhs in missing:
            equations[lhs] = restriction_equation(lhs, system.simples)
        if len(equations) > MAX_EQUATIONS:
            raise IterationLimitError(
                f"system grew past {MAX_EQUATIONS} equations")
    work.mode = MODE_DISJOINT
    return work
