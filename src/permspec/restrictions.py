"""The intermediate representation of a class description.

A restriction is a set of permutations cut out of the substitution closure
of the class: those of a given indecomposability flavor that avoid every
pattern in one set and contain every pattern in another.  Restrictions are
the nonterminals of the equation system.  A restriction term inflates a
root (12, 21, or a simple permutation) with restriction components; an
equation describes one restriction as an atom plus a union of terms; a
system maps every restriction that occurs anywhere to its equation.

Restrictions and terms form a small algebra (intersection, complement)
that the disambiguation step relies on.  Complements stay inside the
closure universe of the same flavor, so avoidance constraints flip into
containment constraints and back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .perms import (
    Perm,
    ROOT_12,
    ROOT_21,
    contains,
    is_simple,
    is_skew_decomposable,
    is_sum_decomposable,
    maximal_patterns,
    minimal_patterns,
    perm_key,
    top_split,
    tree_labels,
)

# Indecomposability flavors of the closure universe.
FLAVOR_ALL = ""          # every member of the closure
FLAVOR_SUM_INDEC = "+"   # members that are not 12[x, y]
FLAVOR_SKEW_INDEC = "-"  # members that are not 21[x, y]
FLAVORS = (FLAVOR_ALL, FLAVOR_SUM_INDEC, FLAVOR_SKEW_INDEC)

MODE_AMBIGUOUS = "ambiguous"
MODE_DISJOINT = "disjoint"


@dataclass(frozen=True)
class Restriction:
    """Members of the closure universe (of one flavor) avoiding every
    pattern in ``avoid`` and containing every pattern in ``contain``.

    Construction normalizes: the avoid set keeps only minimal patterns, the
    contain set keeps only maximal ones and drops the size-1 pattern (every
    member contains it), and both are sorted.  ``empty`` flags restrictions
    that are statically known to denote the empty set; the flag is sound
    but not complete.
    """

    flavor: str
    avoid: tuple[Perm, ...] = ()
    contain: tuple[Perm, ...] = ()
    empty: bool = field(init=False, compare=False, default=False)

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"bad flavor: {self.flavor!r}")
        avoid = minimal_patterns(self.avoid)
        contain = tuple(a for a in maximal_patterns(self.contain) if len(a) > 1)
        object.__setattr__(self, "avoid", avoid)
        object.__setattr__(self, "contain", contain)
        flag = any(len(e) == 1 for e in avoid) or any(
            contains(a, e) for a in contain for e in avoid)
        object.__setattr__(self, "empty", flag)

    def name(self) -> str:
        """Canonical text form, e.g. ``C+<1 2>()`` or ``C<2 1>(1 3 2)``."""
        return ("C" + self.flavor
                + "<" + ";".join(str(e) for e in self.avoid) + ">"
                + "(" + ";".join(str(a) for a in self.contain) + ")")

    def __str__(self) -> str:
        return self.name()


def restriction_key(r: Restriction) -> tuple:
    return (FLAVORS.index(r.flavor),
            tuple(perm_key(e) for e in r.avoid),
            tuple(perm_key(a) for a in r.contain))


def intersect_restrictions(r1: Restriction, r2: Restriction) -> Restriction:
    """Intersection within one flavor: unite both constraint sets."""
    if r1.flavor != r2.flavor:
        raise ValueError(f"flavor mismatch: {r1.flavor!r} vs {r2.flavor!r}")
    return Restriction(r1.flavor, r1.avoid + r2.avoid, r1.contain + r2.contain)


def _subsets(items: tuple) -> Iterator[tuple]:
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


def complement_restriction(r: Restriction) -> list[Restriction]:
    """The complement of r inside its flavor universe, as a disjoint family.

    A member of the complement either contains some avoided pattern or
    avoids some mandatory one; sorting members by exactly which constraints
    they break yields one cell per choice of broken subsets.  Statically
    empty cells are dropped.
    """
    if r.empty:
        raise ValueError("cannot complement a statically empty restriction")
    out = set()
    for x in _subsets(r.contain):      # mandatory patterns now avoided
        for y in _subsets(r.avoid):    # avoided patterns now mandatory
            if not x and not y:
                continue
            rest_avoid = tuple(e for e in r.avoid if e not in y)
            rest_contain = tuple(a for a in r.contain if a not in x)
            cell = Restriction(r.flavor, x + rest_avoid, y + rest_contain)
            if not cell.empty:
                out.add(cell)
    return sorted(out, key=restriction_key)


@dataclass(frozen=True)
class Term:
    """A restriction term: a root inflated with restriction components.

    The root is "12", "21", or a simple permutation.  The first component
    of a 12 (resp. 21) rooted term has the sum-indecomposable (resp.
    skew-indecomposable) flavor, matching the canonical decomposition;
    every other component ranges over the whole closure.
    """

    root: str | Perm
    args: tuple[Restriction, ...]

    def __post_init__(self):
        args = tuple(self.args)
        object.__setattr__(self, "args", args)
        if isinstance(self.root, Perm):
            if not is_simple(self.root):
                raise ValueError(f"term root must be simple: {self.root}")
            if len(args) != len(self.root):
                raise ValueError("term arity does not match its root")
            bad = [a for a in args if a.flavor != FLAVOR_ALL]
        elif self.root in (ROOT_12, ROOT_21):
            if len(args) != 2:
                raise ValueError("linear terms take exactly 2 components")
            first = FLAVOR_SUM_INDEC if self.root == ROOT_12 else FLAVOR_SKEW_INDEC
            bad = ([args[0]] if args[0].flavor != first else []) + \
                  ([args[1]] if args[1].flavor != FLAVOR_ALL else [])
        else:
            raise ValueError(f"bad term root: {self.root!r}")
        if bad:
            raise ValueError(f"component flavor does not fit root {self.root}")

    def root_text(self) -> str:
        return self.root if isinstance(self.root, str) else str(self.root)

    def name(self) -> str:
        return self.root_text() + "[" + ", ".join(a.name() for a in self.args) + "]"

    def __str__(self) -> str:
        return self.name()


def _root_key(root: str | Perm) -> tuple:
    if root == ROOT_12:
        return (0, ())
    if root == ROOT_21:
        return (1, ())
    return (2, perm_key(root))


def term_key(t: Term) -> tuple:
    return (_root_key(t.root), tuple(restriction_key(a) for a in t.args))


def restriction_leq(r1: Restriction, r2: Restriction) -> bool:
    """Static inclusion test: every member of r1 is a member of r2.

    Sound and, on normalized restrictions over a common flavor, complete
    for the implication structure used here: avoidance of E forces
    avoidance of E' when every pattern of E' contains one of E, and dually
    for containment.
    """
    if r1.empty:
        return True
    if r1.flavor != r2.flavor or r2.empty:
        return False
    return (all(any(contains(e2, e1) for e1 in r1.avoid) for e2 in r2.avoid)
            and all(any(contains(a1, a2) for a1 in r1.contain)
                    for a2 in r2.contain))


def term_leq(t1: Term, t2: Term) -> bool:
    """Static inclusion test for terms: same root, componentwise inclusion."""
    return t1.root == t2.root and all(
        restriction_leq(a, b) for a, b in zip(t1.args, t2.args))


def prune_subsumed(terms: Iterable[Term]) -> list[Term]:
    """Drop every term statically contained in another term of the union."""
    items = sorted(set(terms), key=term_key)
    return [t for t in items
            if not any(u != t and term_leq(t, u) for u in items)]


def intersect_terms(t1: Term, t2: Term) -> Term | None:
    """Componentwise intersection; None when the result is empty.

    Terms with different roots are disjoint outright, by uniqueness of the
    decomposition.
    """
    if t1.root != t2.root:
        return None
    args = tuple(intersect_restrictions(a, b) for a, b in zip(t1.args, t2.args))
    if any(a.empty for a in args):
        return None
    return Term(t1.root, args)


def complement_term(t: Term) -> list[Term]:
    """Everything with the same root that is not in t, as disjoint terms.

    At least one component must be complemented; each complemented slot
    independently runs over the cells of that component's complement.
    """
    parts = [complement_restriction(a) for a in t.args]
    n = len(t.args)
    out = []
    for flip in _subsets(tuple(range(n))):
        if not flip:
            continue
        pools = [parts[i] if i in flip else [t.args[i]] for i in range(n)]
        for combo in itertools.product(*pools):
            out.append(Term(t.root, tuple(combo)))
    return sorted(set(out), key=term_key)


@dataclass(frozen=True)
class Equation:
    """One nonterminal described as an optional atom plus a union of terms."""

    lhs: Restriction
    has_atom: bool
    terms: tuple[Term, ...]
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.mode not in (MODE_AMBIGUOUS, MODE_DISJOINT):
            raise ValueError(f"bad mode: {self.mode!r}")


def make_equation(lhs: Restriction, has_atom: bool, terms: Iterable[Term],
                  mode: str) -> Equation:
    """Build an equation with terms deduplicated and canonically sorted."""
    return Equation(lhs, has_atom, tuple(sorted(set(terms), key=term_key)), mode)


@dataclass
class System:
    """A closed equation system over restrictions.

    Every restriction occurring in any term has its own equation.  The mode
    records whether the unions are known to be disjoint.
    """

    root: Restriction
    equations: dict[Restriction, Equation]
    basis: tuple[Perm, ...]
    simples: tuple[Perm, ...]
    mode: str

    def right_only(self) -> list[Restriction]:
        """Restrictions used in some term but lacking an equation."""
        missing = {a for eq in self.equations.values()
                   for t in eq.terms for a in t.args
                   if a not in self.equations}
        return sorted(missing, key=restriction_key)

    def ordered_lhs(self) -> list[Restriction]:
        """Left sides in output order: the root first, the rest canonically."""
        rest = sorted((r for r in self.equations if r != self.root),
                      key=restriction_key)
        return ([self.root] if self.root in self.equations else []) + rest

    def is_closed(self) -> bool:
        return not self.right_only() and self.root in self.equations

    def simples_set(self) -> frozenset[Perm]:
        return frozenset(self.simples)


# ---------------------------------------------------------------------------
# Membership oracle.  Directly decides whether a permutation belongs to a
# restriction, term, or equation right side, from the decomposition tree.
# Used by the cross-validation checks and the test suite.

def in_closure(p: Perm, simples: frozenset[Perm]) -> bool:
    """True when every internal tree label of p is 12, 21, or a listed simple."""
    return all(lab in (ROOT_12, ROOT_21) or lab in simples
               for lab in tree_labels(p))


def in_restriction(p: Perm, r: Restriction, simples: frozenset[Perm]) -> bool:
    if r.empty:
        return False
    if not in_closure(p, simples):
        return False
    if r.flavor == FLAVOR_SUM_INDEC and is_sum_decomposable(p):
        return False
    if r.flavor == FLAVOR_SKEW_INDEC and is_skew_decomposable(p):
        return False
    return (all(not contains(p, e) for e in r.avoid)
            and all(contains(p, a) for a in r.contain))


def in_term(p: Perm, t: Term, simples: frozenset[Perm]) -> bool:
    root, parts = top_split(p)
    if root != t.root or len(parts) != len(t.args):
        return False
    return all(in_restriction(q, r, simples) for q, r in zip(parts, t.args))


def rhs_multiplicity(p: Perm, eq: Equation, simples: frozenset[Perm]) -> int:
    """In how many right-side summands p lies (the atom counts as one)."""
    hits = 1 if (eq.has_atom and len(p) == 1) else 0
    return hits + sum(1 for t in eq.terms if in_term(p, t, simples))
