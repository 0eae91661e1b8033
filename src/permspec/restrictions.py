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
containment constraints and back.  The algebra runs on masks over one
numbering of the constraint patterns, each numbered on first sight with
the masks of the numbered patterns below and above it; intersection is
an OR plus one intern-table lookup, and static inclusion one mask test.
Equal restrictions are one object, compared and hashed by identity.
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
    indecomposability,
    is_simple,
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

# Bit i of a mask stands for _PATTERNS[i]; _BELOW[i] masks the numbered
# patterns it properly contains, _ABOVE[i] i and those containing it.
# Numbers are never reused or reset.
_PATTERNS: list[Perm] = []
_NUMBER: dict[Perm, int] = {}
_BELOW: list[int] = []
_ABOVE: list[int] = []
# (flavor, avoid mask, contain mask), raw or normalized -> the restriction.
_INTERN: dict[tuple[str, int, int], "Restriction"] = {}


def _number(p: Perm) -> int:
    if p not in _NUMBER:
        i = _NUMBER[p] = len(_PATTERNS)
        below, above = 0, 1 << i
        for j, q in enumerate(_PATTERNS):
            if len(q) < len(p) and contains(p, q):
                below |= 1 << j
                _ABOVE[j] |= 1 << i
            elif len(q) > len(p) and contains(q, p):
                _BELOW[j] |= 1 << i
                above |= 1 << j
        for r in [r for r in _INTERN.values() if r.contain_mask & above]:
            r.down |= 1 << i  # p lies below a pattern r's members hold
        _PATTERNS.append(p)
        _BELOW.append(below)
        _ABOVE.append(above)
    return _NUMBER[p]


_ATOM = 1 << _number(Perm((1,)))    # the size-1 pattern, contained in all


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _covered(mask: int, table: list[int] = _BELOW) -> int:
    """The OR of ``table`` over mask's bits (the patterns below them)."""
    out = 0
    for i in _bits(mask):
        out |= table[i]
    return out


class Restriction:
    """Members of the closure universe (of one flavor) avoiding every
    pattern in ``avoid`` and containing every pattern in ``contain``.

    Construction normalizes: the avoid set keeps only minimal patterns, the
    contain set keeps only maximal ones and drops the size-1 pattern (every
    member contains it), and both are sorted.  ``empty`` flags restrictions
    that are statically known to denote the empty set; the flag is sound
    but not complete.  Every route to a restriction ends in ``_interned``,
    which makes each one once, so equal restrictions are one object and
    equality and hashing are identity.
    """

    __slots__ = ("flavor", "avoid", "contain", "empty", "avoid_mask",
                 "contain_mask", "down", "_key")

    def __new__(cls, flavor: str, avoid: Iterable[Perm] = (),
                contain: Iterable[Perm] = ()) -> Restriction:
        if flavor not in FLAVORS:
            raise ValueError(f"bad flavor: {flavor!r}")
        return _interned(flavor, sum({1 << _number(e) for e in avoid}),
                         sum({1 << _number(a) for a in contain}))

    def __post_init__(self):
        """Fill the fields derived from the flavor and normalized masks."""
        avoid, contain = self.avoid_mask, self.contain_mask
        self.avoid, self.contain = normal = [tuple(sorted(
            map(_PATTERNS.__getitem__, _bits(m)), key=perm_key))
            for m in (avoid, contain)]
        self.down = _ATOM | contain | _covered(contain)  # held by all members
        self.empty = bool(avoid & self.down)
        self._key = (FLAVORS.index(self.flavor),
                     *(tuple(map(perm_key, ps)) for ps in normal))

    def __reduce__(self):
        return Restriction, (self.flavor, self.avoid, self.contain)

    def name(self) -> str:
        """Canonical text form, e.g. ``C+<1 2>()`` or ``C<2 1>(1 3 2)``."""
        return ("C" + self.flavor
                + "<" + ";".join(str(e) for e in self.avoid) + ">"
                + "(" + ";".join(str(a) for a in self.contain) + ")")

    __str__ = __repr__ = name


def restriction_key(r: Restriction) -> tuple:
    return r._key


def _interned(flavor: str, avoid: int, contain: int) -> Restriction:
    """The one restriction with these pattern masks, normalized or not."""
    if (raw := (flavor, avoid, contain)) not in _INTERN:
        avoid &= ~sum(1 << i for i in _bits(avoid) if _BELOW[i] & avoid)
        contain &= ~_ATOM
        ident = (flavor, avoid, contain & ~_covered(contain))
        if ident not in _INTERN:
            r = _INTERN[ident] = object.__new__(Restriction)
            r.flavor, r.avoid_mask, r.contain_mask = ident
            r.__post_init__()
        _INTERN[raw] = _INTERN[ident]
    return _INTERN[raw]


def intersect_restrictions(r1: Restriction, r2: Restriction) -> Restriction:
    """Intersection within one flavor: unite both constraint sets."""
    if r1.flavor != r2.flavor:
        raise ValueError(f"flavor mismatch: {r1.flavor!r} vs {r2.flavor!r}")
    return _interned(r1.flavor, r1.avoid_mask | r2.avoid_mask,
                     r1.contain_mask | r2.contain_mask)


def complement_restriction(r: Restriction) -> list[Restriction]:
    """The complement of r inside its flavor universe, as a disjoint family.

    A member of the complement either contains some avoided pattern or
    avoids some mandatory one; sorting members by which constraints they
    break gives one cell per nonempty set of them, flipped by XOR (the two
    masks of a nonempty r are disjoint).  Statically empty cells are dropped.
    """
    if r.empty:
        raise ValueError("cannot complement a statically empty restriction")
    both = r.avoid_mask | r.contain_mask
    out = set()
    flip = both
    while flip:
        cell = _interned(r.flavor, r.avoid_mask ^ flip, r.contain_mask ^ flip)
        if not cell.empty:
            out.add(cell)
        flip = (flip - 1) & both
    return sorted(out, key=restriction_key)


def component_flavors(root: Perm) -> tuple[str, ...]:
    """The flavors of a term's components on this root, as the canonical
    decomposition splits it: (+, all) on 12, (-, all) on 21, all on a simple."""
    if root == ROOT_12:
        return FLAVOR_SUM_INDEC, FLAVOR_ALL
    if root == ROOT_21:
        return FLAVOR_SKEW_INDEC, FLAVOR_ALL
    if is_simple(root):
        return (FLAVOR_ALL,) * len(root)
    raise ValueError(f"term root must be simple: {root}")


@dataclass(frozen=True)
class Term:
    """A restriction term: a root inflated with restriction components.

    The root is 12, 21, or a simple permutation, and the components have
    the flavors ``component_flavors`` gives it.
    """

    root: Perm
    args: tuple[Restriction, ...]

    def __post_init__(self):
        args = tuple(self.args)
        if tuple(a.flavor for a in args) != component_flavors(self.root):
            raise ValueError(f"components do not fit root {self.root}")
        self.__dict__.update(args=args, _hash=hash((self.root, args)))

    @classmethod
    def _trusted(cls, root: Perm, args: tuple[Restriction, ...]) -> Term:
        """A term of components known to fit its root, made unchecked."""
        t = object.__new__(cls)
        t.__dict__.update(root=root, args=args, _hash=hash((root, args)))
        return t

    def __hash__(self) -> int:
        return self._hash

    def root_text(self) -> str:
        """The root as written in a term: ``12``, ``21`` or a literal."""
        return "".join(map(str, self.root)) if len(self.root) == 2 \
            else str(self.root)

    def name(self) -> str:
        return self.root_text() + "[" + ", ".join(a.name() for a in self.args) + "]"

    __str__ = name


def term_key(t: Term) -> tuple:
    return (perm_key(t.root), tuple(restriction_key(a) for a in t.args))


def restriction_leq(r1: Restriction, r2: Restriction) -> bool:
    """Static inclusion test: every member of r1 is a member of r2.

    Sound and, on normalized restrictions over a common flavor, complete
    for the implication structure used here: avoidance of E forces
    avoidance of E' when every pattern of E' contains one of E, and dually
    for containment.
    """
    return (r1.empty or r1.flavor == r2.flavor) and not (
        _leq_fields(r2)[0] & ~_leq_fields(r1)[1])


def _leq_fields(r: Restriction) -> tuple[int, int]:
    """What r asks of one above it, its avoid and contain masks side by side,
    and offers one below, their up- and down-closures (empty: top bit, all)."""
    half = len(_PATTERNS) + 1  # the top bit is no pattern's
    return (1 << 2 * half - 1, (1 << 2 * half) - 1) if r.empty else (
        r.avoid_mask << half | r.contain_mask,
        _covered(r.avoid_mask, _ABOVE) << half | r.down)


def term_leq(t1: Term, t2: Term) -> bool:
    """Static inclusion test for terms: same root, componentwise inclusion."""
    return t1.root == t2.root and all(
        restriction_leq(a, b) for a, b in zip(t1.args, t2.args))


def prune_subsumed(terms: Iterable[Term]) -> list[Term]:
    """Drop every term statically contained in another term of the union:
    ``term_leq`` by masks, within each root, t lying below u when u's ask,
    its components' ``_leq_fields`` side by side, is within t's offer."""
    if len(items := sorted(set(terms), key=term_key)) < 2:
        return items
    width, out = 2 * len(_PATTERNS) + 2, []
    fields = {r: _leq_fields(r) for r in {a for t in items for a in t.args}}
    for _, group in itertools.groupby(items, key=lambda t: t.root):
        group = list(group)
        asks, offers = ([sum(fields[r][side] << width * k for k, r in
                             enumerate(t.args)) for t in group] for side in (0, 1))
        out += [t for t, free in zip(group, map(int.__invert__, offers))
                if sum(not ask & free for ask in asks) == 1]  # t's own
    return out


def intersect_terms(t1: Term, t2: Term) -> Term | None:
    """Componentwise intersection; None when the result is empty.

    Terms with different roots are disjoint outright, by uniqueness of the
    decomposition; otherwise the first empty component settles it, and the
    components after it are not intersected.
    """
    if t1.root != t2.root:
        return None
    args = []
    for a in map(intersect_restrictions, t1.args, t2.args):
        if a.empty:
            return None
        args.append(a)
    return Term._trusted(t1.root, tuple(args))


def terms_meet(t1: Term, t2: Term) -> bool:
    """``intersect_terms(t1, t2) is not None``, without building the term."""
    return t1.root == t2.root and not any((a.avoid_mask | b.avoid_mask) & (
        a.down | b.down) for a, b in zip(t1.args, t2.args))


def complement_term(t: Term) -> list[Term]:
    """Everything with the same root that is not in t, as disjoint terms.

    A tuple outside t has a first slot k whose part leaves t's component:
    the slots before k keep t's components, slot k runs over the cells of
    that component's complement, and the slots after k range over their
    whole flavor universe.  That is one term per complement cell of each
    slot, sum rather than product.
    """
    return sorted((Term._trusted(t.root, t.args[:k] + (cell,) + tuple(
        _interned(a.flavor, 0, 0) for a in t.args[k + 1:]))
        for k, arg in enumerate(t.args)
        for cell in complement_restriction(arg)), key=term_key)


@dataclass(frozen=True)
class Equation:
    """One nonterminal described as an optional atom plus a union of terms.

    Whether the unions are disjoint is recorded once, in ``System.mode``.
    """

    lhs: Restriction
    has_atom: bool
    terms: tuple[Term, ...]


def make_equation(lhs: Restriction, has_atom: bool,
                  terms: Iterable[Term]) -> Equation:
    """Build an equation with terms deduplicated and canonically sorted."""
    return Equation(lhs, has_atom, tuple(sorted(set(terms), key=term_key)))


@dataclass
class System:
    """A closed equation system over restrictions.

    Every restriction occurring in any term has its own equation.  The mode
    records whether the unions are known to be disjoint.  ``pushes`` hands a
    build's push memo to its disambiguation; it is not serialized.
    """

    root: Restriction
    equations: dict[Restriction, Equation]
    basis: tuple[Perm, ...]
    simples: tuple[Perm, ...]
    mode: str
    pushes: dict | None = field(default=None, compare=False, repr=False)

    def ordered_lhs(self) -> list[Restriction]:
        """Left sides in output order: the root first, the rest canonically."""
        rest = sorted((r for r in self.equations if r != self.root),
                      key=restriction_key)
        return ([self.root] if self.root in self.equations else []) + rest

    def is_closed(self) -> bool:
        """True when the root and every restriction in a term have equations."""
        return self.root in self.equations and all(
            a in self.equations for eq in self.equations.values()
            for t in eq.terms for a in t.args)

    def simples_set(self) -> frozenset[Perm]:
        return frozenset(self.simples)


# ---------------------------------------------------------------------------
# Membership oracle: decides from the decomposition tree whether a
# permutation lies in a restriction, term or equation right side.  It is
# the tests' plain reference and the tracer's ``in_restriction`` hook.

def in_closure(p: Perm, simples: frozenset[Perm]) -> bool:
    """True when every internal tree label of p is 12, 21, or a listed simple."""
    return all(len(lab) == 2 or lab in simples for lab in tree_labels(p))


def in_restriction(p: Perm, r: Restriction, simples: frozenset[Perm]) -> bool:
    if r.empty:
        return False
    if not in_closure(p, simples):
        return False
    sum_indec, skew_indec = indecomposability(p)
    if r.flavor == FLAVOR_SUM_INDEC and not sum_indec:
        return False
    if r.flavor == FLAVOR_SKEW_INDEC and not skew_indec:
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
