"""Counting back end: generating-function view and exact coefficients.

A disjoint system translates directly: the atom becomes z, disjoint union
becomes a sum, and inflating a root by components becomes a product of
their series.  Coefficients are exact integers, filled one size at a time
with no fixpoint iteration.  Each term keeps suffix rows: row i holds, for
every total size, the ways its components i.. sum to that size, which is
component i's counts convolved with row i+1.  Every component has size at
least one, so at size n each convolved row needs only entries below n;
the term's count at n is its row 0, and a nonterminal's count at n is its
atom plus the row-0 entries of its terms.  The uniform sampler draws
component sizes from these same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .restrictions import (
    MODE_DISJOINT,
    Equation,
    Restriction,
    System,
    Term,
)

DEFAULT_COUNT_DEPTH = 40


@dataclass(frozen=True)
class GfEquation:
    name: str
    has_atom: bool
    products: tuple[tuple[str, ...], ...]

    def render(self) -> str:
        pieces = (["z"] if self.has_atom else []) + [
            "*".join(f"F{{{n}}}(z)" for n in prod) for prod in self.products]
        return f"F{{{self.name}}}(z) = " + (" + ".join(pieces) if pieces else "0")


@dataclass(frozen=True)
class GfSystem:
    root_name: str
    equations: tuple[GfEquation, ...]

    def render(self) -> str:
        return "\n".join(eq.render() for eq in self.equations)


def emit_gf_equations(system: System) -> GfSystem:
    """The generating-function equations of a combinatorial specification."""
    if system.mode != MODE_DISJOINT:
        raise ValueError("generating functions need a disjoint system")
    out = []
    for lhs in system.ordered_lhs():
        eq = system.equations[lhs]
        products = tuple(tuple(a.name() for a in t.args) for t in eq.terms)
        out.append(GfEquation(lhs.name(), eq.has_atom, products))
    return GfSystem(system.root.name(), tuple(out))


class CountTable:
    """Exact coefficients per nonterminal up to a size bound, and the
    suffix rows of every term, filled together one size at a time.

    For a term with components a_0..a_{k-1}, row ``i`` holds the ways
    components i.. sum to each total size: row k is 1 at size 0, row k-1
    is the count list of a_{k-1} itself (the same list object), and row
    i < k-1 is the convolution of a_i's counts with row i+1.  Row 0 is the
    term's own count.  The sampler reads the same rows to split a size
    across the components.
    """

    def __init__(self, system: System, depth: int):
        if system.mode != MODE_DISJOINT:
            raise ValueError("counting needs a disjoint system")
        if not system.is_closed():
            raise ValueError("counting needs a closed system")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.system = system
        self.depth = depth
        self.counts: dict[Restriction, list[int]] = {
            r: [0] * (depth + 1) for r in system.equations}
        unit = [1] + [0] * depth
        self._suffixes: dict[Term, list[list[int]]] = {
            t: [[0] * (depth + 1) for _ in t.args[:-1]]
            + [self.counts[t.args[-1]], unit]
            for eq in system.equations.values() for t in eq.terms}
        for n in range(1, depth + 1):
            # Every component has size >= 1, so the rows that are not
            # count rows need only coefficients below n.
            for t, rows in self._suffixes.items():
                for i in range(len(t.args) - 2, -1, -1):
                    rows[i][n] = sum(map(
                        mul, self.counts[t.args[i]][1:n], rows[i + 1][n - 1:0:-1]))
            for r, eq in system.equations.items():
                self.counts[r][n] = (1 if eq.has_atom and n == 1 else 0) + sum(
                    self._suffixes[t][0][n] for t in eq.terms)

    def count(self, r: Restriction, n: int) -> int:
        if n > self.depth:
            raise ValueError(f"size {n} exceeds table depth {self.depth}")
        return self.counts[r][n]

    def root_count(self, n: int) -> int:
        return self.count(self.system.root, n)

    def root_counts(self) -> list[tuple[int, int]]:
        return [(n, self.counts[self.system.root][n])
                for n in range(1, self.depth + 1)]

    def suffix_tables(self, term: Term) -> list[list[int]]:
        """``tables[i][r]``: ways components i.. sum to total size r."""
        return self._suffixes[term]

    def term_count(self, term: Term, n: int) -> int:
        return self.suffix_tables(term)[0][n]


def count_coefficients(system: System, depth: int = DEFAULT_COUNT_DEPTH) -> CountTable:
    """Exact membership counts per nonterminal for sizes 1..depth."""
    return CountTable(system, depth)


def unproductive_nonterminals(system: System) -> frozenset[Restriction]:
    """Nonterminals that generate no permutation at all.

    Least fixpoint: a nonterminal is productive when its equation has the
    atom or some term with every component productive.
    """
    productive: set[Restriction] = set()
    changed = True
    while changed:
        changed = False
        for r, eq in system.equations.items():
            if r in productive:
                continue
            if eq.has_atom or any(
                    all(a in productive for a in t.args) for t in eq.terms):
                productive.add(r)
                changed = True
    return frozenset(set(system.equations) - productive)


def prune_unproductive(system: System) -> System:
    """Drop unproductive nonterminals and the terms that mention them.

    The root equation is kept even when unproductive (it then generates
    nothing); root coefficients are unchanged by the pruning.
    """
    dead = unproductive_nonterminals(system)
    equations = {}
    for r, eq in system.equations.items():
        if r in dead and r != system.root:
            continue
        kept = tuple(t for t in eq.terms
                     if not any(a in dead for a in t.args))
        equations[r] = Equation(eq.lhs, eq.has_atom, kept, eq.mode)
    return System(root=system.root, equations=equations, basis=system.basis,
                  simples=system.simples, mode=system.mode)
