"""Uniform random generation from a combinatorial specification.

Exact-size sampling walks the specification with choices weighted by the
exact coefficient tables (the recursive method): pick the atom or a term
with probability proportional to its count at the current size, split the
size across a term's components by sequential convolution weights,
recurse, and assemble with substitution.  The weights are read from the
count engine's suffix rows (``CountTable.suffix_tables``), which counting
fills anyway, so the sampler builds no table of its own.  The result is
exactly uniform over the class members of the requested size.

Size-randomized (Boltzmann) sampling replaces the counts by numeric
series values at a parameter z inside the radius of convergence; the
values are obtained by monotone fixpoint iteration from zero, which is
valid because the system is positive.  Conditioned on its size the output
is uniform, so rejection against a size window keeps uniformity.  A draw
picks its terms (its shape) from per-z weight tables, and only a shape
whose size falls in the window is built: anticipated rejection (Duchon,
Flajolet, Louchard and Schaeffer 2004).  Only the exact sampler runs on
``perms.recurse``; both draw members of any nesting depth.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .perms import InvalidInputError, Perm, recurse, root_perm, substitute
from .restrictions import Restriction, System, Term
from .engine import CountTable

NUMERIC_TOLERANCE = 1e-12
MAX_FIXPOINT_ITERATIONS = 100_000
DIVERGENCE_BOUND = 1e9
DEFAULT_REJECTION_BUDGET = 10_000


class EmptySizeClassError(ValueError):
    """The class has no member of the requested size."""


class DivergentSeriesError(ArithmeticError):
    """Numeric evaluation did not converge (z at or beyond the radius)."""


class RejectionBudgetError(RuntimeError):
    """Too many size-window rejections in a row."""


@dataclass
class SamplerState:
    """A specification, its count table, and a seeded random source.

    The seed fully determines the sample stream for a fixed build.  One
    state per thread; the table may be shared.  Only ``sample_exact``
    reads the table, so a Boltzmann-only state may go without one.
    """

    system: System
    table: CountTable | None = None
    seed: int = 0
    target: Restriction | None = None

    def __post_init__(self):
        if self.target is None:
            self.target = self.system.root
        if self.target not in self.system.equations:
            raise ValueError(f"no equation for target {self.target}")
        self.rng = random.Random(self.seed)
        self._tables: dict[float, list] = {}


def sample_exact(state: SamplerState, n: int) -> Perm:
    """A permutation of size n, exactly uniform over the target's members."""
    if state.table is None:
        raise ValueError("exact sampling needs a count table")
    if n < 1 or n > state.table.depth:
        raise ValueError(f"size {n} outside table depth {state.table.depth}")
    if state.table.count(state.target, n) == 0:
        raise EmptySizeClassError(f"no member of size {n} in {state.target}")
    return recurse(_draw(state, state.target, n))


def _draw(state: SamplerState, r: Restriction, n: int):
    eq = state.system.equations[r]
    u = state.rng.randrange(state.table.count(r, n))
    if eq.has_atom and n == 1:
        if u < 1:
            return Perm((1,))
        u -= 1
    for term in eq.terms:
        w = state.table.term_count(term, n)
        if u < w:
            return (yield from _draw_term(state, term, n))
        u -= w
    raise AssertionError(f"inconsistent counts for {r} at size {n}")


def _draw_term(state: SamplerState, term: Term, n: int):
    suffix = state.table.suffix_tables(term)
    k = len(term.args)
    parts: list[Perm] = []
    remaining = n
    for i, comp in enumerate(term.args):
        if i == k - 1:
            size = remaining
        else:
            u = state.rng.randrange(suffix[i][remaining])
            comp_counts = state.table.counts[comp]
            for m in range(1, remaining - (k - 1 - i) + 1):
                w = comp_counts[m] * suffix[i + 1][remaining - m]
                if u < w:
                    size = m
                    break
                u -= w
            else:
                raise AssertionError("inconsistent suffix tables")
        parts.append((yield _draw(state, comp, size)))
        remaining -= size
    return substitute(root_perm(term.root), parts)


def evaluate_series(system: System, z: float,
                    tolerance: float = NUMERIC_TOLERANCE,
                    max_iterations: int = MAX_FIXPOINT_ITERATIONS,
                    ) -> dict[Restriction, float]:
    """Numeric values of every nonterminal's series at z.

    Monotone fixpoint iteration from zero; raises when values blow up or
    the relative change fails to drop below the tolerance in the iteration
    budget.
    """
    if z <= 0:
        raise InvalidInputError("z must be positive")
    values = {r: 0.0 for r in system.equations}
    for _ in range(max_iterations):
        delta = 0.0
        nxt = {}
        for r, eq in system.equations.items():
            total = z if eq.has_atom else 0.0
            for term in eq.terms:
                prod = 1.0
                for comp in term.args:
                    prod *= values[comp]
                total += prod
            if total > DIVERGENCE_BOUND:
                raise DivergentSeriesError(
                    f"series value exceeded {DIVERGENCE_BOUND:g} at z={z}")
            nxt[r] = total
            delta = max(delta, abs(total - values[r]) / max(total, 1e-300))
        values = nxt
        if delta < tolerance:
            return values
    raise DivergentSeriesError(
        f"no convergence within {max_iterations} iterations at z={z}")


def check_boltzmann_options(z: float, window: tuple[int, int]) -> None:
    """Reject a size window other than 1 <= lo <= hi, and a z <= 0."""
    if not (1 <= window[0] <= window[1]):
        raise InvalidInputError(f"bad size window: {window}")
    if z <= 0:
        raise InvalidInputError("z must be positive")


def sample_boltzmann(state: SamplerState, z: float,
                     window: tuple[int, int],
                     budget: int = DEFAULT_REJECTION_BUDGET) -> Perm:
    """A permutation whose size falls in the inclusive window, uniform over
    the members of its size.

    Draws from the size-randomized distribution at parameter z and rejects
    sizes outside the window; draws are abandoned early once they exceed
    the window's upper end, and only accepted draws are built.
    """
    check_boltzmann_options(z, window)
    lo, hi = window
    key = float(z)
    if key not in state._tables:
        state._tables[key] = _weight_table(
            state.system, evaluate_series(state.system, key), key)
    table = state._tables[key]
    start = list(state.system.equations).index(state.target)
    for _ in range(budget):
        shape = _draw_shape(state.rng.random, table, start, lo, hi)
        if shape is not None:
            return _build(shape)
    raise RejectionBudgetError(
        f"no size in [{lo}, {hi}] after {budget} draws at z={z}")


def _weight_table(system: System, values: dict[Restriction, float], z: float):
    """Per equation, by position: its choices as (root, component indices,
    weight), an atom first as (1, (), z), and their total; products and
    sums run from the left, as in ``evaluate_series``."""
    index = {r: i for i, r in enumerate(system.equations)}
    table = []
    for eq in system.equations.values():
        terms = [(Perm((1,)), (), z)] if eq.has_atom else []
        terms += [(root_perm(t.root), tuple(index[c] for c in t.args),
                   math.prod((values[c] for c in t.args), start=1.0))
                  for t in eq.terms]
        total = 0.0
        for term in terms:
            total += term[2]
        table.append((terms, total))
    return table


def _draw_shape(random, table: list, start: int, lo: int, hi: int):
    """One draw's choices in preorder, or None outside [lo, hi]; abandoned
    when a node is due after hi atoms.  One random() call per node."""
    shape = []
    stack = [start]
    atoms = 0
    while stack:
        if atoms >= hi:
            return None
        terms, total = table[stack.pop()]
        u = random() * total
        for term in terms:
            if u < term[2]:
                break
            u -= term[2]
        else:
            raise AssertionError("inconsistent series weights")
        shape.append(term)
        if term[1]:
            stack.extend(reversed(term[1]))
        else:
            atoms += 1
    return shape if atoms >= lo else None


def _build(shape: list) -> Perm:
    """Fold a preorder shape from its end; a term's first part is on top."""
    stack: list[Perm] = []
    for root, comps, _ in reversed(shape):
        cut = len(stack) - len(comps)
        parts = stack[cut:][::-1]
        del stack[cut:]
        stack.append(substitute(root, parts) if comps else root)
    return stack[0]
