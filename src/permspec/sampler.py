"""Uniform random generation from a combinatorial specification.

An exact-size draw is one ``randrange`` below the root's count, decoded by
unranking (Martinez and Molinero, "A generic approach for the unranking of
labeled combinatorial classes", RSA 2001), the rank form of the recursive
method (Flajolet, Zimmermann and Van Cutsem, "A calculus for the random
generation of labelled combinatorial structures", TCS 1994).  A node's
rank picks the atom or a term by count; a term's picks each component's
size by convolution weights, searched from both ends (boustrophedonic), and
then, by divmod, that component's rank and the rest's.  The weights are
the count engine's suffix rows (``CountTable.suffix_tables``), so the
sampler builds no table of its own.  Every member of the requested size has
exactly one rank, so the draw is exactly uniform.

Size-randomized (Boltzmann) sampling replaces the counts by numeric
series values at a parameter z inside the radius of convergence; the
values are obtained by monotone fixpoint iteration from zero, which is
valid because the system is positive.  Conditioned on its size the output
is uniform, so rejection against a size window keeps uniformity.  A draw
picks its terms from per-z weight tables, and only a draw whose size falls
in the window is built: anticipated rejection (Duchon, Flajolet, Louchard
and Schaeffer 2004).  Both samplers pick from one choice list per equation
(``_choices``), weighted by suffix rows or by series values.  Each draw is
a preorder shape drawn on a stack, to any depth, built by ``perms.inflate``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .perms import InvalidInputError, Perm, inflate
from .restrictions import MODE_DISJOINT, Restriction, System
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
    """A disjoint specification, its count table, and a seeded random
    source.  An ambiguous system is refused: a member reached by several
    summands would be drawn more often.

    The seed fully determines the sample stream for a fixed build.  One
    state per thread; the table may be shared.  Only ``sample_exact``
    reads the table, so a Boltzmann-only state may go without one.
    """

    system: System
    table: CountTable | None = None
    seed: int = 0

    def __post_init__(self):
        if self.system.mode != MODE_DISJOINT:
            raise ValueError("sampling needs a disjoint system")
        self._start = list(self.system.equations).index(self.system.root)
        self.rng = random.Random(self.seed)
        self._tables: dict[float, list] = {}
        # Per equation: its count row and its choices weighted by suffix
        # rows, the atom's one member of size 1.
        self._index = None
        if self.table is not None:
            atom = [[0, 1] + [0] * (self.table.depth - 1)]
            choices = _choices(self.system, self.table.suffix_tables, atom)
            self._index = [(self.table.counts[r], c)
                           for r, c in zip(self.system.equations, choices)]


def _choices(system: System, weight, atom) -> list[list[tuple]]:
    """Per equation, by position: its choices as (root, component
    positions, weight(term)), the atom first as (1, (), atom)."""
    position = {r: i for i, r in enumerate(system.equations)}
    return [[(Perm((1,)), (), atom)] * eq.has_atom + [
        (t.root, tuple(position[c] for c in t.args), weight(t))
        for t in eq.terms] for eq in system.equations.values()]


def sample_exact(state: SamplerState, n: int) -> Perm:
    """A permutation of size n, exactly uniform over the root's members:
    one ``randrange`` below their count, decoded by ``_exact_shape``."""
    if state.table is None:
        raise ValueError("exact sampling needs a count table")
    if n < 1 or n > state.table.depth:
        raise ValueError(f"size {n} outside table depth {state.table.depth}")
    if (count := state.table.root_count(n)) == 0:
        raise EmptySizeClassError(f"no member of size {n} in {state.system.root}")
    return inflate(_exact_shape(state, n, state.rng.randrange(count)))


def _exact_shape(state: SamplerState, n: int, rank: int) -> list:
    """The preorder choices of the root's size-n member of this rank.

    The stack holds continuations (choice, next component, size left,
    rank), the first a one-component choice of the root.  Each finds the
    component's size (searched from both ends by ``_split_size``), splits
    the rank by divmod, leaves the rest's continuation under it, and picks
    the component's choice by count, so a child's whole subtree is decoded
    before the next component's size.
    """
    index = state._index
    shape = []
    stack = [((None, (state._start,), None), 0, n, rank)]
    while stack:
        choice, i, left, u = stack.pop()
        _, comps, suffix = choice
        counts, choices = index[comps[i]]
        n = left
        if i < len(comps) - 1:
            n, u = _split_size(u, suffix[i][left], counts, suffix[i + 1],
                               left, left - len(comps) + i + 1)
            u, rest = divmod(u, suffix[i + 1][left - n])
            stack.append((choice, i + 1, left - n, rest))
        for choice in choices:
            w = choice[2][0][n]
            if u < w:
                break
            u -= w
        else:
            raise AssertionError(f"inconsistent counts at size {n}")
        shape.append(choice)
        if choice[1]:
            stack.append((choice, 0, n, u))
    return shape


def _split_size(u: int, total: int, counts, rest, left: int, top: int):
    """The least n with u < w(1) + ... + w(n), w(n) = counts[n] * rest[left
    - n], and u's offset in w(n), found from both ends in turn: about
    2 min(n, top - n + 1) weights read."""
    tail = total - u
    for lo in range(1, (top + 1) // 2 + 1):
        hi = top + 1 - lo
        w = counts[lo] * rest[left - lo]
        if u < w:
            return lo, u
        u -= w
        tail -= counts[hi] * rest[left - hi]
        if tail <= 0:
            return hi, -tail
    raise AssertionError("inconsistent suffix tables")


def evaluate_series(system: System, z: float) -> dict[Restriction, float]:
    """Numeric values of every nonterminal's series at z.

    Monotone fixpoint iteration from zero; raises when values blow up or
    the relative change fails to drop below ``NUMERIC_TOLERANCE`` within
    ``MAX_FIXPOINT_ITERATIONS``.
    """
    if not z > 0:  # NaN included
        raise InvalidInputError("z must be positive")
    values = {r: 0.0 for r in system.equations}
    for _ in range(MAX_FIXPOINT_ITERATIONS):
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
        if delta < NUMERIC_TOLERANCE:
            return values
    raise DivergentSeriesError(
        f"no convergence within {MAX_FIXPOINT_ITERATIONS} iterations at z={z}")


def check_boltzmann_options(z: float, window: tuple[int, int]) -> None:
    """Reject a size window other than 1 <= lo <= hi, and a z not > 0."""
    if not (1 <= window[0] <= window[1]):
        raise InvalidInputError(f"bad size window: {window}")
    if not z > 0:
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
    for _ in range(budget):
        shape = _draw_shape(state.rng.random, table, state._start, lo, hi)
        if shape is not None:
            return inflate(shape)
    raise RejectionBudgetError(
        f"no size in [{lo}, {hi}] after {budget} draws at z={z}")


def _weight_table(system: System, values: dict[Restriction, float], z: float):
    """Per equation, by position: its choices weighted by the product of
    their components' values, the atom's by z, and their total; products
    and sums run from the left, as in ``evaluate_series``."""
    def weight(term):
        return math.prod((values[c] for c in term.args), start=1.0)
    table = []
    for choices in _choices(system, weight, z):
        total = 0.0
        for choice in choices:
            total += choice[2]
        table.append((choices, total))
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

