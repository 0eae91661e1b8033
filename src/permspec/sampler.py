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
is uniform, so rejection against a size window keeps uniformity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .perms import Perm, root_perm, substitute
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


class _Oversize(Exception):
    """Internal: abandon a draw that already exceeds the window."""


@dataclass
class SamplerState:
    """A specification, its count table, and a seeded random source.

    The seed fully determines the sample stream for a fixed build.  One
    state per thread; the table may be shared.
    """

    system: System
    table: CountTable
    seed: int = 0
    target: Restriction | None = None

    def __post_init__(self):
        if self.target is None:
            self.target = self.system.root
        if self.target not in self.system.equations:
            raise ValueError(f"no equation for target {self.target}")
        self.rng = random.Random(self.seed)
        self._series: dict[float, dict[Restriction, float]] = {}


def sample_exact(state: SamplerState, n: int) -> Perm:
    """A permutation of size n, exactly uniform over the target's members."""
    if n < 1 or n > state.table.depth:
        raise ValueError(f"size {n} outside table depth {state.table.depth}")
    if state.table.count(state.target, n) == 0:
        raise EmptySizeClassError(f"no member of size {n} in {state.target}")
    return _draw(state, state.target, n)


def _draw(state: SamplerState, r: Restriction, n: int) -> Perm:
    eq = state.system.equations[r]
    u = state.rng.randrange(state.table.count(r, n))
    if eq.has_atom and n == 1:
        if u < 1:
            return Perm((1,))
        u -= 1
    for term in eq.terms:
        w = state.table.term_count(term, n)
        if u < w:
            return _draw_term(state, term, n)
        u -= w
    raise AssertionError(f"inconsistent counts for {r} at size {n}")


def _draw_term(state: SamplerState, term: Term, n: int) -> Perm:
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
        parts.append(_draw(state, comp, size))
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
        raise ValueError("z must be positive")
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


def sample_boltzmann(state: SamplerState, z: float,
                     window: tuple[int, int],
                     budget: int = DEFAULT_REJECTION_BUDGET) -> Perm:
    """A permutation whose size falls in the inclusive window, uniform over
    the members of its size.

    Draws from the size-randomized distribution at parameter z and rejects
    sizes outside the window; draws are abandoned early once they exceed
    the window's upper end.
    """
    lo, hi = window
    if not (1 <= lo <= hi):
        raise ValueError(f"bad size window: {window}")
    key = float(z)
    if key not in state._series:
        state._series[key] = evaluate_series(state.system, key)
    values = state._series[key]
    for _ in range(budget):
        counter = [hi]
        try:
            p = _boltzmann_draw(state, state.target, values, key, counter)
        except _Oversize:
            continue
        if lo <= len(p) <= hi:
            return p
    raise RejectionBudgetError(
        f"no size in [{lo}, {hi}] after {budget} draws at z={z}")


def _boltzmann_draw(state: SamplerState, r: Restriction,
                    values: dict[Restriction, float], z: float,
                    counter: list[int]) -> Perm:
    if counter[0] <= 0:
        raise _Oversize
    eq = state.system.equations[r]
    weights = []
    total = 0.0
    if eq.has_atom:
        total += z
    for term in eq.terms:
        w = 1.0
        for comp in term.args:
            w *= values[comp]
        weights.append(w)
        total += w
    u = state.rng.random() * total
    if eq.has_atom:
        if u < z:
            counter[0] -= 1
            return Perm((1,))
        u -= z
    for term, w in zip(eq.terms, weights):
        if u < w:
            parts = [_boltzmann_draw(state, comp, values, z, counter)
                     for comp in term.args]
            return substitute(root_perm(term.root), parts)
        u -= w
    raise AssertionError(f"inconsistent series weights for {r}")
