"""Counting back end: generating functions, exact coefficients, productivity."""

import itertools
import math
from dataclasses import replace

import pytest

from permspec import (
    FLAVOR_ALL,
    MODE_DISJOINT,
    Perm,
    Restriction,
    ambiguous_system,
    class_input,
    closure_system,
    compute_simples,
    count_coefficients,
    disambiguate_equation,
    disambiguate_system,
    emit_gf_equations,
    in_restriction,
    restriction_equation,
    unproductive_nonterminals,
)
from permspec.builder import close
from permspec.restrictions import System, make_equation

from conftest import pc, perms_of_size


def test_gf_equations_of_the_closure():
    gf = emit_gf_equations(closure_system([]))
    assert gf.splitlines() == [
        "F{C<>()}(z) = z + F{C+<>()}(z)*F{C<>()}(z) + F{C-<>()}(z)*F{C<>()}(z)",
        "F{C+<>()}(z) = z + F{C-<>()}(z)*F{C<>()}(z)",
        "F{C-<>()}(z) = z + F{C+<>()}(z)*F{C<>()}(z)",
    ]


def test_gf_rejects_ambiguous_systems(systems_one_simple):
    ambiguous, _ = systems_one_simple
    with pytest.raises(ValueError):
        emit_gf_equations(ambiguous)


def test_gf_renders_zero_for_empty_equation():
    lhs = Restriction(FLAVOR_ALL, (pc("12"), pc("21")), (pc("312"),))
    system = System(root=lhs,
                    equations={lhs: make_equation(lhs, False, ())},
                    basis=(), simples=(), mode=MODE_DISJOINT)
    assert emit_gf_equations(system).endswith("= 0")


def test_counts_catalan_and_schroeder(systems_132, systems_separable):
    t132 = count_coefficients(systems_132[1], 8)
    assert [t132.root_count(n) for n in range(1, 9)] == \
        [1, 2, 5, 14, 42, 132, 429, 1430]
    tsep = count_coefficients(systems_separable[1], 8)
    assert [tsep.root_count(n) for n in range(1, 9)] == \
        [1, 2, 6, 22, 90, 394, 1806, 8558]


def test_counts_grow_exactly_with_big_integers(systems_separable):
    table = count_coefficients(systems_separable[1], 40)
    # Coefficients obey the class's quadratic recurrence exactly:
    # (n+1)a(n+1) = 3(2n-1)a(n) - (n-2)a(n-1) for the large members.
    a = [table.root_count(n) for n in range(1, 41)]
    for n in range(2, 39):
        assert (n + 2) * a[n + 1] == 3 * (2 * n + 1) * a[n] - (n - 1) * a[n - 1]
    assert a[39] > 10 ** 20


def _schroeder(n: int) -> int:
    """The large Schröder number S_n = sum over k of C(n + k, 2k) Catalan(k),
    the number of separable permutations of size n + 1."""
    return sum(math.comb(n + k, 2 * k) * math.comb(2 * k, k) // (k + 1)
               for k in range(n + 1))


def _separable(p) -> bool:
    """Reduce p to one interval by merging adjacent intervals on a stack."""
    stack = []
    for v in p:
        lo = hi = v
        while stack and (stack[-1][1] + 1 == lo or hi + 1 == stack[-1][0]):
            below = stack.pop()
            lo, hi = min(lo, below[0]), max(hi, below[1])
        stack.append((lo, hi))
    return len(stack) == 1


@pytest.mark.parametrize("n", [12, 20, 30])
def test_sep_n_counts_past_the_oracle_cap(n):
    # Sep_n = Av(2413, 3142, 2 3 ... n 1): below size n the class is Sep;
    # at n only 2 3 ... n 1 itself is lost, and at n + 1 its separable
    # one-point extensions, counted here by brute force over the
    # (n + 1)^2 insertions.
    assert sum(map(_separable, itertools.permutations(range(1, 7)))) == \
        _schroeder(5) == 394
    long = tuple(range(2, n + 1)) + (1,)
    basis = (pc("2413"), pc("3142"), Perm(long))
    assert compute_simples(basis).simples == ()
    table = count_coefficients(disambiguate_system(ambiguous_system(
        class_input(basis, ()))), n + 1)
    extensions = {tuple(w + (w >= v) for w in long[:i]) + (v,) +
                  tuple(w + (w >= v) for w in long[i:])
                  for i in range(n + 1) for v in range(1, n + 2)}
    lost = sum(map(_separable, extensions))
    assert lost == n * n - 2 * n + 5  # 125 at n = 12
    assert [table.root_count(k) for k in range(1, n + 2)] == \
        [_schroeder(k - 1) for k in range(1, n)] + \
        [_schroeder(n - 1) - 1, _schroeder(n) - lost]


def test_every_nonterminal_counts_its_members(systems_one_simple):
    _, disjoint = systems_one_simple
    simples = disjoint.simples_set()
    table = count_coefficients(disjoint, 6)
    for lhs in disjoint.equations:
        for n in range(1, 7):
            want = sum(1 for p in perms_of_size(n)
                       if in_restriction(p, lhs, simples))
            assert table.count(lhs, n) == want, (lhs.name(), n)


def test_table_depth_is_enforced(systems_132):
    table = count_coefficients(systems_132[1], 5)
    with pytest.raises(ValueError):
        table.root_count(6)


def test_negative_size_is_refused(systems_132):
    # A negative size would index the row from its end: root_count(-1) at
    # depth 6 read the count at size 6, 132.
    disjoint = systems_132[1]
    table = count_coefficients(disjoint, 6)
    assert table.root_count(0) == table.count(disjoint.root, 0) == 0
    for n in (-1, -6, -7):
        with pytest.raises(ValueError, match=f"size {n} outside"):
            table.root_count(n)
        with pytest.raises(ValueError, match=f"size {n} outside"):
            table.count(disjoint.root, n)


def test_suffix_tables_agree_with_counts(systems_one_simple):
    _, disjoint = systems_one_simple
    table = count_coefficients(disjoint, 7)
    for lhs, eq in disjoint.equations.items():
        for n in range(1, 8):
            total = (1 if (eq.has_atom and n == 1) else 0) + \
                sum(table.suffix_tables(t)[0][n] for t in eq.terms)
            assert total == table.count(lhs, n)


def naive_counts(system, depth):
    """Counts by a from-scratch convolution of every term at every size."""
    counts = {r: [0] * (depth + 1) for r in system.equations}

    def term_count_at(term, n):
        k = len(term.args)
        if n < k:
            return 0
        ways = [1] + [0] * n
        for idx, comp in enumerate(term.args):
            remaining = k - idx - 1
            comp_counts = counts[comp]
            nxt = [0] * (n + 1)
            for s in range(idx, n - remaining):
                if not ways[s]:
                    continue
                for m in range(1, n - remaining - s + 1):
                    if comp_counts[m]:
                        nxt[s + m] += ways[s] * comp_counts[m]
            ways = nxt
        return ways[n]

    for n in range(1, depth + 1):
        for r, eq in system.equations.items():
            counts[r][n] = (1 if eq.has_atom and n == 1 else 0) + sum(
                term_count_at(t, n) for t in eq.terms)
    return counts


def test_suffix_row_kernel_matches_naive_convolution(systems_one_simple,
                                                     systems_separable):
    for _, disjoint in (systems_one_simple, systems_separable):
        table = count_coefficients(disjoint, 60)
        assert table.counts == naive_counts(disjoint, 60)


def test_suffix_rows_convolve_the_next_row(systems_one_simple):
    _, disjoint = systems_one_simple
    table = count_coefficients(disjoint, 12)
    for eq in disjoint.equations.values():
        for t in eq.terms:
            rows = table.suffix_tables(t)
            assert len(rows) == len(t.args) + 1
            assert rows[-1] == [1] + [0] * 12
            for i, comp in enumerate(t.args):
                for r in range(13):
                    assert rows[i][r] == sum(
                        table.counts[comp][m] * rows[i + 1][r - m]
                        for m in range(1, r + 1))


def test_productivity(corpus_systems):
    # The closure from the root with every equation made disjoint, before
    # disambiguate_system trims it: on L1 and B3 it reaches nonterminals
    # with no member at all.  The flavor interplay can empty a restriction
    # the static flag misses (an increasing permutation of size 2 or more
    # is never sum-indecomposable, say), and the analysis catches those.
    memberless = {
        "L1": {"C+<2 1;1 2 3>(1 2)"},
        "B3": {"C+<2 1>(1 2)", "C+<2 1;1 2 3>(1 2)",
               "C-<1 3 2;2 1 3;2 3 1;1 2 3 4>(1 2;2 1)"},
    }
    for name, names in memberless.items():
        amb, _ = corpus_systems[name]
        untrimmed = replace(amb, mode=MODE_DISJOINT, equations=close(
            amb.root, lambda lhs: disambiguate_equation(
                restriction_equation(lhs, amb.simples))))
        simples = untrimmed.simples_set()
        dead_set = unproductive_nonterminals(untrimmed)
        assert {r.name() for r in dead_set} == names

        table = count_coefficients(untrimmed, 8)
        for lhs in untrimmed.equations:
            members = any(in_restriction(p, lhs, simples)
                          for n in range(1, 7) for p in perms_of_size(n))
            row = any(table.count(lhs, n) for n in range(1, 9))
            if lhs in dead_set:
                assert not members and not row, lhs.name()
            else:
                assert row, lhs.name()

        trimmed = disambiguate_system(amb)
        assert dead_set.isdisjoint(trimmed.equations)
        after = count_coefficients(trimmed, 8)
        for n in range(1, 9):
            assert table.root_count(n) == after.root_count(n)


def test_productivity_flags_statically_empty_graft(systems_one_simple):
    _, disjoint = systems_one_simple
    dead = Restriction(FLAVOR_ALL, (Perm((1,)),))
    equations = dict(disjoint.equations)
    equations[dead] = make_equation(dead, False, ())
    grafted = System(root=disjoint.root, equations=equations,
                     basis=disjoint.basis, simples=disjoint.simples,
                     mode=MODE_DISJOINT)
    assert dead in unproductive_nonterminals(grafted)
    assert dead not in disambiguate_system(grafted).equations


def test_root_of_nonempty_class_is_productive(systems_132):
    _, disjoint = systems_132
    assert disjoint.root not in unproductive_nonterminals(disjoint)
