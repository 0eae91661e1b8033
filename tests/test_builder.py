"""System construction: closure shapes, constraint propagation, closure of
the equation set, and oracle soundness of every equation."""

import pytest

from permspec import (
    FLAVOR_ALL,
    FLAVOR_SKEW_INDEC,
    FLAVOR_SUM_INDEC,
    MODE_AMBIGUOUS,
    MODE_DISJOINT,
    Perm,
    Restriction,
    Term,
    add_constraints,
    ambiguous_system,
    class_input,
    closure_system,
    contains,
    count_coefficients,
    disambiguate_system,
    in_restriction,
    rhs_multiplicity,
)
from permspec.perms import ROOT_12, ROOT_21

from conftest import BASIS_ONE_SIMPLE, pc, perms_of_size


def CA(*avoid, contain=()):
    return Restriction(FLAVOR_ALL, tuple(pc(s) for s in avoid),
                       tuple(pc(s) for s in contain))


def CP(*avoid):
    return Restriction(FLAVOR_SUM_INDEC, tuple(pc(s) for s in avoid))


def CM(*avoid):
    return Restriction(FLAVOR_SKEW_INDEC, tuple(pc(s) for s in avoid))


# --- closure systems --------------------------------------------------------

def test_closure_system_without_simples():
    system = closure_system([])
    assert system.mode == MODE_DISJOINT and system.is_closed()
    eq = system.equations[Restriction(FLAVOR_ALL)]
    assert eq.has_atom
    assert set(eq.terms) == {
        Term(ROOT_12, (CP(), CA())),
        Term(ROOT_21, (CM(), CA())),
    }
    plus_eq = system.equations[Restriction(FLAVOR_SUM_INDEC)]
    assert [t.root for t in plus_eq.terms] == [ROOT_21]


def test_closure_system_gains_one_term_per_simple():
    system = closure_system([pc("2413"), pc("3142")])
    eq = system.equations[Restriction(FLAVOR_ALL)]
    assert Term(pc("2413"), (CA(),) * 4) in eq.terms
    assert Term(pc("3142"), (CA(),) * 4) in eq.terms
    assert len(eq.terms) == 4


def test_closure_system_rejects_non_simple():
    with pytest.raises(ValueError):
        closure_system([pc("132")])


def test_closure_counting_matches_direct_enumeration():
    table = count_coefficients(closure_system([]), 7)
    assert [table.root_count(n) for n in range(1, 8)] == \
        [1, 2, 6, 22, 90, 394, 1806]


# --- constraint propagation -------------------------------------------------

def test_add_constraints_on_simple_root():
    base = Term(pc("3142"), (CA(),) * 4)
    got = add_constraints(base, [pc("1243")])
    assert set(got) == {
        Term(pc("3142"), (CA("1243"), CA("12"), CA("21"), CA("132"))),
        Term(pc("3142"), (CA("12"), CA("12"), CA("132"), CA("132"))),
    }


def test_add_constraints_on_linear_roots():
    got12 = add_constraints(Term(ROOT_12, (CP(), CA())), [pc("1243")])
    assert set(got12) == {
        Term(ROOT_12, (CP("12"), CA("132"))),
        Term(ROOT_12, (CP("1243"), CA("21"))),
    }
    got21 = add_constraints(Term(ROOT_21, (CM(), CA())), [pc("1243")])
    assert set(got21) == {Term(ROOT_21, (CM("1243"), CA("1243")))}


def test_add_constraints_empty_pattern_set_is_identity():
    t = Term(pc("3142"), (CA(),) * 4)
    assert add_constraints(t, []) == [t]


def test_add_constraints_union_is_exact():
    simples = frozenset({pc("3142")})
    base = Term(pc("3142"), (CA(),) * 4)
    pieces = add_constraints(base, [pc("1243")])
    from permspec import in_term
    for n in range(4, 8):
        for p in perms_of_size(n):
            want = in_term(p, base, simples) and not contains(p, pc("1243"))
            got = any(in_term(p, t, simples) for t in pieces)
            assert want == got, p


# --- the full ambiguous system ----------------------------------------------

@pytest.fixture(scope="module")
def worked_system():
    return ambiguous_system(
        class_input(BASIS_ONE_SIMPLE, [pc("3142")]))


def test_worked_system_equations_reproduced_exactly(worked_system):
    system = worked_system
    assert system.mode == MODE_AMBIGUOUS
    assert system.root == CA("1243")

    eq = system.equations[CA("1243")]
    assert eq.has_atom
    assert set(eq.terms) == {
        Term(ROOT_12, (CP("12"), CA("132"))),
        Term(ROOT_12, (CP("1243"), CA("21"))),
        Term(ROOT_21, (CM("1243"), CA("1243"))),
        Term(pc("3142"), (CA("1243"), CA("12"), CA("21"), CA("132"))),
        Term(pc("3142"), (CA("12"), CA("12"), CA("132"), CA("132"))),
    }

    eq = system.equations[CA("12")]
    assert eq.has_atom
    assert set(eq.terms) == {Term(ROOT_21, (CM("12"), CA("12")))}

    eq = system.equations[CA("132")]
    assert eq.has_atom
    assert set(eq.terms) == {
        Term(ROOT_12, (CP("132"), CA("21"))),
        Term(ROOT_21, (CM("132"), CA("132"))),
    }

    eq = system.equations[CA("21")]
    assert eq.has_atom
    assert set(eq.terms) == {Term(ROOT_12, (CP("21"), CA("21")))}


def test_worked_system_is_closed_and_deterministic(worked_system):
    assert worked_system.is_closed()
    again = ambiguous_system(class_input(BASIS_ONE_SIMPLE, [pc("3142")]))
    assert again == worked_system


def test_substitution_closed_basis_gives_closure_equations():
    basis = [pc("2413"), pc("3142")]
    system = ambiguous_system(class_input(basis, []))
    assert system.root == Restriction(FLAVOR_ALL)
    closure = closure_system([])
    assert set(system.equations) == set(closure.equations)
    for lhs, eq in system.equations.items():
        ref = closure.equations[lhs]
        assert (eq.has_atom, set(eq.terms)) == (ref.has_atom, set(ref.terms))


def test_basis_of_the_atom_gives_the_empty_class():
    system = ambiguous_system(class_input([Perm((1,))], []))
    assert len(system.equations) == 3
    for eq in system.equations.values():
        assert (eq.has_atom, eq.terms, eq.mode) == (False, (), MODE_AMBIGUOUS)
    table = count_coefficients(disambiguate_system(system), 10)
    assert table.root_counts() == [(n, 0) for n in range(1, 11)]


def test_av132_equation_shape():
    system = ambiguous_system(class_input([pc("132")], []))
    eq = system.equations[CA("132")]
    assert eq.has_atom
    assert set(eq.terms) == {
        Term(ROOT_12, (CP("132"), CA("21"))),
        Term(ROOT_21, (CM("132"), CA("132"))),
    }


def test_every_equation_sound_and_complete(worked_system, all_systems):
    targets = [worked_system] + [amb for amb, _ in all_systems.values()]
    for system in targets:
        simples = system.simples_set()
        for n in range(1, 7):
            for p in perms_of_size(n):
                for lhs, eq in system.equations.items():
                    member = in_restriction(p, lhs, simples)
                    hit = rhs_multiplicity(p, eq, simples) > 0
                    assert member == hit, (p, lhs.name())


def test_constraint_sets_live_in_basis_pattern_closure(worked_system):
    from permspec import is_simple
    bstar = [b for b in worked_system.basis if not is_simple(b)]
    assert bstar == [pc("1243")]
    for lhs, eq in worked_system.equations.items():
        for r in [lhs] + [a for t in eq.terms for a in t.args]:
            for pattern in r.avoid + r.contain:
                assert any(contains(b, pattern) for b in bstar), pattern


def test_class_input_validation():
    with pytest.raises(ValueError):
        class_input([pc("12"), pc("132")], [])          # not an antichain
    with pytest.raises(ValueError):
        class_input([pc("132")], [pc("321")])           # not simple
    with pytest.raises(ValueError):
        class_input([pc("132")], [pc("3142")])          # contains basis element
