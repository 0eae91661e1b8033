"""System construction: closure shapes, constraint propagation, closure of
the equation set, and oracle soundness of every equation."""

import hashlib

import pytest

from permspec import builder
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
    compute_simples,
    contains,
    count_coefficients,
    disambiguate_system,
    in_restriction,
    rhs_multiplicity,
)
from permspec.perms import (ROOT_12, ROOT_21, embedding_parts, embeddings,
                            perm_key)
from permspec.restrictions import (_interned, _number, prune_subsumed,
                                   term_key)
from permspec.serial import parse_system, serialize_system

from conftest import (BASIS_132, BASIS_ONE_SIMPLE, BASIS_SEPARABLE, CORPUS,
                      _pipeline, add_mandatory_reference, close_closure_system,
                      pc, perms_of_size, push_avoidance_reference)


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


def test_closure_components_are_the_interned_restrictions():
    # Unconstrained closure components are the interned objects, not equal
    # copies, so dict lookups on them take the identity fast path.
    simples = (pc("2413"), pc("3142"))
    interned = {f: _interned(f, 0, 0)
                for f in (FLAVOR_ALL, FLAVOR_SUM_INDEC, FLAVOR_SKEW_INDEC)}
    system = closure_system(simples)
    assert system.root is interned[FLAVOR_ALL]
    for flavor in interned:
        for terms in (builder.closure_terms(flavor, simples),
                      system.equations[interned[flavor]].terms):
            for t in terms:
                assert all(c is interned[c.flavor] for c in t.args), t
    eq = builder.restriction_equation(CA(), simples)
    assert all(c is interned[c.flavor] for t in eq.terms for c in t.args)


@pytest.mark.parametrize("simples", [
    (), ("2413", "3142"), "B1", "B3",
    ("24153",),  # not closed: the simples 2413 and 3142 it contains are absent
])
def test_closure_system_is_the_empty_basis_build(simples, corpus_systems):
    if isinstance(simples, str):
        simples = corpus_systems[simples][0].simples
        assert len(simples) >= 7
    simples = [pc(s) if isinstance(s, str) else s for s in simples]
    system, reference = closure_system(simples), close_closure_system(simples)
    assert system == reference
    assert serialize_system(system) == serialize_system(reference)


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
    # Only the root C<1>() gets an equation: its right side is empty, so
    # it reaches no other restriction.
    system = ambiguous_system(class_input([Perm((1,))], []))
    assert len(system.equations) == 1
    for eq in system.equations.values():
        assert (eq.has_atom, eq.terms) == (False, ())
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


# --- pushes by mask clauses -------------------------------------------------

def test_pushes_match_the_tuple_built_references(monkeypatch):
    # Every push the builds of W, Av(132), Sep and the corpus make, in both
    # stages, replayed step by step: the mask clauses give the profile sets
    # and term lists that tuple-built restrictions gave.
    avoid_calls, contain_calls = set(), set()
    add_constraints, add_mandatory = builder.add_constraints, builder.add_mandatory

    def spy_constraints(term, patterns):
        avoid_calls.add((term, tuple(patterns)))
        return add_constraints(term, patterns)

    def spy_mandatory(term, pattern):
        contain_calls.add((term, pattern))
        return add_mandatory(term, pattern)

    monkeypatch.setattr(builder, "add_constraints", spy_constraints)
    monkeypatch.setattr(builder, "add_mandatory", spy_mandatory)
    for basis in [BASIS_ONE_SIMPLE, BASIS_132, BASIS_SEPARABLE] + [
            tuple(map(pc, b)) for b in CORPUS.values()]:
        _pipeline(basis, cap=10)
    monkeypatch.undo()

    pairs = set()
    for term, patterns in avoid_calls:
        root = term.root
        out = [term]
        for excluded in sorted(set(patterns), key=perm_key):
            pairs.add((excluded, root))
            clauses = [[(slot, 1 << _number(q)) for slot, q in parts]
                       for parts in embedding_parts(excluded, root)]
            want = {t: push_avoidance_reference(
                t.args, excluded, embeddings(excluded, root)) for t in out}
            for t, profiles in want.items():
                assert builder._push_avoidance(t.args, clauses) == profiles
            out = prune_subsumed(Term(t.root, prof)
                                 for t, profiles in want.items()
                                 for prof in profiles)
            if not out:
                break
        assert add_constraints(term, patterns) == sorted(out, key=term_key)
    for term, pattern in contain_calls:
        pairs.add((pattern, term.root))
        assert add_mandatory(term, pattern) == \
            add_mandatory_reference(term, pattern)
    assert contain_calls and len(pairs) > 100, len(pairs)


def test_b1_builds_few_restrictions(monkeypatch):
    # Each push ORs a pattern bit into a component's masks and looks the
    # result up in the intern table, so a Restriction is only constructed
    # for the closure shapes and for masks seen for the first time; the
    # tuple-built pushes constructed 4,830 in the build and 958 in the
    # disambiguation.
    basis = tuple(map(pc, CORPUS["B1"]))
    ci = class_input(basis, compute_simples(basis, cap=10).simples)
    built = [0]
    post_init = Restriction.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(Restriction, "__post_init__", counted)
    amb = ambiguous_system(ci)
    in_builder, built[0] = built[0], 0
    disambiguate_system(amb)
    assert in_builder <= 300 and built[0] <= 300, (in_builder, built[0])


# --- one push per (root, avoid mask) a build --------------------------------

def test_b1_pushes_each_root_and_avoid_mask_once_a_build(monkeypatch):
    # Without the per-build pushes, B1's build made 127 add_constraints
    # calls, 79 of them distinct.  A second build in the same process
    # repeats the first call for call, so no push outlives its build.
    basis = tuple(map(pc, CORPUS["B1"]))
    ci = class_input(basis, compute_simples(basis, cap=10).simples)
    calls = []
    add_constraints = builder.add_constraints

    def spy(term, patterns):
        calls.append((term.root, tuple(patterns)))
        return add_constraints(term, patterns)

    monkeypatch.setattr(builder, "add_constraints", spy)
    builds = []
    for _ in range(2):
        calls.clear()
        amb = ambiguous_system(ci)
        in_builder = list(calls)
        calls.clear()
        disambiguate_system(amb)
        builds.append((in_builder, list(calls)))
    assert builds[0] == builds[1]
    for stage in builds[0]:
        assert len(set(stage)) == len(stage)
    assert len(builds[0][0]) == 79


def test_restriction_equation_alone_equals_the_built_equations(
        corpus_systems):
    # A call without a build's pushes starts empty and gives the same
    # equation as the build did.
    for name in ("B1", "B3"):
        amb, _ = corpus_systems[name]
        for lhs, eq in amb.equations.items():
            assert builder.restriction_equation(lhs, amb.simples) == eq, \
                (name, lhs.name())


def test_disambiguation_pushes_only_what_the_build_did_not(monkeypatch):
    # The ambiguous system hands its build's pushes to the disambiguation,
    # which then pushes only for the restrictions it seeds itself: on B1
    # none (26 of 26 repeated before), on B3 14 (190 of 204 repeated).
    calls = []
    add_constraints = builder.add_constraints

    def spy(term, patterns):
        calls.append((term.root, tuple(patterns)))
        return add_constraints(term, patterns)

    monkeypatch.setattr(builder, "add_constraints", spy)
    for name, seeded in (("B1", 0), ("B3", 14)):
        basis = tuple(map(pc, CORPUS[name]))
        calls.clear()
        amb = ambiguous_system(class_input(
            basis, compute_simples(basis, cap=10).simples))
        in_builder = set(calls)
        calls.clear()
        disjoint = disambiguate_system(amb)
        assert in_builder.isdisjoint(calls) and len(calls) == seeded, name
        assert amb.pushes and disjoint.pushes is None
        assert parse_system(serialize_system(disjoint)) == disjoint


# --- pushes on normalized components --------------------------------------

def test_long_clause_pushes_stay_normalized(monkeypatch):
    # Av(2413, 3142, 2 3 ... 20 1): every push is 12 or 21 rooted, and the
    # excluded 2 3 ... 20 1 gives long clauses.  A push on tuples of raw
    # ORed avoid masks keeps bits that interning drops, so profiles equal
    # as restrictions stay apart: such a push holds 524,324 profiles here,
    # not 5,752, for the same text.  The digests and the bound were taken
    # before the build shared its pushes with the disambiguation.
    held = [0]
    block = builder._block

    def counted(*args):
        profiles = block(*args)
        held[0] += len(profiles)
        return profiles

    monkeypatch.setattr(builder, "_block", counted)
    basis = (pc("2413"), pc("3142"), Perm((*range(2, 21), 1)))
    amb = ambiguous_system(class_input(basis, ()))
    disjoint = disambiguate_system(amb)
    assert [hashlib.sha256(serialize_system(s).encode()).hexdigest()
            for s in (amb, disjoint)] == [
        "7276378b5ea965d61dbc15756bc28fb4fe887ed8524bd70e66fdb4e4ea628974",
        "e3b01a38b5690aa9c72d52f0099f356c005a50fb9261980dcb58067c4151c8d9"]
    assert held[0] <= 10_388, held[0]
