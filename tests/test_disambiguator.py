"""Disambiguation: mandatory propagation, group expansion, system closure,
conservation and the partition property."""

import itertools

import pytest

from permspec import (
    FLAVOR_ALL,
    FLAVOR_SKEW_INDEC,
    FLAVOR_SUM_INDEC,
    MODE_DISJOINT,
    Perm,
    Restriction,
    Term,
    add_mandatory,
    ambiguous_system,
    class_input,
    closure_system,
    complement_restriction,
    compute_simples,
    count_coefficients,
    disambiguate_equation,
    disambiguate_system,
    embeddings,
    enumerate_avoiders,
    in_restriction,
    in_term,
    intersect_terms,
    restriction_equation,
    rhs_multiplicity,
    unproductive_nonterminals,
)
from permspec import builder, disambiguator
from permspec.checks import run_check
from permspec.cli import main
from permspec.perms import ROOT_12, ROOT_21
from permspec.restrictions import make_equation, term_key

from conftest import CORPUS, pc, perms_of_size


def CA(*avoid, contain=()):
    return Restriction(FLAVOR_ALL, tuple(pc(s) for s in avoid),
                       tuple(pc(s) for s in contain))


def CP(*avoid):
    return Restriction(FLAVOR_SUM_INDEC, tuple(pc(s) for s in avoid))


def CM(*avoid):
    return Restriction(FLAVOR_SKEW_INDEC, tuple(pc(s) for s in avoid))


# --- mandatory-pattern propagation -------------------------------------------

def test_add_mandatory_one_summand_per_embedding():
    t = Term(pc("2413"), (CA(),) * 4)
    got = add_mandatory(t, pc("3214"))
    # 9 embeddings; two of them force only the trivial size-1 pattern in
    # different slots and collapse to the same term once it is dropped.
    assert len(embeddings(pc("3214"), pc("2413"))) == 9
    assert len(got) == 8
    named = Term(pc("2413"), (CA(contain=("321",)), CA(), CA(), CA()))
    assert named in got


def test_add_mandatory_trivial_pattern_collapses():
    t = Term(pc("2413"), (CA("12"), CA(), CA("21"), CA()))
    assert add_mandatory(t, Perm((1,))) == [t]


def test_add_mandatory_on_linear_root():
    t = Term(ROOT_12, (CP(), CA()))
    got = add_mandatory(t, pc("21"))
    assert set(got) == {
        Term(ROOT_12, (Restriction(FLAVOR_SUM_INDEC, (), (pc("21"),)), CA())),
        Term(ROOT_12, (CP(), CA(contain=("21",)))),
    }


def test_add_mandatory_union_is_exact():
    simples = frozenset({pc("3142")})
    from permspec import in_term
    t = Term(pc("3142"), (CA("12"), CA(), CA(), CA("21")))
    pieces = add_mandatory(t, pc("231"))
    for n in range(4, 8):
        for p in perms_of_size(n):
            want = in_term(p, t, simples) and (
                __import__("permspec").contains(p, pc("231")))
            got = any(in_term(p, piece, simples) for piece in pieces)
            assert want == got, p


# --- equations for restrictions ----------------------------------------------

def test_restriction_equation_avoidance_only():
    eq = restriction_equation(CA("21"), (pc("3142"),))
    assert eq.has_atom
    assert set(eq.terms) == {Term(ROOT_12, (CP("21"), CA("21")))}


def test_restriction_equation_unconstrained_is_closure_shape():
    eq = restriction_equation(CA(), (pc("3142"),))
    assert eq.has_atom
    assert set(eq.terms) == {
        Term(ROOT_12, (CP(), CA())),
        Term(ROOT_21, (CM(), CA())),
        Term(pc("3142"), (CA(),) * 4),
    }


def test_restriction_equation_mandatory_drops_atom():
    simples = (pc("3142"),)
    lhs = CA(contain=("21",))
    eq = restriction_equation(lhs, simples)
    assert not eq.has_atom
    roots = {t.root for t in eq.terms}
    assert roots == {ROOT_12, ROOT_21, pc("3142")}
    S = frozenset(simples)
    for n in range(1, 7):
        for p in perms_of_size(n):
            member = in_restriction(p, lhs, S)
            hit = rhs_multiplicity(p, eq, S) > 0
            assert member == hit, p


def test_restriction_equation_refuses_empty_lhs():
    with pytest.raises(ValueError):
        restriction_equation(Restriction(FLAVOR_ALL, (Perm((1,)),)), ())


# --- equation-level disambiguation --------------------------------------------

def test_single_summand_groups_pass_through():
    eq = make_equation(CA("132"), True, [
        Term(ROOT_12, (CP("132"), CA("21"))),
        Term(ROOT_21, (CM("132"), CA("132"))),
    ])
    out = disambiguate_equation(eq)
    assert set(out.terms) == set(eq.terms)


def test_ambiguous_pair_becomes_partition():
    t1 = Term(ROOT_12, (CP("12"), CA("132")))
    t2 = Term(ROOT_12, (CP("1243"), CA("21")))
    eq = make_equation(CA("1243"), True, [t1, t2])
    out = disambiguate_equation(eq)
    simples = frozenset({pc("3142")})
    from permspec import in_term
    for n in range(1, 8):
        for p in perms_of_size(n):
            want = in_term(p, t1, simples) or in_term(p, t2, simples)
            hits = sum(1 for t in out.terms if in_term(p, t, simples))
            assert hits == (1 if want else 0), p


# --- group expansion against the subset enumeration ---------------------------

def _reference_complement_term(t):
    """Every nonempty set of slots flipped, each flipped slot running over
    its component's complement cells."""
    parts = [complement_restriction(a) for a in t.args]
    n = len(t.args)
    out = set()
    for k in range(1, n + 1):
        for flip in itertools.combinations(range(n), k):
            pools = [parts[i] if i in flip else [t.args[i]] for i in range(n)]
            out.update(Term(t.root, combo) for combo in itertools.product(*pools))
    return sorted(out, key=term_key)


def _reference_expand_group(terms):
    """One cell per nonempty subset of the group: intersect the subset's
    terms, then each complement cell of every term outside the subset."""
    k = len(terms)
    complements = [_reference_complement_term(t) for t in terms]
    out = set()
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
            partial = {q for p in partial for c in complements[i]
                       if (q := intersect_terms(p, c)) is not None}
            if not partial:
                break
        out.update(partial)
    return sorted(out, key=term_key)


def _reference_disambiguate(eq):
    """eq's terms with each ambiguous same-root group replaced by its cells."""
    groups = {}
    for t in eq.terms:
        groups.setdefault(t.root, []).append(t)
    return [c for ts in groups.values() for c in (
        _reference_expand_group(ts)
        if any(intersect_terms(a, b) is not None
               for a, b in itertools.combinations(ts, 2)) else ts)]


def test_group_expansion_matches_subset_enumeration(all_systems):
    # Every equation disambiguation makes disjoint is checked by membership
    # against its input terms and against the subset enumeration's cells.
    basis = tuple(pc(s) for s in ("1234", "2314", "3241"))
    result = compute_simples(basis, cap=10)
    assert result.complete
    amb = ambiguous_system(class_input(basis, result.simples))
    cases = list(all_systems.values()) + [(amb, disambiguate_system(amb))]
    perms = [p for n in range(2, 7) for p in perms_of_size(n)]
    changed = 0
    for amb, disjoint in cases:
        simples = amb.simples_set()
        for lhs in disjoint.equations:
            eq = amb.equations.get(lhs) or restriction_equation(lhs, amb.simples)
            out = disambiguate_equation(eq).terms
            cells = _reference_disambiguate(eq)
            changed += out != eq.terms
            for p in perms:
                hits = sum(1 for t in out if in_term(p, t, simples))
                assert hits <= 1, (lhs.name(), p)
                assert hits == any(in_term(p, t, simples) for t in eq.terms), \
                    (lhs.name(), p)
                assert hits == any(in_term(p, c, simples) for c in cells), \
                    (lhs.name(), p)
    assert changed


# --- system-level disambiguation ----------------------------------------------

def test_disjoint_input_is_unchanged(all_systems):
    # No equation carries a mode, so every equation of a disjoint input is
    # processed again and must come back as it was.
    system = closure_system([pc("2413"), pc("3142")])
    assert disambiguate_system(system) == system
    for _, disjoint in all_systems.values():
        assert disambiguate_system(disjoint) == disjoint


def test_catalan_counts(systems_132):
    _, disjoint = systems_132
    table = count_coefficients(disjoint, 6)
    assert [table.root_count(n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]


def test_counts_match_enumeration(all_systems):
    for basis, (_, disjoint) in all_systems.items():
        table = count_coefficients(disjoint, 7)
        for n in range(1, 8):
            assert table.root_count(n) == len(enumerate_avoiders(basis, n)), \
                (basis, n)


def test_output_is_closed_disjoint_and_rooted(all_systems):
    for _, (amb, disjoint) in all_systems.items():
        assert disjoint.mode == MODE_DISJOINT
        assert disjoint.is_closed()
        assert disjoint.root == amb.root


def test_partition_property(all_systems):
    for _, (_, disjoint) in all_systems.items():
        simples = disjoint.simples_set()
        for n in range(1, 7):
            for p in perms_of_size(n):
                for lhs, eq in disjoint.equations.items():
                    member = in_restriction(p, lhs, simples)
                    mult = rhs_multiplicity(p, eq, simples)
                    assert mult == (1 if member else 0), (p, lhs.name())


def test_conservation_of_shared_equations(all_systems):
    for _, (amb, disjoint) in all_systems.items():
        simples = amb.simples_set()
        shared = [r for r in amb.equations if r in disjoint.equations]
        assert shared
        for n in range(1, 7):
            for p in perms_of_size(n):
                for lhs in shared:
                    was = rhs_multiplicity(p, amb.equations[lhs], simples) > 0
                    now = rhs_multiplicity(p, disjoint.equations[lhs], simples) > 0
                    assert was == now, (p, lhs.name())


@pytest.mark.parametrize("basis_strs", [
    ("132", "4321"),   # two non-simple basis elements propagate jointly
    ("231",),
    ("12",),
])
def test_pipeline_on_further_bases(basis_strs):
    from permspec import compute_simples, ambiguous_system, class_input
    from permspec.checks import conservation_violations, equation_violations
    basis = tuple(pc(s) for s in basis_strs)
    result = compute_simples(basis, cap=8)
    assert result.complete
    amb = ambiguous_system(class_input(basis, result.simples))
    dis = disambiguate_system(amb)
    table = count_coefficients(dis, 7)
    for n in range(1, 8):
        assert table.root_count(n) == len(enumerate_avoiders(basis, n))
    assert not equation_violations(dis, 5)
    assert not conservation_violations(amb, dis, 5)


@pytest.mark.parametrize("name", ["B1", "B2", "B3", "B4"])
def test_corpus_bases_pass_the_oracle(corpus_systems, name):
    amb, dis = corpus_systems[name]
    report = run_check(amb, dis, 7)
    assert all(ok for _, ok, _ in report), report
    table = count_coefficients(dis, 8)
    for n in range(1, 9):
        assert table.root_count(n) == len(enumerate_avoiders(dis.basis, n))


def test_constraints_stay_inside_basis_pattern_closure(all_systems):
    from permspec import contains
    for basis, (_, disjoint) in all_systems.items():
        for lhs, eq in disjoint.equations.items():
            for r in [lhs] + [a for t in eq.terms for a in t.args]:
                for pattern in r.avoid + r.contain:
                    assert any(contains(b, pattern) for b in basis), pattern


def _reachable(system):
    """The restrictions reachable from the root through the right sides."""
    seen, stack = {system.root}, [system.root]
    while stack:
        for t in system.equations[stack.pop()].terms:
            for a in t.args:
                if a not in seen:
                    seen.add(a)
                    stack.append(a)
    return seen


def test_systems_are_trimmed(systems_one_simple, corpus_systems):
    # Both stages are closures from the root, and the disambiguator drops
    # the terms using a memberless nonterminal: every equation is reachable
    # and generating, and only such terms are missing from a disjoint
    # equation made afresh from its left side.
    for name, (amb, dis) in {"W": systems_one_simple,
                             **corpus_systems}.items():
        for system in (amb, dis):
            assert _reachable(system) == set(system.equations), name
        assert not unproductive_nonterminals(dis), name
        for lhs, eq in dis.equations.items():
            full = disambiguate_equation(restriction_equation(lhs, dis.simples))
            assert set(eq.terms) <= set(full.terms), (name, lhs.name())


def test_each_term_is_complemented_once_per_build(systems_one_simple,
                                                  corpus_systems, monkeypatch):
    # One build shares one cache of complements across its equations, made
    # on the module's name, so a patched complement_term is what runs.
    calls = []
    complement_term = disambiguator.complement_term
    monkeypatch.setattr(disambiguator, "complement_term",
                        lambda t: calls.append(t) or complement_term(t))
    for name, (amb, dis) in {"W": systems_one_simple,
                             "B1": corpus_systems["B1"],
                             "B4": corpus_systems["B4"]}.items():
        calls.clear()
        assert disambiguate_system(amb) == dis, name
        assert calls and len(calls) == len(set(calls)), name


def test_growth_guard_says_how_far_the_closure_got(corpus_systems, tmp_path,
                                                   monkeypatch, capsys):
    amb, _ = corpus_systems["L1"]
    monkeypatch.setattr(builder, "MAX_EQUATIONS", 5)
    message = r"ceiling of 5 reached: 5 equations built, [1-9]\d* restrictions"
    with pytest.raises(disambiguator.IterationLimitError, match=message):
        ambiguous_system(class_input(amb.basis, amb.simples))
    with pytest.raises(disambiguator.IterationLimitError, match=message):
        disambiguate_system(amb)
    basis = tmp_path / "basis.txt"
    basis.write_text("".join(" ".join(b) + "\n" for b in CORPUS["L1"]))
    assert main(["spec", "--basis", str(basis)]) == 4
    assert capsys.readouterr().err.startswith(
        "internal error: IterationLimitError: equation ceiling of 5 reached: "
        "5 equations built, ")
