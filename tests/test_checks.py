"""The oracle checks on per-permutation profiles, against the plain
membership route of ``permspec.restrictions`` and the ``contains`` route
of the pattern bits."""

import dataclasses
import itertools

import pytest

from permspec import InvalidInputError, Perm, checks, count_coefficients
from permspec.checks import (
    IN_CLOSURE,
    SKEW_DEC,
    SUM_DEC,
    Profiles,
    conservation_violations,
    count_violations,
    equation_violations,
    perms_of_size,
    run_check,
)
from permspec.perms import (DEFAULT_ORACLE_CAP, contains, embeddings,
                            is_simple, pattern_masks, top_split, tree_labels)
from permspec.restrictions import (
    MODE_DISJOINT,
    Equation,
    Term,
    in_restriction,
    in_term,
    rhs_multiplicity,
)

from conftest import contains_mask, perm_walk_report, scan_avoiders


@pytest.fixture(scope="module")
def oracle_systems(systems_one_simple, corpus_systems):
    names = ("L1", "L3", "B1", "B3", "B4")
    return {"W": systems_one_simple, **{n: corpus_systems[n] for n in names}}


def _restrictions(system):
    return {r for eq in system.equations.values()
            for r in (eq.lhs, *(a for t in eq.terms for a in t.args))}


@pytest.mark.parametrize("name", ["W", "L1", "B1"])
def test_profile_route_matches_plain_route(oracle_systems, name):
    amb, dis = oracle_systems[name]
    profiles = Profiles([amb, dis])
    for system in (amb, dis):
        simples = system.simples_set()
        tests = {r: profiles.test(r) for r in _restrictions(system)}
        for key, _, _, (prof,), (mults,) in profiles.tallies([system], 6):
            p = Perm(key)
            for r, (forbidden, needed) in tests.items():
                member = not prof & forbidden and prof & needed == needed
                assert member == in_restriction(p, r, simples), (p, r)
            assert mults == [rhs_multiplicity(p, eq, simples)
                             for eq in system.equations.values()], p


@pytest.mark.parametrize("name", ["W", "L1", "B1", "B3"])
def test_pattern_bits_match_contains_route(oracle_systems, name):
    amb, dis = oracle_systems[name]
    profiles = Profiles([amb, dis])
    flags = IN_CLOSURE | SUM_DEC | SKEW_DEC
    seen = 0
    for key, mask, _, profs, _ in profiles.tallies([amb, dis], 7):
        want = contains_mask(Perm(key), profiles._bit)
        assert mask == want, key
        assert [prof & ~flags for prof in profs] == [want, want], key
        seen += 1
    assert seen == 5913  # every permutation of size 1..7


def test_run_check_asks_no_containment(oracle_systems):
    amb, dis = oracle_systems["W"]
    for cache in (contains, embeddings, is_simple, top_split, tree_labels):
        cache.cache_clear()
    assert all(ok for _, ok, _ in run_check(amb, dis, 7))
    assert contains.cache_info().currsize == 0
    assert "contains" not in vars(checks)


def test_run_check_walks_once(oracle_systems, monkeypatch):
    # One walk over sizes 1..7 that yields only what can fail or avoids
    # the basis: on W, fewer than the 5,913 permutations of those sizes.
    walks = []

    def recording(bits, max_size, keep):
        sizes = []
        walks.append((max_size, sizes))
        for row in pattern_masks(bits, max_size, keep):
            sizes.append(len(row[0]))
            yield row
    monkeypatch.setattr(checks, "pattern_masks", recording)
    assert all(ok for _, ok, _ in run_check(*oracle_systems["W"], 7))
    assert [(m, set(sizes)) for m, sizes in walks] == [(7, set(range(1, 8)))]
    assert len(walks[0][1]) < 5913


@pytest.mark.parametrize("name", ["W", "L1", "L3", "B1", "B4"])
def test_run_check_matches_the_perm_walk(oracle_systems, name):
    amb, dis = oracle_systems[name]
    report = run_check(amb, dis, 7)
    assert all(ok for _, ok, _ in report)
    assert report == perm_walk_report(amb, dis, 7)


@pytest.mark.parametrize("name", ["W", "B1", "L3"])
def test_mutants_match_the_perm_walk(oracle_systems, name):
    for kind, (amb, dis) in _mutants(*oracle_systems[name]).items():
        report = run_check(amb, dis, 6)
        assert not all(ok for _, ok, _ in report), kind
        assert report == perm_walk_report(amb, dis, 6), kind


ORACLE_ENTRIES = {
    "tallies": lambda amb, dis, n: next(Profiles([dis]).tallies([dis], n)),
    "equation_violations": lambda amb, dis, n: equation_violations(dis, n),
    "conservation_violations":
        lambda amb, dis, n: conservation_violations(amb, dis, n),
    "count_violations": lambda amb, dis, n: count_violations(dis, dis.basis, n),
    "run_check": lambda amb, dis, n: run_check(amb, dis, n),
}


@pytest.mark.parametrize("size", [0, 11])
@pytest.mark.parametrize("entry", sorted(ORACLE_ENTRIES))
def test_oracle_entries_refuse_sizes_outside_the_cap(
        systems_132, monkeypatch, entry, size):
    def scan(*args, **kwargs):
        raise AssertionError("scanned before refusing the size")
    for name in ("perms_of_size", "pattern_masks", "enumerate_avoiders",
                 "count_coefficients"):
        monkeypatch.setattr(checks, name, scan)
    with pytest.raises(InvalidInputError):
        ORACLE_ENTRIES[entry](*systems_132, size)


# --- plain-route reference for the full reports ------------------------------

def _plain_equation_violations(system, max_size):
    simples = system.simples_set()
    exact = system.mode == MODE_DISJOINT
    out = []
    for n in range(1, max_size + 1):
        for p in perms_of_size(n):
            for lhs, eq in system.equations.items():
                member = in_restriction(p, lhs, simples)
                mult = rhs_multiplicity(p, eq, simples)
                ok = (mult == (1 if member else 0)) if exact else \
                    (member == (mult > 0))
                if not ok:
                    out.append(f"{lhs.name()} vs {p}: member={member}, "
                               f"summand multiplicity={mult}")
    return out


def _plain_conservation_violations(before, after, max_size):
    out = []
    for n in range(1, max_size + 1):
        for p in perms_of_size(n):
            for lhs in before.equations:
                if lhs not in after.equations:
                    continue
                was = rhs_multiplicity(p, before.equations[lhs],
                                       before.simples_set()) > 0
                now = rhs_multiplicity(p, after.equations[lhs],
                                       after.simples_set()) > 0
                if was != now:
                    out.append(f"{lhs.name()} vs {p}: before={was}, after={now}")
    return out


def _plain_report(amb, dis, max_size):
    table = count_coefficients(dis, max_size)
    counts = [f"size {n}: engine {table.root_count(n)}, enumeration {want}"
              for n in range(1, max_size + 1)
              for want in [len(scan_avoiders(dis.basis, n))]
              if table.root_count(n) != want]
    results = [
        ("ambiguous equation membership", _plain_equation_violations(amb, max_size)),
        ("specification partition", _plain_equation_violations(dis, max_size)),
        ("conservation through disambiguation",
         _plain_conservation_violations(amb, dis, max_size)),
        ("counting equality", counts),
    ]
    return [(name, not v, "" if not v else
             f"{len(v)} violation(s); first: {v[0]}") for name, v in results]


def _with_terms(system, lhs, terms):
    eq = system.equations[lhs]
    return dataclasses.replace(system, equations={
        **system.equations, lhs: Equation(lhs, eq.has_atom, tuple(terms))})


def _lone_term(system, lhs, max_size):
    """The first term of lhs's equation that alone holds some permutation,
    so that dropping it changes the union."""
    simples = system.simples_set()
    terms = system.equations[lhs].terms
    for t in terms:
        for n in range(1, max_size + 1):
            for p in perms_of_size(n):
                if in_term(p, t, simples) and not any(
                        in_term(p, u, simples) for u in terms if u != t):
                    return t
    raise AssertionError(f"every term of {lhs} is covered by the others")


def _foreign_root(dis, size):
    """dis with one more term in its root equation: the root class
    substituted into the first simple, of the size or larger, that is not
    among the system's simples."""
    foreign = next(p for n in itertools.count(size) for p in perms_of_size(n)
                   if is_simple(p) and p not in dis.simples_set())
    terms = dis.equations[dis.root].terms
    return _with_terms(dis, dis.root, terms + (
        Term(foreign, (dis.root,) * len(foreign)),))


def _mutants(amb, dis):
    """Drop a disjoint term, duplicate one, drop an ambiguous term that no
    other term of its equation covers, and give the disjoint root one more
    term, the root class substituted into a simple outside the system's
    simples."""
    root_terms = dis.equations[dis.root].terms
    amb_terms = amb.equations[amb.root].terms
    lone = _lone_term(amb, amb.root, 6)
    return {
        "drop disjoint": (amb, _with_terms(dis, dis.root, root_terms[1:])),
        "duplicate disjoint": (amb, _with_terms(
            dis, dis.root, root_terms + root_terms[:1])),
        "drop ambiguous": (_with_terms(
            amb, amb.root, [t for t in amb_terms if t != lone]), dis),
        "foreign root": (amb, _foreign_root(dis, 4)),
    }


@pytest.mark.parametrize("name, size", [("W", 4), ("W", 5), ("L3", 5)])
def test_a_foreign_root_fails_partition_and_conservation(
        oracle_systems, name, size):
    # The summands lie outside the closure of the simples, so the walk
    # closes over every term root too.  On W the simple 24153 holds 2413,
    # which is in W's basis and not among its simples: the walk reaches
    # 24153 only because its roots are closed under simple patterns.
    amb, dis = oracle_systems[name]
    dis = _foreign_root(dis, size)
    report = run_check(amb, dis, 6)
    assert report == perm_walk_report(amb, dis, 6)
    failed = {check for check, ok, _ in report if not ok}
    assert {"specification partition",
            "conservation through disambiguation"} <= failed


@pytest.mark.parametrize("name", ["W", "B1"])
def test_mutated_systems_fail_as_the_plain_route_says(oracle_systems, name):
    for kind, (amb, dis) in _mutants(*oracle_systems[name]).items():
        report = run_check(amb, dis, 6)
        assert not all(ok for _, ok, _ in report), kind
        assert report == _plain_report(amb, dis, 6), kind
        for system in (amb, dis):
            assert equation_violations(system, 6) == \
                _plain_equation_violations(system, 6), kind
        assert conservation_violations(amb, dis, 6) == \
            _plain_conservation_violations(amb, dis, 6), kind


@pytest.mark.parametrize("name", ["W", "L1", "L3", "B1", "B4"])
def test_standalone_checks_match_the_walk_without_basis(oracle_systems, name):
    # Given the basis, the walk drops the keys outside Av(B) and outside the
    # closure; none is a member or a summand, so the lists stay the same.
    def full_walk(systems, check):
        profiles = Profiles(systems)
        return checks._walk(profiles, systems, [check(profiles)], 6)[0][0]
    pairs = {"corpus": oracle_systems[name], **_mutants(*oracle_systems[name])}
    for kind, (amb, dis) in pairs.items():
        for system in (amb, dis):
            assert equation_violations(system, 6) == full_walk(
                [system], lambda p: checks._membership_check(system, p, 0)), kind
        assert conservation_violations(amb, dis, 6) == full_walk(
            [amb, dis], lambda p: checks._conservation_check(amb, dis)), kind


def test_standalone_checks_walk_less_than_every_permutation(
        oracle_systems, monkeypatch):
    walked = []

    def recording(bits, max_size, keep):
        walked.append(0)
        for row in pattern_masks(bits, max_size, keep):
            walked[-1] += 1
            yield row
    monkeypatch.setattr(checks, "pattern_masks", recording)
    amb, dis = oracle_systems["W"]
    equation_violations(dis, 7)
    conservation_violations(amb, dis, 7)
    assert len(walked) == 2 and max(walked) < 5913, walked


def test_count_violations_keeps_the_oracle_cap(systems_132, monkeypatch):
    # Sizes past DEFAULT_ORACLE_CAP walk millions of permutations; the
    # count walks once, to the size asked, and never past the cap.
    walks = []

    def recording(bits, max_size, keep):
        walks.append(max_size)
        return pattern_masks(bits, max_size, keep)
    monkeypatch.setattr(checks, "pattern_masks", recording)
    _, dis = systems_132
    assert count_violations(dis, dis.basis, 5) == []
    assert walks == [5]
    with pytest.raises(InvalidInputError):
        count_violations(dis, dis.basis, DEFAULT_ORACLE_CAP + 1)
    assert walks == [5]
