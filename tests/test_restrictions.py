"""Restriction algebra: normalization, intersection, complement, membership."""

import copy
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permspec import (
    FLAVOR_ALL,
    FLAVOR_SKEW_INDEC,
    FLAVOR_SUM_INDEC,
    Perm,
    Restriction,
    Term,
    complement_restriction,
    complement_term,
    contains,
    in_restriction,
    in_term,
    intersect_restrictions,
    intersect_terms,
    pattern_of,
)
from permspec import perms, restrictions
from permspec.perms import ROOT_12, ROOT_21, perm_key
from permspec.restrictions import (component_flavors, prune_subsumed,
                                   restriction_leq, term_leq, terms_meet)
from permspec.serial import parse_restriction_name

from conftest import pc, perms_of_size, prune_subsumed_reference

SIMPLES = frozenset({pc("3142")})


def CA(*avoid, contain=()):
    return Restriction(FLAVOR_ALL, tuple(pc(s) for s in avoid),
                       tuple(pc(s) for s in contain))


# --- normalization ---------------------------------------------------------

def test_normalize_minimizes_avoided_patterns():
    assert Restriction(FLAVOR_SUM_INDEC, (pc("12"), pc("1243"))).name() == "C+<1 2>()"
    assert CA("132", "21").name() == "C<2 1>()"


def test_normalize_flags_impossible_restrictions():
    assert Restriction(FLAVOR_ALL, (Perm((1,)),)).empty
    assert CA("132", contain=("132",)).empty     # avoid and contain the same
    assert CA("12", contain=("123",)).empty      # mandatory contains avoided
    assert not CA("123", contain=("321",)).empty # incomparable pair is fine


def test_normalize_keeps_maximal_mandatory_patterns():
    r = Restriction(FLAVOR_ALL, (), (pc("21"), pc("321"), Perm((1,))))
    assert r.name() == "C<>(3 2 1)"


def test_normalize_is_idempotent_and_order_insensitive():
    r1 = Restriction(FLAVOR_ALL, (pc("1243"), pc("12"), pc("21")), (pc("312"),))
    r2 = Restriction(FLAVOR_ALL, (pc("21"), pc("12"), pc("1243")), (pc("312"),))
    assert r1 == r2
    assert Restriction(r1.flavor, r1.avoid, r1.contain) == r1


_POOL = [Perm((1,)), Perm((1, 2)), Perm((2, 1)), Perm((1, 3, 2)),
         Perm((3, 1, 2)), Perm((1, 2, 4, 3)), Perm((2, 4, 1, 3))]


@settings(max_examples=200, deadline=None)
@given(avoid=st.lists(st.sampled_from(_POOL), max_size=5),
       contain=st.lists(st.sampled_from(_POOL), max_size=4),
       flavor=st.sampled_from([FLAVOR_ALL, FLAVOR_SUM_INDEC, FLAVOR_SKEW_INDEC]),
       seed=st.randoms())
def test_normalize_stable_under_shuffling(avoid, contain, flavor, seed):
    shuffled_a, shuffled_c = list(avoid), list(contain)
    seed.shuffle(shuffled_a)
    seed.shuffle(shuffled_c)
    assert Restriction(flavor, tuple(avoid), tuple(contain)) == \
        Restriction(flavor, tuple(shuffled_a), tuple(shuffled_c))


# --- intersection ----------------------------------------------------------

def test_intersection_examples():
    assert intersect_restrictions(CA("12"), CA("1243")) == CA("12")
    assert intersect_restrictions(CA("132"), CA(contain=("132",))).empty
    r = CA("132", contain=("21",))
    assert intersect_restrictions(r, r) == r


def test_intersection_rejects_flavor_mismatch():
    with pytest.raises(ValueError):
        intersect_restrictions(CA("12"), Restriction(FLAVOR_SUM_INDEC, (pc("12"),)))


def test_intersection_matches_membership():
    rs = [CA("12"), CA("132"), CA("1243", contain=("21",)), CA(contain=("312",))]
    for r1, r2 in itertools.combinations(rs, 2):
        meet = intersect_restrictions(r1, r2)
        for n in range(1, 6):
            for p in perms_of_size(n):
                want = (in_restriction(p, r1, SIMPLES)
                        and in_restriction(p, r2, SIMPLES))
                assert in_restriction(p, meet, SIMPLES) == want


# --- complement ------------------------------------------------------------

def test_complement_swaps_avoid_and_contain():
    assert complement_restriction(CA("132")) == [CA(contain=("132",))]
    assert complement_restriction(CA(contain=("132",))) == [CA("132")]


def test_complement_of_mixed_restriction_has_three_cells():
    cells = complement_restriction(CA("123", contain=("321",)))
    assert set(cells) == {
        CA("123", "321"),
        CA("321", contain=("123",)),
        CA(contain=("123", "321")),
    }


def test_complement_refuses_empty_input():
    with pytest.raises(ValueError):
        complement_restriction(Restriction(FLAVOR_ALL, (Perm((1,)),)))


@pytest.mark.parametrize("r", [
    CA("132"),
    CA("1243", contain=("21",)),
    CA("123", contain=("321",)),
    Restriction(FLAVOR_SUM_INDEC, (pc("12"),)),
    Restriction(FLAVOR_SKEW_INDEC, (pc("1243"),), (pc("132"),)),
])
def test_complement_partitions_the_flavor_universe(r):
    universe = Restriction(r.flavor)
    cells = complement_restriction(r)
    for n in range(1, 7):
        for p in perms_of_size(n):
            if not in_restriction(p, universe, SIMPLES):
                continue
            inside = in_restriction(p, r, SIMPLES)
            hits = sum(1 for c in cells if in_restriction(p, c, SIMPLES))
            assert hits == (0 if inside else 1), (p, r)


# --- terms -----------------------------------------------------------------

def test_term_validation():
    with pytest.raises(ValueError):
        Term(pc("132"), (CA(), CA(), CA()))        # root not simple
    with pytest.raises(ValueError):
        Term(pc("3142"), (CA(), CA(), CA()))       # arity mismatch
    with pytest.raises(ValueError):
        Term(ROOT_12, (CA(), CA()))                # first flavor must be "+"
    with pytest.raises(ValueError):
        Term("12", (Restriction(FLAVOR_SUM_INDEC), CA()))  # a root is a Perm


def test_intersect_terms_componentwise():
    t1 = Term(pc("3142"), (CA("1243"), CA("12"), CA("21"), CA("132")))
    t2 = Term(pc("3142"), (CA("12"), CA("12"), CA("132"), CA("132")))
    assert intersect_terms(t1, t2) == \
        Term(pc("3142"), (CA("12"), CA("12"), CA("21"), CA("132")))
    assert intersect_terms(t1, t1) == t1


def test_intersect_terms_distinct_roots_are_disjoint():
    plus, full = Restriction(FLAVOR_SUM_INDEC), CA()
    minus = Restriction(FLAVOR_SKEW_INDEC)
    assert intersect_terms(Term(ROOT_12, (plus, full)),
                           Term(ROOT_21, (minus, full))) is None


def test_terms_meet_as_intersect_terms_says(all_systems, corpus_systems):
    # Every same-root pair of terms of one system, and each term against
    # the complement cells of the other terms of its equation.
    seen = []
    for amb, dis in [*all_systems.values(), *corpus_systems.values()]:
        for system in (amb, dis):
            equations = system.equations.values()
            terms = sorted({t for eq in equations for t in eq.terms}, key=str)
            for t, u in itertools.product(terms, repeat=2):
                if t.root == u.root:
                    seen.append(terms_meet(t, u))
                    assert seen[-1] == (intersect_terms(t, u) is not None)
            for eq in equations:
                for t, u in itertools.permutations(eq.terms, 2):
                    for cell in complement_term(u):
                        seen.append(terms_meet(cell, t))
                        assert seen[-1] == (intersect_terms(cell, t) is not None)
    assert len(seen) > 2000 and 0 < sum(seen) < len(seen)


def test_down_follows_patterns_numbered_later():
    # r is made before the pattern below its mandatory one is numbered; the
    # numbering adds that pattern to r.down, so r meets no avoider of it.
    big = Perm((9, 1, 8, 2, 7, 3, 6, 4, 5))
    small = pattern_of(big[1:])
    assert small not in restrictions._NUMBER
    r = Restriction(FLAVOR_ALL, (), (big,))
    avoider = Restriction(FLAVOR_ALL, (small,))
    assert r.down & avoider.avoid_mask
    assert intersect_restrictions(r, avoider).empty
    plus = Restriction(FLAVOR_SUM_INDEC)
    t, u = Term(ROOT_12, (plus, r)), Term(ROOT_12, (plus, avoider))
    assert intersect_terms(t, u) is None and not terms_meet(t, u)
    assert terms_meet(t, Term(ROOT_12, (plus, CA())))


def test_complement_of_full_term_is_nothing():
    full12 = Term(ROOT_12, (Restriction(FLAVOR_SUM_INDEC), CA()))
    assert complement_term(full12) == []


def test_complement_term_cells():
    # Split at the first slot that leaves the term: either the first part
    # leaves s1 (and the second is anything), or it stays and the second
    # part leaves s2.
    s1 = Restriction(FLAVOR_SKEW_INDEC, (pc("12"),))
    s2 = CA("12")
    cells = complement_term(Term(ROOT_21, (s1, s2)))
    s1bar = Restriction(FLAVOR_SKEW_INDEC, (), (pc("12"),))
    s2bar = CA(contain=("12",))
    assert set(cells) == {
        Term(ROOT_21, (s1bar, CA())),
        Term(ROOT_21, (s1, s2bar)),
    }


def test_complement_term_partitions_the_root_shape(systems_one_simple,
                                                   corpus_systems):
    # Every term of the ambiguous systems of W and B4, and one by hand.
    extra = Term(pc("3142"), (CA("12"), CA("12"), CA("132"), CA("132")))
    cases = [(systems_one_simple[0], [extra]), (corpus_systems["B4"][0], [])]
    perms = [p for n in range(2, 7) for p in perms_of_size(n)]
    for amb, more in cases:
        simples = amb.simples_set()
        terms = {t for eq in amb.equations.values() for t in eq.terms}
        for t in terms | set(more):
            shape = Term(t.root, tuple(Restriction(a.flavor) for a in t.args))
            cells = complement_term(t)
            for p in perms:
                if not in_term(p, shape, simples):
                    continue
                inside = in_term(p, t, simples)
                hits = sum(1 for c in cells if in_term(p, c, simples))
                assert hits == (0 if inside else 1), (t.name(), p)


# --- static inclusion ------------------------------------------------------

def test_restriction_inclusion():
    assert restriction_leq(CA("12"), CA("1243"))
    assert not restriction_leq(CA("1243"), CA("12"))
    assert restriction_leq(CA(contain=("1243",)), CA(contain=("12",)))
    assert not restriction_leq(CA(), Restriction(FLAVOR_SUM_INDEC))


def test_prune_subsumed_keeps_maximal_terms():
    big = Term(pc("3142"), (CA("1243"), CA("12"), CA("21"), CA("132")))
    small = Term(pc("3142"), (CA("12"), CA("12"), CA("21"), CA("21")))
    assert term_leq(small, big)
    assert prune_subsumed([big, small]) == [big]


def _restrictions(flavor: str):
    return st.builds(Restriction, st.just(flavor),
                     st.lists(st.sampled_from(_POOL), max_size=3),
                     st.lists(st.sampled_from(_POOL), max_size=2))


@st.composite
def _term_unions(draw):
    """Terms on mixed roots, some repeated and some narrowed componentwise
    (so below another), with statically empty components among them."""
    out = []
    for root in draw(st.lists(st.sampled_from(
            [ROOT_12, ROOT_21, pc("2413"), pc("3142")]), max_size=10)):
        args = [draw(_restrictions(f)) for f in component_flavors(root)]
        out.append(Term(root, args))
        for k in draw(st.lists(st.integers(0, len(args) - 1), max_size=2)):
            args[k] = intersect_restrictions(
                args[k], draw(_restrictions(args[k].flavor)))
            out.append(Term(root, args))
    return out + draw(st.lists(st.sampled_from(out), max_size=3)) if out else out


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_term_unions())
def test_mask_prune_matches_the_pairwise_reference(terms):
    assert prune_subsumed(terms) == prune_subsumed_reference(terms)


def test_prune_keeps_the_meaning_of_empty_components():
    empty = Restriction(FLAVOR_ALL, (Perm((1,)),))
    assert empty.empty
    terms = [Term(ROOT_12, (Restriction(FLAVOR_SUM_INDEC), CA("21"))),
             Term(ROOT_12, (Restriction(FLAVOR_SUM_INDEC), empty)),
             Term(ROOT_21, (Restriction(FLAVOR_SKEW_INDEC), empty)),
             Term(ROOT_21, (Restriction(FLAVOR_SKEW_INDEC, (pc("12"),)),
                            CA("12")))]
    # An empty component is below everything, and nothing else is below it:
    # terms[1] goes, and terms[2] and terms[3] are incomparable.
    assert prune_subsumed(terms) == prune_subsumed_reference(terms) == [
        terms[0], terms[2], terms[3]]


# --- pattern numbering and masks -------------------------------------------

def _pattern_closure(*basis: str) -> list[Perm]:
    """Every pattern of size >= 1 contained in some basis element."""
    found = set()
    for b in basis:
        p = pc(b)
        for k in range(1, len(p) + 1):
            for positions in itertools.combinations(range(len(p)), k):
                found.add(pattern_of([p.values[i] for i in positions]))
    return sorted(found, key=perm_key)


# The closures of the worked basis W and of B1 = Av(2314, 4132, 31245).
_CLOSURE = _pattern_closure("1243", "2413", "41352", "531642",
                            "2314", "4132", "31245")
_patterns = st.lists(st.sampled_from(_CLOSURE), max_size=6)
_flavors = st.sampled_from([FLAVOR_ALL, FLAVOR_SUM_INDEC, FLAVOR_SKEW_INDEC])


def _ref_minimal(patterns) -> tuple:
    items = set(patterns)
    return tuple(sorted((p for p in items
                         if not any(q != p and contains(p, q) for q in items)),
                        key=perm_key))


def _ref_maximal(patterns) -> tuple:
    items = set(patterns)
    return tuple(sorted((p for p in items
                         if not any(q != p and contains(q, p) for q in items)),
                        key=perm_key))


def _ref_normal(avoid, contain) -> tuple[tuple, tuple, bool]:
    """Normalized avoid and contain sets and the empty flag, from contains."""
    a = _ref_minimal(avoid)
    c = tuple(p for p in _ref_maximal(contain) if len(p) > 1)
    empty = any(len(e) == 1 for e in a) or any(
        contains(m, e) for m in c for e in a)
    return a, c, empty


def _ref_leq(r1, r2) -> bool:
    if r1.empty:
        return True
    if r1.flavor != r2.flavor or r2.empty:
        return False
    return (all(any(contains(e2, e1) for e1 in r1.avoid) for e2 in r2.avoid)
            and all(any(contains(a1, a2) for a1 in r1.contain)
                    for a2 in r2.contain))


def _ref_complement(r) -> set:
    """One cell per nonempty choice of broken constraints, which flip sides."""
    constraints = [("avoid", e) for e in r.avoid] + \
        [("contain", a) for a in r.contain]
    out = set()
    for k in range(1, len(constraints) + 1):
        for broken in itertools.combinations(constraints, k):
            avoid = [e for e in r.avoid if ("avoid", e) not in broken] + \
                [a for side, a in broken if side == "contain"]
            contain = [a for a in r.contain if ("contain", a) not in broken] + \
                [e for side, e in broken if side == "avoid"]
            cell = Restriction(r.flavor, tuple(avoid), tuple(contain))
            if not cell.empty:
                out.add(cell)
    return out


@settings(max_examples=300, deadline=None)
@given(flavor=_flavors, avoid=_patterns, contain=_patterns)
def test_mask_normalization_matches_containment(flavor, avoid, contain):
    r = Restriction(flavor, tuple(avoid), tuple(contain))
    assert (r.avoid, r.contain, r.empty) == _ref_normal(avoid, contain)
    again = Restriction(flavor, r.avoid, r.contain)
    assert again == r and hash(again) == hash(r)
    if not r.empty:
        assert set(complement_restriction(r)) == _ref_complement(r)


@settings(max_examples=300, deadline=None)
@given(flavor=_flavors, avoid1=_patterns, contain1=_patterns,
       avoid2=_patterns, contain2=_patterns, same_flavor=st.booleans())
def test_mask_inclusion_and_intersection_match_containment(
        flavor, avoid1, contain1, avoid2, contain2, same_flavor):
    r1 = Restriction(flavor, tuple(avoid1), tuple(contain1))
    r2 = Restriction(flavor if same_flavor else FLAVOR_ALL,
                     tuple(avoid2), tuple(contain2))
    assert restriction_leq(r1, r2) == _ref_leq(r1, r2)
    assert restriction_leq(r2, r1) == _ref_leq(r2, r1)
    assert restriction_leq(r1, r1)
    if r1.flavor == r2.flavor:
        meet = intersect_restrictions(r1, r2)
        assert (meet.avoid, meet.contain, meet.empty) == _ref_normal(
            avoid1 + avoid2, contain1 + contain2)
        assert restriction_leq(meet, r1) and restriction_leq(meet, r2)


def test_interning_keeps_one_object_per_restriction():
    rs = [Restriction(FLAVOR_ALL, (p,), (q,)) for p in _CLOSURE[:12]
          for q in _CLOSURE[12:24]]
    for r1, r2 in itertools.product(rs[:30], repeat=2):
        intersect_restrictions(r1, r2)
    table = restrictions._INTERN.values()
    assert len({id(r) for r in table}) == len(set(table))


def test_equal_after_perms_caches_are_cleared():
    # 2461357 is numbered by the first build; the numbering must outlive
    # every lru_cache in perms, which the benchmark clears between units.
    r1 = CA("2413", "1243", contain=("213", "2461357"))
    for value in vars(perms).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    r2 = CA("1243", "2413", contain=("2461357", "213"))
    assert r1 == r2 and hash(r1) == hash(r2)
    assert intersect_restrictions(r1, CA("12")) == intersect_restrictions(
        CA("12"), r2)


def test_large_pattern_numbers_without_its_down_closure():
    rng = random.Random(0)
    values = list(range(1, 41))
    rng.shuffle(values)
    big = Perm(tuple(values))
    numbered = len(restrictions._PATTERNS)
    start = time.perf_counter()
    r = Restriction(FLAVOR_ALL, (big,))
    assert time.perf_counter() - start < 1.0
    assert r.avoid == (big,) and not r.empty
    assert len(restrictions._PATTERNS) == numbered + 1


def _clear_perms_caches():
    for value in vars(perms).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@settings(max_examples=200, deadline=None)
@given(flavor=_flavors, avoid=_patterns, contain=_patterns, extra=_patterns,
       seed=st.randoms())
def test_every_route_gives_the_one_object(flavor, avoid, contain, extra, seed):
    # Equality is identity, so each route to a restriction must end at the
    # one object made for its normalized masks.
    r = Restriction(flavor, avoid, contain)
    assert repr(r) == str(r) == r.name()
    # Non-minimal avoided and non-maximal or size-1 mandatory patterns.
    above = [q for q in extra if any(contains(q, e) for e in avoid)]
    below = [q for q in extra if any(contains(m, q) for m in contain)]
    noisy = [avoid + above, contain + below + [Perm((1,))]]
    for patterns in noisy:
        seed.shuffle(patterns)
    raw = [sum({1 << restrictions._number(p) for p in ps}) for ps in noisy]
    routes = [
        Restriction(flavor, *noisy),
        Restriction(flavor, r.avoid, r.contain),
        restrictions._interned(flavor, *raw),
        restrictions._interned(flavor, r.avoid_mask, r.contain_mask),
        intersect_restrictions(Restriction(flavor, avoid),
                               Restriction(flavor, (), contain)),
        intersect_restrictions(r, Restriction(flavor)),
        parse_restriction_name(r.name()),
        copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r)),
    ]
    assert all(other is r for other in routes)
    for cell in [] if r.empty else complement_restriction(r):
        assert Restriction(flavor, cell.avoid, cell.contain) is cell
        assert parse_restriction_name(cell.name()) is cell
    _clear_perms_caches()
    assert Restriction(flavor, *noisy) is r
    assert restrictions._interned(flavor, *raw) is r
    assert parse_restriction_name(r.name()) is r
