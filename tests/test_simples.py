"""Simple-permutation search: worked values, oracle equality, stopping rule."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permspec import Perm, compute_simples, is_simple
from permspec.perms import avoids, perm_key
from permspec.simples import (DEFAULT_SIMPLES_CAP, SimplesResult,
                              _one_point_extensions, _parallel_alternations)

from conftest import (BASIS_ONE_SIMPLE, BASIS_SEPARABLE, CORPUS, pc,
                      perms_of_size)

# The six simple permutations of size 5.  Av(these) has no simple member of
# size 5 but four of every even size from 6 on: the parallel alternations,
# which no search by one-point extensions alone can reach.
SIMPLES_OF_SIZE_5 = tuple(pc(t) for t in
                          ("24153", "25314", "31524", "35142", "41352", "42513"))


def test_one_simple_class():
    result = compute_simples(BASIS_ONE_SIMPLE)
    assert result.simples == (pc("3142"),)
    assert result.complete


def test_separable_class_has_no_simples():
    result = compute_simples(BASIS_SEPARABLE)
    assert result.simples == ()
    assert result.complete


def test_av132_has_no_simples():
    result = compute_simples([pc("132")])
    assert result.simples == ()
    assert result.complete


def test_av123_truncates_at_cap():
    result = compute_simples([pc("123")], cap=8)
    assert not result.complete
    assert result.explored == 8
    assert result.status == "truncated at 8"
    assert pc("3142") in result.simples
    assert pc("35142") in result.simples


@pytest.mark.parametrize("basis", [
    (pc("123"),),
    (pc("132"), pc("4321")),
    BASIS_ONE_SIMPLE,
    (pc("12"),),
    SIMPLES_OF_SIZE_5,
])
def test_matches_exhaustive_scan_up_to_8(basis):
    result = compute_simples(basis, cap=8)
    bound = result.explored
    want = {p for n in range(4, bound + 1) for p in perms_of_size(n)
            if is_simple(p) and avoids(p, basis)}
    assert set(result.simples) == want


def test_complete_means_two_empty_levels_beyond_largest():
    result = compute_simples(BASIS_ONE_SIMPLE)
    assert result.complete
    largest = max((len(p) for p in result.simples), default=4)
    for n in (largest + 1, largest + 2):
        assert not [p for p in perms_of_size(n)
                    if is_simple(p) and avoids(p, BASIS_ONE_SIMPLE)]


def test_members_are_simple_avoiders_and_sorted():
    result = compute_simples([pc("123")], cap=7)
    assert all(is_simple(p) and avoids(p, (pc("123"),)) for p in result.simples)
    keys = [(len(p), p.values) for p in result.simples]
    assert keys == sorted(keys)


def test_input_validation():
    with pytest.raises(ValueError):
        compute_simples([])
    with pytest.raises(ValueError):
        compute_simples([Perm((1,))])
    with pytest.raises(ValueError):
        compute_simples([pc("132")], cap=5)


def two_point_reference(basis, cap=DEFAULT_SIMPLES_CAP) -> SimplesResult:
    """The earlier search, kept as a reference: candidates of size m are the
    one-point extensions of the simples of size m-1 and the two-point
    extensions of those of size m-2 (every simple permutation contains a
    simple one of size one or two less)."""
    patterns = tuple(sorted(set(basis), key=perm_key))

    def keep(p):
        return is_simple(p) and avoids(p, patterns)

    levels = {2: set(), 3: set()}
    levels[4] = {Perm(v) for v in itertools.permutations(range(1, 5))
                 if keep(Perm(v))}
    complete = False
    explored = 4
    for m in range(5, cap + 1):
        candidates = set()
        for p in levels[m - 1]:
            candidates |= _one_point_extensions(p)
        for p in levels[m - 2]:
            for q in _one_point_extensions(p):
                candidates |= _one_point_extensions(q)
        levels[m] = {c for c in candidates if keep(c)}
        explored = m
        if not levels[m] and not levels[m - 1]:
            complete = True
            break
    found = sorted((p for level in levels.values() for p in level), key=perm_key)
    return SimplesResult(tuple(found), complete, explored)


def test_parallel_alternations_are_the_exceptional_simples():
    assert _parallel_alternations(4) == {pc("2413"), pc("3142")}
    for m in (6, 8, 10):
        alternations = _parallel_alternations(m)
        assert len(alternations) == 4
        assert all(len(p) == m and is_simple(p) for p in alternations)
    for m in (6, 8):
        # Brute force: the simple permutations with no simple one-point
        # deletion.
        exceptional = set()
        for p in perms_of_size(m):
            if is_simple(p) and not any(
                    is_simple(Perm(tuple(v - (v > x) for v in p.values if v != x)))
                    for x in range(1, m + 1)):
                exceptional.add(p)
        assert _parallel_alternations(m) == exceptional


def test_alternations_seed_a_class_without_simples_of_size_5():
    result = compute_simples(SIMPLES_OF_SIZE_5, cap=12)
    want = {pc("2413"), pc("3142")}
    for m in (6, 8, 10, 12):
        want |= _parallel_alternations(m)
    assert set(result.simples) == want and len(result.simples) == 18
    assert result.status == "truncated at 12"


REFERENCE_BASES = {
    "W": (BASIS_ONE_SIMPLE, DEFAULT_SIMPLES_CAP),
    "Sep": (BASIS_SEPARABLE, DEFAULT_SIMPLES_CAP),
    **{name: (tuple(pc(b) for b in CORPUS[name]), DEFAULT_SIMPLES_CAP)
       for name in ("L1", "B1", "B2", "B3", "B4")},
    "L3": (tuple(pc(b) for b in CORPUS["L3"]), DEFAULT_SIMPLES_CAP),
    "Av123": ((pc("123"),), 9),
    "Av321": ((pc("321"),), 9),
    "Av2413": ((pc("2413"),), 9),
}


@pytest.mark.parametrize("name", REFERENCE_BASES)
def test_matches_two_point_reference(name):
    basis, cap = REFERENCE_BASES[name]
    assert compute_simples(basis, cap) == two_point_reference(basis, cap)


PATTERNS = st.integers(3, 5).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(lambda v: Perm(tuple(v)))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.lists(PATTERNS, min_size=1, max_size=3))
def test_random_bases_match_two_point_reference(basis):
    assert compute_simples(basis, 8) == two_point_reference(basis, 8)
