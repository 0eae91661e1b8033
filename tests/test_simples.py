"""Simple-permutation search: worked values, oracle equality, stopping rule."""

import itertools
import json
import os
import runpy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permspec import Perm, compute_simples, is_simple
from permspec.cli import main
from permspec.perms import (avoids, contains, contains_through, pattern_of,
                            perm_key)
from permspec.simples import (DEFAULT_SIMPLES_CAP, SimplesResult, _extensions,
                              _parallel_alternations)

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


def _one_point_extensions(p: Perm) -> set[Perm]:
    """All permutations of size n+1 obtained by inserting one new value."""
    n = len(p)
    out = set()
    for val in range(1, n + 2):
        lifted = [v + 1 if v >= val else v for v in p]
        for pos in range(n + 1):
            out.add(Perm(lifted[:pos] + [val] + lifted[pos:]))
    return out


def one_point_reference(basis, cap=DEFAULT_SIMPLES_CAP) -> SimplesResult:
    """The earlier search, kept as a reference: every candidate, a one-point
    extension of a simple avoider one size smaller or a parallel
    alternation, is a ``Perm`` tested with ``avoids`` and ``is_simple``."""
    patterns = tuple(sorted(set(basis), key=perm_key))

    def keep(p):
        return avoids(p, patterns) and is_simple(p)

    seeds = (Perm(v) for v in itertools.permutations(range(1, 5)))
    levels = {4: {p for p in seeds if keep(p)}}
    complete = False
    explored = 4
    for m in range(5, cap + 1):
        candidates = _parallel_alternations(m) if m % 2 == 0 else set()
        for p in levels[m - 1]:
            candidates |= _one_point_extensions(p)
        levels[m] = {c for c in candidates if keep(c)}
        explored = m
        if not levels[m] and not levels[m - 1]:
            complete = True
            break
    found = sorted((p for level in levels.values() for p in level), key=perm_key)
    return SimplesResult(tuple(found), complete, explored)


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


@pytest.mark.parametrize("name", REFERENCE_BASES)
def test_matches_one_point_reference(name):
    basis, cap = REFERENCE_BASES[name]
    assert compute_simples(basis, cap) == one_point_reference(basis, cap)


PATTERNS = st.integers(3, 5).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(lambda v: Perm(tuple(v)))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.lists(PATTERNS, min_size=1, max_size=3))
def test_random_bases_match_two_point_reference(basis):
    result = compute_simples(basis, 8)
    assert result == one_point_reference(basis, 8)
    assert result == two_point_reference(basis, 8)


def test_simplicity_rule_on_every_extension_up_to_8():
    # _extensions decides simplicity by the new point alone.  With a pattern
    # too large to occur, it keeps every simple one-point extension of the
    # simples one size smaller, and the alternations.
    never = (Perm(tuple(range(1, 10))),)
    simples = {p for p in perms_of_size(4) if is_simple(p)}
    for m in range(5, 9):
        extensions = set().union(*map(_one_point_extensions, simples))
        want = {c for c in extensions if is_simple(c)}
        want |= _parallel_alternations(m) if m % 2 == 0 else set()
        got = _extensions({bytes(p) for p in simples}, never, m)
        assert {Perm(c) for c in got} == want, m
        simples = want
    assert len(simples) == 2926  # the simple permutations of size 8


def _occurrences(perm, pattern):
    """Every occurrence of pattern in perm, as a tuple of positions."""
    return [idx for idx in itertools.combinations(range(len(perm)), len(pattern))
            if pattern_of([perm[i] for i in idx]) == pattern]


def test_contains_through_matches_brute_force_up_to_6():
    patterns = [p for k in range(1, 5) for p in perms_of_size(k)]
    for n in range(1, 7):
        for p in perms_of_size(n):
            key = bytes(p)
            for q in patterns:  # pos = n is contains: any occurrence
                found = _occurrences(p, q)
                for pos in range(n + 1):
                    want = any(pos in idx or idx[-1] < pos for idx in found)
                    assert contains_through(key, q, pos) == want, (p, q, pos)


def test_search_leaves_the_caches_nearly_empty():
    # Extensions are tested uncached, through their new point; only the
    # size-4 seeds go through the cached is_simple and contains.
    for cache in (contains, is_simple):
        cache.cache_clear()
    compute_simples([pc("123")], 10)
    assert contains.cache_info().currsize < 100
    assert is_simple.cache_info().currsize < 100


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_simples():
    """(basis name, basis literals, cap) for each ``permspec simples`` the
    benchmark workloads run; perfbench/workloads.py is only read."""
    workloads = runpy.run_path(os.path.join(ROOT, "perfbench", "workloads.py"))
    runs = {(c.basis, c.cap) for w in workloads["WORKLOADS"].values()
            for c in w.simples}
    return [(name, workloads["BASES"][name], cap) for name, cap in sorted(
        runs, key=lambda run: (run[0], run[1] or 0))]


@pytest.mark.parametrize("name, basis, cap", _benchmark_simples())
def test_benchmark_simples_match_the_pinned_reference(name, basis, cap,
                                                      tmp_path):
    with open(os.path.join(ROOT, "perfbench", "reference.json"),
              encoding="utf-8") as fh:
        known = json.load(fh)["simples"][name]
    perms = [p for p in known["perms"]
             if cap is None or len(p.split()) <= cap]
    assert known["complete"] or cap <= known["searched_to"]
    status = "complete" if known["complete"] else f"truncated at {cap}"
    path, out = tmp_path / "basis.txt", tmp_path / "out.txt"
    path.write_text("".join(" ".join(b) + "\n" for b in basis))
    argv = ["simples", "--basis", str(path), "-o", str(out)]
    code = main(argv + ([] if cap is None else ["--cap", str(cap)]))
    assert code == (0 if known["complete"] else 2)
    assert out.read_text().splitlines() == [f"# status: {status}"] + perms
