"""Core permutation operations against independent brute-force oracles."""

import copy
import functools
import itertools
import pickle
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permspec import (
    DecompTree,
    Perm,
    compute_simples,
    contains,
    decompose,
    embeddings,
    enumerate_avoiders,
    gen_substitute,
    in_closure,
    indecomposability,
    is_simple,
    pattern_of,
    rebuild,
    substitute,
    tree_text,
)
from permspec import perms
from permspec.perms import (ROOT_12, ROOT_21, InvalidInputError,
                            contains_through, embedding_parts, fold, inflate,
                            pattern_masks, perm_key, preorder, split_blocks,
                            top_split, tree_labels)

from conftest import (BASIS_132, BASIS_ONE_SIMPLE, BASIS_SEPARABLE, CORPUS,
                      any_slot_embeddings, contains_mask, cut_embeddings,
                      every_pattern_mask, interval_scan_is_simple, pc,
                      perms_of_size, rank_top_split, scan_avoiders,
                      two_loop_split_blocks, value_order_inflate)


# --- pattern containment ---------------------------------------------------

def test_contains_worked_examples():
    assert contains(pc("316452"), pc("2431"))
    assert not contains(pc("316452"), pc("2413"))


@pytest.mark.parametrize("n", range(1, 6))
def test_every_permutation_contains_one(n):
    for p in perms_of_size(n):
        assert contains(p, Perm((1,)))


def subsequence_patterns(sigma: Perm, max_len: int) -> set[Perm]:
    """Index-subset oracle: the set of patterns of all short subsequences."""
    out = set()
    for k in range(1, max_len + 1):
        for idxs in itertools.combinations(range(len(sigma)), k):
            out.add(pattern_of([sigma.values[i] for i in idxs]))
    return out


def test_contains_matches_index_subset_oracle():
    patterns = [p for k in range(1, 5) for p in perms_of_size(k)]
    for n in range(1, 8):
        for sigma in perms_of_size(n):
            present = subsequence_patterns(sigma, 4)
            for pi in patterns:
                assert contains(sigma, pi) == (pi in present), (sigma, pi)


# --- simplicity ------------------------------------------------------------

def test_is_simple_examples():
    assert is_simple(pc("3142"))
    assert not is_simple(pc("21"))
    assert not is_simple(pc("132"))
    assert not is_simple(Perm((1,)))


def scan_is_simple(p: Perm) -> bool:
    """Independent oracle: check every index window for consecutive values."""
    n = len(p)
    if n < 4:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if j - i + 1 == n:
                continue
            window = p.values[i:j + 1]
            if max(window) - min(window) == j - i:
                return False
    return True


def test_is_simple_matches_interval_scan_through_size_8():
    for n in range(1, 9):
        for p in perms_of_size(n):
            assert is_simple(p) == scan_is_simple(p), p


def test_simple_counts_by_size():
    counts = {n: sum(1 for p in perms_of_size(n) if is_simple(p))
              for n in (4, 5, 6)}
    assert counts == {4: 2, 5: 6, 6: 46}


# --- substitution ----------------------------------------------------------

def test_substitute_worked_example():
    got = substitute(pc("132"), [pc("21"), pc("132"), Perm((1,))])
    assert got == pc("214653")


def test_substitute_identities():
    assert substitute(pc("12"), [Perm((1,)), Perm((1,))]) == pc("12")
    assert substitute(pc("2413"), [Perm((1,))] * 4) == pc("2413")


def test_substitute_arity_checked():
    with pytest.raises(ValueError):
        substitute(pc("12"), [Perm((1,))])


def test_substitute_result_contains_skeleton():
    args = [pc("21"), pc("12"), Perm((1,))]
    for skel in perms_of_size(3):
        assert contains(substitute(skel, args), skel)


def test_gen_substitute_examples():
    assert gen_substitute(pc("132"), [pc("21"), None, Perm((1,))]) == pc("213")
    assert gen_substitute(pc("132"), [None, None, Perm((1,))]) == Perm((1,))
    assert gen_substitute(pc("12"), [None, None]) is None


def test_gen_substitute_can_avoid_skeleton():
    got = gen_substitute(pc("132"), [pc("21"), None, Perm((1,))])
    assert not contains(got, pc("132"))


# --- decomposition ---------------------------------------------------------

def test_decompose_worked_example():
    p = Perm((8, 9, 5, 11, 7, 6, 10, 17, 2, 1, 3, 4, 14, 16, 13, 15, 12))
    tree = decompose(p)
    assert tree_text(tree) == (
        "2413[31524[12[1,1],1,1,21[1,1],1],1,"
        "12[21[1,1],12[1,1]],21[2413[1,1,1,1],1]]")
    assert rebuild(tree) == p


def test_decompose_simple_permutation_is_flat():
    tree = decompose(pc("2413"))
    assert tree.root == pc("2413")
    assert all(child == DecompTree(None) for child in tree.children)


def test_decompose_increasing_run_nests_to_the_right():
    assert tree_text(decompose(pc("123"))) == "12[1,12[1,1]]"


def test_decompose_and_rebuild_deep_chains():
    # Nesting depth grows with the size on these, well past the default
    # recursion limit.
    n = 2000
    alternating = [1]
    for i in range(n - 1):
        if i % 2:
            alternating = [v + 1 for v in alternating] + [1]    # 21[p, 1]
        else:
            alternating = [1] + [v + 1 for v in alternating]    # 12[1, p]
    chains = [tuple(range(1, n + 1)), tuple(range(n, 0, -1)),
              tuple(alternating)]
    try:
        for values in chains:
            p = Perm(values)
            tree = decompose(p)
            assert rebuild(tree) == p
            assert tree_text(tree).count("[") == n - 1
            assert in_closure(p, frozenset())
    finally:
        top_split.cache_clear()
        tree_labels.cache_clear()


def test_rebuild_round_trips_deep_chains_without_substitute(monkeypatch):
    # rebuild inflates the tree's preorder shape; no substitution is made.
    def refuse(skeleton, args):
        raise AssertionError("substitute called")
    monkeypatch.setattr(perms, "substitute", refuse)
    n = 2000
    alternating = [1]
    for i in range(n - 1):  # 12[1, p] and 21[p, 1] in turn
        alternating = [v + 1 for v in alternating] + [1] if i % 2 \
            else [1] + [v + 1 for v in alternating]
    try:
        for values in (range(1, n + 1), alternating):
            p = Perm(values)
            assert rebuild(decompose(p)) == p
    finally:
        top_split.cache_clear()
        tree_labels.cache_clear()


def check_canonical(tree: DecompTree):
    if tree.root is None:
        assert tree.children == ()
        return
    if tree.root in (ROOT_12, ROOT_21):
        assert len(tree.children) == 2
        assert tree.children[0].root != tree.root
    else:
        assert is_simple(tree.root)
        assert len(tree.children) == len(tree.root)
    for child in tree.children:
        check_canonical(child)


def test_decompose_round_trip_and_canonicity_through_size_7():
    for n in range(1, 8):
        for p in perms_of_size(n):
            tree = decompose(p)
            assert rebuild(tree) == p
            check_canonical(tree)


def test_indecomposability_flags():
    assert indecomposability(Perm((1,))) == (True, True)
    assert indecomposability(pc("123")) == (False, True)
    assert indecomposability(pc("3142")) == (True, True)


def test_indecomposability_matches_prefix_split_scan():
    def splittable(p, rising):
        for k in range(1, len(p)):
            head, tail = p.values[:k], p.values[k:]
            if rising and max(head) < min(tail):
                return True
            if not rising and min(head) > max(tail):
                return True
        return False

    for n in range(1, 7):
        for p in perms_of_size(n):
            sum_indec, skew_indec = indecomposability(p)
            assert sum_indec == (not splittable(p, True))
            assert skew_indec == (not splittable(p, False))


# --- embeddings ------------------------------------------------------------

def oracle_embedding_count(gamma: Perm, pi: Perm) -> int:
    """Independent oracle: tile gamma into consecutive value-interval
    blocks and count occurrences of the block quotient in the host."""
    gv, pv = gamma.values, pi.values

    def tilings(start):
        if start == len(gv):
            yield []
            return
        for length in range(1, len(gv) - start + 1):
            window = gv[start:start + length]
            if max(window) - min(window) + 1 == length:
                for rest in tilings(start + length):
                    yield [(start, length)] + rest

    total = 0
    for tiling in tilings(0):
        if len(tiling) > len(pv):
            continue
        quotient = pattern_of([min(gv[s:s + L]) for s, L in tiling])
        for idxs in itertools.combinations(range(len(pv)), len(tiling)):
            if pattern_of([pv[i] for i in idxs]) == quotient:
                total += 1
    return total


def test_embedding_counts():
    # The complete enumeration of the defining conditions yields 12 for the
    # first pair; the independent tiling oracle below agrees.
    assert len(embeddings(pc("546312"), pc("3142"))) == 12
    assert len(embeddings(pc("3214"), pc("2413"))) == 9
    assert len(embeddings(Perm((1,)), pc("12"))) == 2


def test_embeddings_satisfy_substitution_identity():
    for gamma, pi in [(pc("546312"), pc("3142")), (pc("3214"), pc("2413")),
                      (pc("1243"), pc("3142"))]:
        for emb in embeddings(gamma, pi):
            args = [emb.induced(gamma, i) for i in range(len(pi))]
            assert gen_substitute(pi, args) == gamma


def test_embeddings_complete_against_tiling_oracle():
    hosts = [p for k in (2, 3, 4) for p in perms_of_size(k)]
    for g in range(1, 6):
        for gamma in perms_of_size(g):
            for pi in hosts:
                assert len(embeddings(gamma, pi)) == \
                    oracle_embedding_count(gamma, pi), (gamma, pi)


def test_embeddings_sorted_by_boundaries():
    embs = embeddings(pc("546312"), pc("3142"))
    boundaries = [tuple(start for start, _ in e.blocks) for e in embs]
    assert boundaries == sorted(boundaries)
    assert len(set(embs)) == len(embs)


def test_embeddings_match_the_cut_route_on_the_corpus_simples():
    # embedding_parts too, against the cut route's induced patterns.
    hosts = {s for basis in CORPUS_BASES
             for s in compute_simples(basis, cap=10).simples}
    patterns = [p for g in range(1, 6) for p in perms_of_size(g)]
    for host in [pc("12"), pc("21")] + sorted(hosts, key=perm_key):
        for gamma in patterns:
            cut = cut_embeddings(gamma, host)
            assert embeddings(gamma, host) == cut, (gamma, host)
            assert embedding_parts(gamma, host) == tuple(
                tuple((i, emb.induced(gamma, i))
                      for i, (_, n) in enumerate(emb.blocks) if n)
                for emb in cut), (gamma, host)


@functools.cache
def simple_roots(n: int) -> list[Perm]:
    """The roots of size n: 12 and 21, or the simple permutations."""
    return [p for p in perms_of_size(n) if n == 2 or is_simple(p)]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 7).flatmap(lambda k: st.permutations(range(1, k + 1)))
       .map(Perm),
       st.sampled_from([2, 4, 5, 6, 7, 8])
       .flatmap(lambda n: st.sampled_from(simple_roots(n))))
@example(pc("546312"), pc("3142"))
@example(pc("1234567"), pc("12"))
@example(pc("7654321"), pc("21"))
def test_embeddings_match_the_cut_route(gamma, host):
    embs = embeddings(gamma, host)
    assert embs == cut_embeddings(gamma, host)
    for emb in embs:
        args = [emb.induced(gamma, i) for i in range(len(host))]
        assert gen_substitute(host, args) == gamma


def perms_up_to(k: int):
    return st.integers(1, k).flatmap(
        lambda n: st.permutations(range(1, n + 1))).map(Perm)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(perms_up_to(6), perms_up_to(8))
@example(pc("546312"), pc("3142"))
@example(pc("213"), pc("21436587"))
@example(pc("654321"), pc("87654321"))
def test_bitmask_slot_search_matches_the_any_slot_search(gamma, host):
    # Hosts simple or not; each induced pattern against its block's rank.
    want = any_slot_embeddings(gamma, host)
    assert embeddings(gamma, host) == want
    assert embedding_parts(gamma, host) == tuple(
        tuple((i, pattern_of(gamma[start - 1:start - 1 + n]))
              for i, (start, n) in enumerate(emb.blocks) if n)
        for emb in want)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(perms_up_to(9), st.lists(perms_up_to(6), min_size=1, max_size=8,
                                unique=True))
@example(pc("123456789"), [pc("21"), pc("231"), pc("1234"), pc("12345")])
@example(pc("987654321"), [pc("12"), pc("321"), pc("4321")])
def test_monotone_prefilter_keeps_every_contains_answer(host, patterns):
    # A pattern whose longest increasing or decreasing subsequence is
    # longer than the host's is refused before the backtracking.
    bits = {q: 1 << i for i, q in enumerate(patterns)}
    assert contains_mask(host, bits) == sum(
        bit for q, bit in bits.items() if contains_through(host, q, len(host)))


def test_a_late_failing_containment_is_refused_at_once():
    # The backtracker alone tries every placement of 2 3 ... 20 before the
    # final 1 fails: 7.3 s.  Its longest decreasing subsequence, 2, is
    # longer than the host's.
    start = time.perf_counter()
    assert not contains(Perm(tuple(range(1, 30))), Perm((*range(2, 21), 1)))
    assert time.perf_counter() - start < 1.0


def decomposition_trees(max_leaves: int):
    """Trees on 12, 21 and simple roots of size 4 to 6, not necessarily
    canonical."""
    roots = st.sampled_from([ROOT_12, ROOT_21]) | st.sampled_from(
        simple_roots(4) + simple_roots(5) + simple_roots(6))
    return st.recursive(
        st.just(DecompTree(None)),
        lambda kids: roots.flatmap(
            lambda root: st.lists(kids, min_size=len(root),
                                  max_size=len(root))
            .map(lambda cs: DecompTree(root, tuple(cs)))),
        max_leaves=max_leaves)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(decomposition_trees(80), st.sampled_from([None, Perm((1,))]))
def test_inflate_equals_the_substitution_fold(tree, leaf_root):
    # Entries as preorder gives them, and as the samplers do: a leaf root of
    # 1 and a third field that inflate ignores.
    shape = preorder(tree, lambda t: (t.root, t.children))
    want = fold(shape, substitute, Perm((1,)))
    assert inflate(shape) == want
    assert inflate([(root if kids else leaf_root, kids, object())
                    for root, kids in shape]) == want


def test_inflate_equals_the_value_order_placement_through_size_7():
    for n in range(1, 8):
        for p in perms_of_size(n):
            shape = preorder(p, top_split)
            assert inflate(shape) == value_order_inflate(shape) == p


def test_top_split_matches_the_rank_route_through_size_8():
    try:
        for n in range(1, 9):
            for p in perms_of_size(n):
                root, parts = top_split(p)
                assert (root, parts) == rank_top_split(p), p
                assert all(type(q) is Perm for q in parts), p
    finally:
        top_split.cache_clear()


def test_bytes_split_matches_top_split_through_size_8():
    # The oracle walk splits bytes keys and cuts each part from the key,
    # lowering its values by the block's least value minus one.
    lower = [bytes((v - d) % 256 for v in range(256)) for d in range(8)]
    try:
        for n in range(1, 9):
            for p in perms_of_size(n):
                key = bytes(p)
                root, blocks = split_blocks(key)
                parts = tuple(Perm(key[s:s + m].translate(lower[low - 1]))
                              for s, m, low in blocks)
                assert (root, parts) == top_split(p), p
                assert split_blocks(p) == (root, blocks), p
    finally:
        top_split.cache_clear()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(1, n + 1)))
       .map(Perm))
@example(Perm(range(1, 41)))
@example(Perm(range(40, 0, -1)))
def test_top_split_matches_the_rank_route(p):
    assert top_split(p) == rank_top_split(p)


def test_simplicity_and_split_match_the_old_routines_through_size_8():
    # is_simple reads split_blocks, which finds a linear split in one
    # prefix pass and checks only a coarser quotient for simplicity.
    try:
        for n in range(1, 9):
            for p in perms_of_size(n):
                assert is_simple(p) == interval_scan_is_simple(p), p
                assert split_blocks(p) == two_loop_split_blocks(p), p
                key = bytes(p)
                assert split_blocks(key) == two_loop_split_blocks(key), p
    finally:
        is_simple.cache_clear()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(9, 30).flatmap(lambda n: st.permutations(range(1, n + 1)))
       .map(Perm))
@example(Perm((2, 4, 6, 1, 8, 3, 9, 5, 7)))         # simple
@example(Perm((2, 4, 1, 6, 3, 8, 5, 10, 7, 9)))     # simple
@example(Perm((5, 8, 2, 10, 4, 1, 9, 3, 7, 6)))     # not simple, no linear split
@example(Perm((30, *range(1, 30))))
def test_simplicity_and_split_match_the_old_routines(p):
    assert is_simple(p) == interval_scan_is_simple(p)
    assert split_blocks(p) == two_loop_split_blocks(p)


# --- enumeration oracle ----------------------------------------------------

def test_enumerate_avoiders_examples():
    assert len(enumerate_avoiders([pc("132")], 4)) == 14
    assert enumerate_avoiders([pc("12")], 3) == [pc("321")]
    big = [pc("1243"), pc("2413"), Perm((5, 3, 1, 6, 4, 2)), Perm((4, 1, 3, 5, 2))]
    assert len(enumerate_avoiders(big, 3)) == 6


def test_enumerate_avoiders_sorted_and_capped():
    out = enumerate_avoiders([pc("132")], 5)
    assert out == sorted(out, key=lambda p: p.values)
    with pytest.raises(ValueError):
        enumerate_avoiders([pc("132")], 11)


@pytest.mark.parametrize("n", [0, -1, 11])
def test_enumerate_avoiders_refuses_sizes_outside_the_cap(n):
    with pytest.raises(InvalidInputError, match=f"oracle size {n} "):
        enumerate_avoiders([pc("132")], n)


CORPUS_BASES = [BASIS_132, BASIS_SEPARABLE, BASIS_ONE_SIMPLE] + \
    [tuple(map(pc, basis)) for basis in CORPUS.values()]


@pytest.mark.parametrize("basis", CORPUS_BASES, ids=str)
def test_enumerate_avoiders_matches_the_contains_scan(basis):
    for n in range(1, 8):
        assert enumerate_avoiders(basis, n) == scan_avoiders(basis, n), n


PATTERN_LISTS = st.lists(
    st.integers(1, 7).flatmap(lambda k: st.permutations(range(1, k + 1)))
    .map(Perm), min_size=1, max_size=6)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(PATTERN_LISTS, st.integers(1, 6))
@example([pc("1")], 4)
@example([pc("21"), pc("21"), pc("231"), pc("4231"), pc("1234567")], 5)
@example([pc("123"), pc("2413"), pc("123"), pc("13524")], 6)
def test_deletion_masks_match_the_contains_route(patterns, n):
    # Bits are shared (i % 3), so masks are ORs and not sums; duplicates,
    # non-antichains, the pattern 1 and patterns longer than n all occur.
    bits = {q: 1 << i % 3 for i, q in enumerate(patterns)}
    assert list(pattern_masks(bits, n)) == [
        (bytes(p), contains_mask(p, bits))
        for k in range(1, n + 1) for p in perms_of_size(k)]
    assert enumerate_avoiders(patterns, n) == scan_avoiders(patterns, n)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(PATTERN_LISTS, st.integers(1, 6))
@example([pc("1")], 4)
@example([pc("231"), pc("12"), pc("2413")], 6)
def test_a_class_walk_gives_the_full_walks_rows(patterns, n):
    # The patterns with bit 1 are the basis of the class walked; the rows
    # the walk keeps are the n! walk's rows in that class, masks and all.
    bits = {q: 1 << i % 3 for i, q in enumerate(patterns)}

    def keep(key, mask):
        return None if mask & 1 else (key, mask)
    assert list(pattern_masks(bits, n, keep)) == [
        row for row in every_pattern_mask(bits, n) if not row[1] & 1]


# --- values ----------------------------------------------------------------

def test_perm_validation_and_text():
    with pytest.raises(ValueError):
        Perm((1, 3))
    with pytest.raises(ValueError):
        Perm(())
    p = Perm.from_text("10 1 2 3 4 5 6 7 8 9")
    assert len(p) == 10 and str(p).startswith("10 1")


def test_perm_is_the_validated_tuple():
    p = Perm((3, 1, 2))
    assert p == (3, 1, 2) and hash(p) == hash((3, 1, 2))
    assert isinstance(p, tuple) and p.values is p
    assert type(p[1:]) is tuple and p[1:] == (1, 2)
    assert Perm([3, 1, 2]) == p and type(Perm([3, 1, 2])) is Perm
    assert Perm(v for v in (3, 1, 2)) == p
    for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert type(copied) is Perm and copied == p
    for bad in ((1, 1), (), (0, 1)):
        message = f"not a permutation of 1..n: {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Perm(bad)
    assert ROOT_12 == Perm((1, 2)) and ROOT_21 == Perm((2, 1))
    assert type(ROOT_12) is Perm and type(ROOT_21) is Perm
