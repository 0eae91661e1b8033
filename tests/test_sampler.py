"""Random generation: exact uniformity, membership, reproducibility, and the
size-randomized sampler's numeric oracle."""

import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from permspec import (
    DivergentSeriesError,
    EmptySizeClassError,
    Perm,
    RejectionBudgetError,
    SamplerState,
    ambiguous_system,
    class_input,
    compute_simples,
    count_coefficients,
    disambiguate_system,
    enumerate_avoiders,
    evaluate_series,
    sample_boltzmann,
    sample_exact,
)
from permspec import perms, sampler
from permspec.perms import (InvalidInputError, avoids, inflate, preorder,
                            substitute, top_split)

from conftest import (BASIS_132, BASIS_ONE_SIMPLE, CORPUS, pc, recurse,
                      value_order_inflate)


@pytest.fixture(scope="module")
def sampler_132(systems_132):
    _, disjoint = systems_132
    return disjoint, count_coefficients(disjoint, 8)


def test_size_one_is_always_the_atom(sampler_132):
    disjoint, table = sampler_132
    state = SamplerState(disjoint, table, seed=11)
    assert all(sample_exact(state, 1) == Perm((1,)) for _ in range(5))


def test_exact_sampling_is_uniform(sampler_132):
    disjoint, table = sampler_132
    state = SamplerState(disjoint, table, seed=42)
    members = enumerate_avoiders(BASIS_132, 5)
    assert len(members) == 42
    draws = Counter(sample_exact(state, 5) for _ in range(4200))
    assert set(draws) == set(members)
    stat = sum((draws[m] - 100) ** 2 / 100 for m in members)
    assert stat < chi2.ppf(0.999, len(members) - 1)


def test_samples_belong_to_the_class(systems_one_simple):
    _, disjoint = systems_one_simple
    table = count_coefficients(disjoint, 7)
    state = SamplerState(disjoint, table, seed=3)
    for _ in range(200):
        assert avoids(sample_exact(state, 7), BASIS_ONE_SIMPLE)


def test_uniformity_across_all_test_bases(all_systems):
    for basis, (_, disjoint) in all_systems.items():
        table = count_coefficients(disjoint, 6)
        state = SamplerState(disjoint, table, seed=8)
        for n in range(2, 7):
            members = enumerate_avoiders(basis, n)
            draws = Counter(sample_exact(state, n)
                            for _ in range(100 * len(members)))
            assert set(draws) == set(members), (basis, n)
            stat = sum((draws[m] - 100) ** 2 / 100 for m in members)
            assert stat < chi2.ppf(0.999, len(members) - 1), (basis, n)


def test_prescribed_simples_draws_stay_in_the_closure():
    from permspec import closure_system, in_closure
    closure = closure_system([pc("3142")])
    table = count_coefficients(closure, 9)
    state = SamplerState(closure, table, seed=31)
    allowed = frozenset({pc("3142")})
    for _ in range(300):
        assert in_closure(sample_exact(state, 9), allowed)


def test_parsed_system_samples_identically(systems_one_simple):
    from permspec import parse_system, serialize_system
    _, disjoint = systems_one_simple
    reread = parse_system(serialize_system(disjoint))
    t1 = count_coefficients(disjoint, 7)
    t2 = count_coefficients(reread, 7)
    a = SamplerState(disjoint, t1, seed=5)
    b = SamplerState(reread, t2, seed=5)
    assert [sample_exact(a, 7) for _ in range(25)] == \
        [sample_exact(b, 7) for _ in range(25)]


def test_identical_seeds_give_identical_streams(sampler_132):
    disjoint, table = sampler_132
    a = SamplerState(disjoint, table, seed=99)
    b = SamplerState(disjoint, table, seed=99)
    assert [sample_exact(a, 6) for _ in range(20)] == \
        [sample_exact(b, 6) for _ in range(20)]
    c = SamplerState(disjoint, table, seed=100)
    assert [sample_exact(a, 6) for _ in range(20)] != \
        [sample_exact(c, 6) for _ in range(20)]


def test_empty_size_class_is_reported():
    basis = [pc("12"), pc("21")]
    disjoint = disambiguate_system(ambiguous_system(class_input(basis, [])))
    table = count_coefficients(disjoint, 4)
    state = SamplerState(disjoint, table, seed=0)
    assert sample_exact(state, 1) == Perm((1,))
    with pytest.raises(EmptySizeClassError):
        sample_exact(state, 2)


def test_depth_is_enforced(sampler_132):
    disjoint, table = sampler_132
    state = SamplerState(disjoint, table, seed=0)
    with pytest.raises(ValueError):
        sample_exact(state, 9)


# --- size-randomized sampling ------------------------------------------------

def test_series_evaluation_matches_known_value(sampler_132):
    disjoint, _ = sampler_132
    values = evaluate_series(disjoint, 0.2)
    # For this class the root series sums n-th Catalan numbers times z^n,
    # whose value at 0.2 is (1 - sqrt(1 - 0.8)) / 0.4 - 1.
    assert abs(values[disjoint.root] - 0.3819660113) < 1e-9


def test_series_divergence_is_reported(sampler_132):
    disjoint, _ = sampler_132
    with pytest.raises(DivergentSeriesError):
        evaluate_series(disjoint, 0.5)


def test_z_not_above_zero_is_invalid_input(sampler_132):
    # NaN compares false both ways: a "z <= 0" check lets it through, and
    # the fixpoint then returns all-NaN values as converged.
    disjoint, table = sampler_132
    state = SamplerState(disjoint, table, seed=0)
    for z in (math.nan, 0.0, -0.1):
        for call in (lambda: evaluate_series(disjoint, z),
                     lambda: sampler.check_boltzmann_options(z, (1, 3)),
                     lambda: sample_boltzmann(state, z, (1, 3))):
            with pytest.raises(InvalidInputError, match="z must be positive"):
                call()


def test_boltzmann_conditioned_on_size_is_uniform(sampler_132):
    disjoint, table = sampler_132
    state = SamplerState(disjoint, table, seed=17)
    members = enumerate_avoiders(BASIS_132, 5)
    draws = Counter(sample_boltzmann(state, 0.23, (5, 5))
                    for _ in range(2100))
    assert set(draws) == set(members)
    expected = 2100 / len(members)
    stat = sum((draws[m] - expected) ** 2 / expected for m in members)
    assert stat < chi2.ppf(0.999, len(members) - 1)


def test_boltzmann_draws_belong_to_the_class(systems_one_simple):
    _, disjoint = systems_one_simple
    table = count_coefficients(disjoint, 10)
    state = SamplerState(disjoint, table, seed=23)
    for _ in range(200):
        p = sample_boltzmann(state, 0.15, (1, 10))
        assert 1 <= len(p) <= 10 and avoids(p, BASIS_ONE_SIMPLE)


def test_boltzmann_tiny_parameter_concentrates_on_the_atom(sampler_132):
    disjoint, table = sampler_132
    state = SamplerState(disjoint, table, seed=1)
    assert all(sample_boltzmann(state, 1e-6, (1, 3)) == Perm((1,))
               for _ in range(20))


def test_boltzmann_rejection_budget():
    basis = [pc("12"), pc("21")]
    disjoint = disambiguate_system(ambiguous_system(class_input(basis, [])))
    table = count_coefficients(disjoint, 4)
    state = SamplerState(disjoint, table, seed=0)
    with pytest.raises(RejectionBudgetError):
        sample_boltzmann(state, 0.1, (2, 3), budget=50)


def test_worked_exact_stream_is_pinned(systems_one_simple):
    # Recaptured when a draw became the decode of one rank: every rank
    # below count(n) decoded to a distinct member up to size 8, the
    # chi-square tests passed and the draws matched the recursive decode,
    # but one randrange per draw instead of one per node and split gives
    # other draws.  From here on the same seed must keep giving these.
    _, disjoint = systems_one_simple
    state = SamplerState(disjoint, count_coefficients(disjoint, 20), seed=0)
    assert [str(sample_exact(state, 20)) for _ in range(10)] == [
        "19 20 12 13 14 11 15 1 16 17 7 8 4 5 6 9 2 3 10 18",
        "13 12 11 10 17 18 15 14 16 4 9 7 8 6 5 3 1 2 19 20",
        "17 19 18 16 20 15 12 10 8 7 6 9 11 4 3 5 13 14 2 1",
        "20 16 17 18 11 10 13 12 7 8 9 3 4 5 6 14 15 19 2 1",
        "20 16 18 17 13 15 14 10 4 7 5 6 2 8 3 9 1 11 12 19",
        "16 12 18 19 17 15 14 13 8 5 6 7 9 10 4 2 1 3 11 20",
        "18 17 16 15 13 19 14 11 9 8 7 5 6 10 2 4 3 1 12 20",
        "17 19 18 13 2 12 6 5 7 8 9 10 4 11 3 1 14 15 16 20",
        "19 3 13 11 8 9 10 12 7 14 15 16 5 6 17 4 18 1 20 2",
        "16 15 18 19 17 14 13 20 11 10 5 1 8 7 9 6 3 2 4 12",
    ]


def test_worked_boltzmann_stream_is_pinned(systems_one_simple):
    # Captured together with the earlier exact stream pin, on a state of
    # its own: the same seed must keep giving the same draws, rejections
    # included.
    _, disjoint = systems_one_simple
    state = SamplerState(disjoint, count_coefficients(disjoint, 20), seed=0)
    assert [str(sample_boltzmann(state, 0.19, (10, 40)))
            for _ in range(10)] == [
        "17 16 15 18 14 6 5 4 10 8 9 11 12 7 13 3 2 1",
        "3 1 8 9 7 5 4 6 10 2",
        "12 9 3 10 11 6 7 5 4 8 2 1",
        "9 1 7 6 8 4 5 3 2 10 11",
        "6 4 15 14 16 13 12 9 10 8 11 17 7 18 19 5 20 21 1 22 3 2 23",
        "17 16 9 8 15 14 13 12 11 10 7 4 5 3 2 6 1",
        "10 12 11 6 2 4 3 5 7 8 9 1",
        "9 10 8 3 7 6 5 4 1 2",
        "9 7 8 2 3 4 5 6 1 10",
        "12 13 11 5 7 6 8 9 4 3 1 2 10",
    ]


def test_boltzmann_state_needs_no_count_table(systems_one_simple):
    # Only the exact sampler reads the table; the Boltzmann stream is the
    # same with or without one.
    _, disjoint = systems_one_simple
    bare = SamplerState(disjoint, seed=0)
    full = SamplerState(disjoint, count_coefficients(disjoint, 20), seed=0)
    assert [sample_boltzmann(bare, 0.19, (10, 40)) for _ in range(5)] == \
        [sample_boltzmann(full, 0.19, (10, 40)) for _ in range(5)]
    with pytest.raises(ValueError, match="needs a count table"):
        sample_exact(bare, 5)


def test_sampling_refuses_an_ambiguous_system(systems_one_simple):
    # A member reached by several summands of an ambiguous system would be
    # drawn more often than the others, so no draw is uniform.
    ambiguous, _ = systems_one_simple
    with pytest.raises(ValueError, match="sampling needs a disjoint system"):
        SamplerState(ambiguous, seed=0)


def test_exact_deep_chain_needs_no_recursion():
    # Av(21) holds only identities, whose trees nest as deep as the size.
    disjoint = disambiguate_system(
        ambiguous_system(class_input([pc("21")], [])))
    state = SamplerState(disjoint, count_coefficients(disjoint, 2000), seed=4)
    assert sample_exact(state, 2000) == Perm(tuple(range(1, 2001)))


@pytest.mark.parametrize("draw, window", [
    (lambda state: sample_exact(state, 40), (40, 40)),
    (lambda state: sample_boltzmann(state, 0.21, (20, 60)), (20, 60)),
], ids=["exact", "boltzmann"])
def test_draws_make_no_substitution(systems_one_simple, monkeypatch, draw,
                                    window):
    # Both samplers inflate their shapes in one pass; neither folds.
    def refuse(*args):
        raise AssertionError("a draw folded or substituted")
    for name in ("fold", "substitute"):
        assert name not in vars(sampler)
        monkeypatch.setattr(perms, name, refuse)
    disjoint = systems_one_simple[1]
    state = SamplerState(disjoint, count_coefficients(disjoint, 40), seed=5)
    draws = [draw(state) for _ in range(20)]
    assert all(window[0] <= len(p) <= window[1] and avoids(p, BASIS_ONE_SIMPLE)
               for p in draws)


# --- exact draws against a recursive decode of the same rank ---------------

def recursive_reference(state, n):
    """An exact draw decoded recursively, kept as a reference: one
    ``randrange`` below the root's count from ``state.rng``, decoded by
    generators on ``recurse``, one per equation visit and one per term,
    each size found by ``linear_split``, the offset in its block split by
    divmod (the component's rank first), and each term built by
    ``substitute``."""
    table = state.table

    def decode(r, n, u):
        eq = state.system.equations[r]
        if eq.has_atom and n == 1:
            if u < 1:
                return Perm((1,))
            u -= 1
        for term in eq.terms:
            w = table.suffix_tables(term)[0][n]
            if u < w:
                return (yield from decode_term(term, n, u))
            u -= w
        raise AssertionError(f"inconsistent counts for {r} at size {n}")

    def decode_term(term, n, u):
        suffix = table.suffix_tables(term)
        k = len(term.args)
        parts = []
        remaining = n
        for i, comp in enumerate(term.args):
            if i == k - 1:
                size, rank = remaining, u
            else:
                size, u = linear_split(u, table.counts[comp], suffix[i + 1],
                                       remaining, remaining - (k - 1 - i))
                rank, u = divmod(u, suffix[i + 1][remaining - size])
            parts.append((yield decode(comp, size, rank)))
            remaining -= size
        return substitute(term.root, parts)

    root = state.system.root
    return recurse(decode(root, n, state.rng.randrange(table.count(root, n))))


# (basis, n) of every exact stream the benchmark draws.
EXACT_STREAMS = [("W", 150), ("W", 30), ("L1", 30), ("L3", 30), ("B1", 30),
                 ("B4", 30)]


@pytest.mark.parametrize("name, n", EXACT_STREAMS)
def test_exact_streams_match_recursive_reference(stream_systems, name, n):
    system = stream_systems[name]
    table = count_coefficients(system, n)
    for seed in range(5):
        new = SamplerState(system, table, seed=seed)
        ref = SamplerState(system, table, seed=seed)
        assert [sample_exact(new, n) for _ in range(10)] == \
            [recursive_reference(ref, n) for _ in range(10)], seed
        # The same random calls, in the same order: one randrange below the
        # count per draw.
        fresh = random.Random(seed)
        for _ in range(10):
            fresh.randrange(table.root_count(n))
        assert new.rng.getstate() == ref.rng.getstate() == fresh.getstate(), \
            seed


def test_every_rank_decodes_to_a_distinct_member(all_systems, corpus_systems):
    # The ranks below count(n) and the class's members of size n correspond
    # one to one, so one uniform rank is one uniform member.  Av(321, 12345)
    # has 58 simples, the largest build, and is decoded up to size 7.
    cases = [(tuple(pc(b) for b in CORPUS[name]), dis, 8)
             for name, (_, dis) in corpus_systems.items()]
    cases += [(basis, dis, 8) for basis, (_, dis) in all_systems.items()]
    basis = (pc("321"), pc("12345"))
    amb = ambiguous_system(class_input(basis, compute_simples(basis).simples))
    cases.append((basis, disambiguate_system(amb), 7))
    for basis, system, top in cases:
        table = count_coefficients(system, top)
        state = SamplerState(system, table, seed=0)
        for n in range(1, top + 1):
            decoded = sorted(inflate(sampler._exact_shape(state, n, rank))
                             for rank in range(table.root_count(n)))
            assert decoded == enumerate_avoiders(basis, n), (basis, n)


# --- the two-ended size split against the linear scan it replaced ----------

def linear_split(u, counts, rest, left, top):
    """The earlier size split, kept as a reference: the least n in 1..top
    with u < w(1) + ... + w(n), w(n) = counts[n] * rest[left - n], and
    what is left of u, u - w(1) - ... - w(n - 1)."""
    for n in range(1, top + 1):
        w = counts[n] * rest[left - n]
        if u < w:
            return n, u
        u -= w
    raise AssertionError("inconsistent suffix tables")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda top: st.tuples(
    st.just(top), st.integers(0, 3),
    st.lists(st.integers(0, 4), min_size=top + 4, max_size=top + 4),
    st.lists(st.integers(0, 4), min_size=top + 4, max_size=top + 4))))
@example((3, 0, [0, 0, 2, 0, 0, 0, 0], [1] * 7))   # zero weights at both ends
@example((1, 2, [0, 5, 0, 0, 0], [0, 0, 3, 0, 0]))  # one admissible size
@example((4, 1, [0, 1, 0, 3, 0, 0, 0, 0], [1, 2, 1, 1, 1, 1, 1, 1]))
def test_split_size_equals_the_linear_scan(row):
    top, extra, counts, rest = row
    left = top + extra
    total = sum(counts[n] * rest[left - n] for n in range(1, top + 1))
    assume(total > 0)
    # Every u, so each cumulative boundary and both sides of it are met.
    for u in range(total):
        assert sampler._split_size(u, total, counts, rest, left, top) == \
            linear_split(u, counts, rest, left, top), u


class CountingRow(list):
    reads = 0

    def __getitem__(self, i):
        CountingRow.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("top", [1, 2, 7, 150])
def test_split_size_reads_weights_from_both_ends(top):
    # Size n costs at most 2 min(n, top - n + 1) weights, one read of
    # counts each; a one-ended scan would read n of them.
    rest = [1] * (top + 1)
    for weights in ([1] * top, [0] + [1] * (top - 1), [2, 0, 1] * top):
        counts = CountingRow([0] + weights[:top])
        total = sum(weights[:top])
        for u in range(total):
            CountingRow.reads = 0
            n = sampler._split_size(u, total, counts, rest, top, top)[0]
            assert CountingRow.reads <= 2 * min(n, top - n + 1), (u, n)
            assert n == linear_split(u, counts, rest, top, top)[0]


def test_split_size_raises_when_the_ends_pass():
    # A total above the weights' sum can leave u between head and tail.
    with pytest.raises(AssertionError, match="inconsistent suffix tables"):
        sampler._split_size(2, 5, [0, 1, 1, 1], [1] * 4, 3, 3)


# --- Boltzmann draws against the per-visit sampler they replaced ------------

class _Oversize(Exception):
    pass


def per_visit_reference(state, z, window, budget):
    """The earlier Boltzmann sampler, kept as a reference: a generator on
    ``recurse`` that recomputes its equation's weights at every visit and
    builds every attempt, rejected or not, drawing from ``state.rng``."""
    lo, hi = window
    values = evaluate_series(state.system, z)

    def draw(r, counter):
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
                parts = []
                for comp in term.args:
                    parts.append((yield draw(comp, counter)))
                return substitute(term.root, parts)
            u -= w
        raise AssertionError(f"inconsistent series weights for {r}")

    for _ in range(budget):
        try:
            p = recurse(draw(state.system.root, [hi]))
        except _Oversize:
            continue
        if lo <= len(p) <= hi:
            return p
    raise RejectionBudgetError(
        f"no size in [{lo}, {hi}] after {budget} draws at z={z}")


# (basis, z, window) of every Boltzmann stream the benchmark draws: the sha256
# of the first 20 draws at seed 0, one per line, captured from the per-visit
# sampler, and a budget that some draws of seed 7 run out of.
BOLTZMANN_STREAMS = {
    ("W", 0.21, (50, 100)): (
        "d8dba70cb3be955d81cd28999d7de1fbb9864282cce0de829a1e1e1a083d1316",
        20),
    ("W", 0.19, (10, 40)): (
        "761808869d809864427103a5c28087be476937545c020960e6f94811c2e60ee9",
        10),
    ("L1", 0.35, (10, 40)): (
        "0aa40f796ff317273b36006d6c9355b35eb6bf23c2cb2571b0b66c6a44865952",
        2),
    ("L3", 0.35, (10, 40)): (
        "fa6140b4b27f4dcbfcc46edd7f0232f927df3dcf31a5886d41977d6ad913eae3",
        2),
    ("B1", 0.24, (10, 40)): (
        "3fcecbe9c7f07dfba781a8c70e6c7be7d46674d1443be468f6af8b7c177c686d",
        3),
    ("B4", 0.32, (10, 40)): (
        "d7bf4d190dda35bdf06dbd08e6dcaa435b300537a9d01995a30e2892271372a6",
        2),
}


@pytest.fixture(scope="module")
def stream_systems(systems_one_simple, corpus_systems):
    systems = {"W": systems_one_simple[1]}
    for name in ("L1", "L3", "B1", "B4"):
        systems[name] = corpus_systems[name][1]
    return systems


def _outcomes(draw, state, z, window, budget, k):
    """k calls of one sampler: each draw's text, or its budget error."""
    out = []
    for _ in range(k):
        try:
            out.append(str(draw(state, z, window, budget)))
        except RejectionBudgetError as exc:
            out.append(f"error: {exc}")
    return out


@pytest.mark.parametrize("stream", BOLTZMANN_STREAMS,
                         ids=lambda s: f"{s[0]}-z{s[1]}-{s[2][0]}:{s[2][1]}")
def test_boltzmann_streams_match_per_visit_reference(stream_systems, stream):
    name, z, window = stream
    system = stream_systems[name]
    for seed in range(5):
        args = (z, window, sampler.DEFAULT_REJECTION_BUDGET, 10)
        assert _outcomes(sample_boltzmann, SamplerState(system, seed=seed),
                         *args) == \
            _outcomes(per_visit_reference, SamplerState(system, seed=seed),
                      *args), seed
    # A tight budget runs out on some draws: the error must come at the same
    # draw, and the stream must go on alike after it.
    digest, budget = BOLTZMANN_STREAMS[stream]
    args = (z, window, budget, 40)
    new = _outcomes(sample_boltzmann, SamplerState(system, seed=7), *args)
    assert new == _outcomes(per_visit_reference, SamplerState(system, seed=7),
                            *args)
    errors = sum(o.startswith("error") for o in new)
    assert 0 < errors < len(new)
    state = SamplerState(system, seed=0)
    text = "\n".join(str(sample_boltzmann(state, z, window))
                     for _ in range(20))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_rejected_boltzmann_attempts_build_nothing(systems_one_simple,
                                                   monkeypatch):
    # Only kept draws are built, each by one inflate of its shape.
    calls = []

    def counting(shape):
        calls.append(shape)
        return perms.inflate(shape)
    monkeypatch.setattr(sampler, "inflate", counting)
    state = SamplerState(systems_one_simple[1], seed=0)
    draws = [sample_boltzmann(state, 0.21, (50, 100)) for _ in range(50)]
    assert len(calls) == len(draws) == 50


@pytest.mark.parametrize("name, z", [("W", 0.21), ("W", 0.19), ("L1", 0.35),
                                     ("B1", 0.24)])
def test_weight_tables_equal_per_visit_products(stream_systems, name, z):
    system = stream_systems[name]
    values = evaluate_series(system, z)
    table = sampler._weight_table(system, values, z)
    assert len(table) == len(system.equations)
    for (choices, total), eq in zip(table, system.equations.values()):
        weights = [z] if eq.has_atom else []
        want = 0.0
        if eq.has_atom:
            want += z
        for term in eq.terms:
            w = 1.0
            for comp in term.args:
                w *= values[comp]
            weights.append(w)
            want += w
        assert [w for _, _, w in choices] == weights
        assert total == want
        comps = [tuple(list(system.equations)[i] for i in c)
                 for _, c, _ in choices[eq.has_atom:]]
        assert comps == [term.args for term in eq.terms]


def test_boltzmann_deep_chain_needs_no_recursion():
    # Av(21) holds only identities, whose trees nest as deep as the size.
    disjoint = disambiguate_system(
        ambiguous_system(class_input([pc("21")], [])))
    state = SamplerState(disjoint, seed=4)
    p = sample_boltzmann(state, 0.9995, (1900, 2100))
    assert 1900 <= len(p) <= 2100
    assert p == Perm(tuple(range(1, len(p) + 1)))


# --- inflate against the value-order placement it replaced -----------------

def exact_shapes(system, n, draws):
    """The shapes of the first exact draws of size n at seed 0."""
    table = count_coefficients(system, n)
    state = SamplerState(system, table, seed=0)
    return [sampler._exact_shape(state, n,
                                 state.rng.randrange(table.root_count(n)))
            for _ in range(draws)]


def boltzmann_shapes(system, z, window, draws):
    """The shapes of the first kept Boltzmann draws at seed 0."""
    state = SamplerState(system, seed=0)
    table = sampler._weight_table(system, evaluate_series(system, z), z)
    shapes = []
    while len(shapes) < draws:
        shape = sampler._draw_shape(state.rng.random, table, state._start,
                                    *window)
        if shape is not None:
            shapes.append(shape)
    return shapes


def test_inflate_equals_the_value_order_placement_on_draws(stream_systems):
    # Every exact and Boltzmann stream the benchmark draws.
    shapes = [shape for name, n in EXACT_STREAMS
              for shape in exact_shapes(stream_systems[name], n, 20)]
    shapes += [shape for name, z, window in BOLTZMANN_STREAMS
               for shape in boltzmann_shapes(stream_systems[name], z, window,
                                             20)]
    assert [inflate(shape) for shape in shapes] == \
        [value_order_inflate(shape) for shape in shapes]
    children = Counter(len(entry[1]) for shape in shapes for entry in shape)
    assert children[2] and any(k > 2 for k in children)


def test_inflate_reads_value_orders_only_at_simple_roots(
        systems_132, systems_one_simple, monkeypatch):
    # Linear nodes are placed by one comparison; only a root with more than
    # two children reads its value order, once.  The identity's split is
    # the uncached one, so its 2000 parts stay out of top_split's cache.
    identity = preorder(Perm(range(1, 2001)), top_split.__wrapped__)
    av132 = exact_shapes(systems_132[1], 150, 1)[0]
    w = exact_shapes(systems_one_simple[1], 150, 5)
    calls, order = [], perms._value_order

    def counting(p):
        calls.append(p)
        return order(p)
    monkeypatch.setattr(perms, "_value_order", counting)
    for shape in (identity, av132):
        inflate(shape)
        assert calls == []
    simple = 0
    for shape in w:
        inflate(shape)
        simple += sum(len(entry[1]) > 2 for entry in shape)
        assert len(calls) == simple
    assert simple > 0
