"""Random generation: exact uniformity, membership, reproducibility, and the
size-randomized sampler's numeric oracle."""

from collections import Counter

import pytest
from scipy.stats import chi2

from permspec import (
    DivergentSeriesError,
    EmptySizeClassError,
    Perm,
    RejectionBudgetError,
    SamplerState,
    ambiguous_system,
    class_input,
    count_coefficients,
    disambiguate_system,
    enumerate_avoiders,
    evaluate_series,
    sample_boltzmann,
    sample_exact,
)
from permspec.perms import avoids

from conftest import BASIS_132, BASIS_ONE_SIMPLE, pc


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
    # Captured before counting and sampling shared one suffix-row kernel:
    # the same seed must keep giving the same draws.
    _, disjoint = systems_one_simple
    state = SamplerState(disjoint, count_coefficients(disjoint, 20), seed=0)
    assert [str(sample_exact(state, 20)) for _ in range(10)] == [
        "20 17 13 14 10 9 8 15 16 11 12 18 6 7 19 5 2 1 4 3",
        "16 6 17 15 13 11 9 10 8 12 7 14 18 4 2 3 5 19 1 20",
        "19 17 14 12 13 5 7 6 8 4 2 1 3 9 10 11 15 16 18 20",
        "19 14 16 15 5 17 18 11 12 9 10 13 8 7 6 3 2 4 20 1",
        "19 16 5 15 11 12 13 14 8 9 7 6 10 17 4 1 2 3 18 20",
        "20 18 15 14 12 16 13 17 11 10 9 19 7 3 5 6 4 2 1 8",
        "14 17 18 15 16 19 12 11 7 4 6 5 8 9 10 2 3 1 13 20",
        "20 16 15 17 14 18 19 7 12 10 11 8 9 13 3 5 4 2 6 1",
        "17 15 18 16 19 11 9 6 5 7 8 10 4 12 13 1 3 2 14 20",
        "1 19 18 20 15 16 14 13 10 8 7 5 6 2 3 4 9 11 12 17",
    ]
