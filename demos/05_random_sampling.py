"""Uniform random members of a class, two ways.

An exact-size draw is one random number below the class's count at the
requested size, decoded into the member of that rank by unranking
(Martinez and Molinero 2001), the rank form of the recursive method of
Flajolet, Zimmermann and Van Cutsem (1994): each rank names exactly one
member, so the output is exactly uniform.  The size-randomized sampler
instead weights choices by numeric series values at a parameter z;
conditioned on its size the output is uniform, so rejecting sizes outside
a window keeps uniformity.
"""

from collections import Counter

from permspec import (
    Perm,
    SamplerState,
    ambiguous_system,
    class_input,
    compute_simples,
    count_coefficients,
    disambiguate_system,
    sample_boltzmann,
    sample_exact,
)

basis = [Perm.from_text("1 2 4 3"), Perm.from_text("2 4 1 3"),
         Perm.from_text("5 3 1 6 4 2"), Perm.from_text("4 1 3 5 2")]
disjoint = disambiguate_system(
    ambiguous_system(class_input(basis, compute_simples(basis).simples)))
table = count_coefficients(disjoint, 30)
state = SamplerState(disjoint, table, seed=7)

print("Ten exact-size uniform members of size 12:")
for _ in range(10):
    print(" ", sample_exact(state, 12))

print()
print("Class members of size 4, sampled 8800 times (there are 22, so a")
print("uniform sampler should hit each about 400 times):")
draws = Counter(sample_exact(state, 4) for _ in range(8800))
for p, freq in sorted(draws.items(), key=lambda kv: kv[0].values)[:5]:
    print(f"  {p}: {freq}")
print(f"  ... {len(draws)} distinct members, "
      f"frequencies between {min(draws.values())} and {max(draws.values())}")

print()
print("Size-randomized draws at z = 0.15, accepting sizes 5 to 20:")
sizes = Counter(len(sample_boltzmann(state, 0.15, (5, 20)))
                for _ in range(200))
print(" ", dict(sorted(sizes.items())))
