"""Exact counting and the generating-function view.

A specification translates directly into equations for the class's
generating function, and into exact coefficient tables: integer dynamic
programming over the size, no truncation, no floats.
"""

from permspec import (
    Perm,
    ambiguous_system,
    class_input,
    closure_system,
    compute_simples,
    count_coefficients,
    disambiguate_system,
    emit_gf_equations,
)

print("The substitution closure with no simple permutations (the separable")
print("members) has the textbook three-equation system:")
closure = closure_system([])
print(emit_gf_equations(closure))
table = count_coefficients(closure, 12)
print("counts:", ", ".join(str(c) for _, c in table.root_counts()))

print()
basis = [Perm.from_text("1 3 2")]
disjoint = disambiguate_system(ambiguous_system(class_input(basis, [])))
table = count_coefficients(disjoint, 12)
print("Av(132) counts (the Catalan numbers):")
print(" ", ", ".join(str(c) for _, c in table.root_counts()))

print()
basis4 = [Perm.from_text("1 2 4 3"), Perm.from_text("2 4 1 3"),
          Perm.from_text("5 3 1 6 4 2"), Perm.from_text("4 1 3 5 2")]
dis4 = disambiguate_system(
    ambiguous_system(class_input(basis4, compute_simples(basis4).simples)))
table4 = count_coefficients(dis4, 40)
print("Av(1243, 2413, 531642, 41352) grows fast; exact integers at size 40:")
print(" ", table4.root_count(40))
