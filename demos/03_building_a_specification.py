"""From a basis to an unambiguous combinatorial specification.

First the closure equations are decorated with avoidance constraints,
pushed into term components through the embeddings of each excluded
pattern in the term's root.  The resulting system may describe some
members twice; disambiguation keeps each summand minus the earlier
summands it may overlap, splitting each complement at the first slot
that leaves the summand, and so trades avoidance constraints for
containment constraints along the way.
"""

from permspec import (
    Perm,
    ambiguous_system,
    class_input,
    compute_simples,
    disambiguate_system,
    serialize_system,
)

basis = [Perm.from_text("1 2 4 3"), Perm.from_text("2 4 1 3"),
         Perm.from_text("5 3 1 6 4 2"), Perm.from_text("4 1 3 5 2")]
simples = compute_simples(basis)
print(f"simple permutations: {', '.join(str(p) for p in simples.simples)}")

ambiguous = ambiguous_system(class_input(basis, simples.simples))
print(f"\nambiguous system: {len(ambiguous.equations)} equations; "
      "the root equation reads")
root_line = serialize_system(ambiguous).splitlines()[5]
print(" ", root_line)
print("  (the two 12-rooted summands overlap, and so do the two 3142-rooted ones)")

disjoint = disambiguate_system(ambiguous)
print(f"\ndisjoint specification: {len(disjoint.equations)} equations; "
      "the root equation becomes")
print(" ", serialize_system(disjoint).splitlines()[5])
print("\nNotice the mandatory patterns in parentheses: the overlap cells")
print("say 'avoids this but must contain that', which keeps the union")
print("disjoint without subtraction.")
