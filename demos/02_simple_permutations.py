"""Finding the simple permutations of a class.

The search extends known simple members by one new value and adds the
parallel alternations (such as 2 4 6 1 3 5) at even sizes: every other
simple permutation contains a simple one of size one less.  It stops for
good after two consecutive empty sizes.  When the class keeps producing
simple permutations the search cuts off at its cap and says so.
"""

from permspec import Perm, compute_simples

classes = {
    "Av(1243, 2413, 531642, 41352)": [
        Perm.from_text("1 2 4 3"), Perm.from_text("2 4 1 3"),
        Perm.from_text("5 3 1 6 4 2"), Perm.from_text("4 1 3 5 2")],
    "Av(2413, 3142)  (separable)": [
        Perm.from_text("2 4 1 3"), Perm.from_text("3 1 4 2")],
    "Av(132)": [Perm.from_text("1 3 2")],
}

for label, basis in classes.items():
    result = compute_simples(basis)
    names = ", ".join(str(p) for p in result.simples) or "(none)"
    print(f"{label}: {names}   [{result.status}]")

print()
print("Av(123) contains simple permutations of every size, so the search")
print("can only report a truncated set:")
result = compute_simples([Perm.from_text("1 2 3")], cap=8)
print(f"  {len(result.simples)} simple members up to size {result.explored}"
      f"   [{result.status}]")
print("  smallest few:", ", ".join(str(p) for p in result.simples[:4]), "...")
