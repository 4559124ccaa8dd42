"""Weights, Tate twists, and filtration start levels, per stratum.

A pure module supported on the rank-p locus with Tate twist k has weight
d_p - 2k and its Hodge filtration starts in level c_p + k. Two families
of twists matter: the weight-graded layers of the localization at the
determinant (square case) and the local cohomology modules with support
in the singular locus (rectangular case). `weight_ledger` gives both,
one row per stratum, as `dethodge weights-table` prints them.
"""

from dethodge import (
    MatrixSpace,
    filtration_support_check,
    generation_level_Sdet,
    square_start_levels_consistency,
    weight_ledger,
)

n = 3
space = MatrixSpace(n, n)
print(f"square case: localization at the determinant on {space} matrices")
print(f"{'p':>3} {'d_p':>5} {'c_p':>5} {'weight':>7} {'twist':>6} {'start':>6}")
for row in weight_ledger(space):
    print(
        f"{row['p']:>3} {row['dim']:>5} {row['codim']:>5} "
        f"{row['weight']:>7} {row['twist']:>6} {row['start_level']:>6}"
    )
print()
print("Weights drop by exactly one per stratum, and the whole filtration")
print(f"is generated in level {generation_level_Sdet(space)} (= start level of the deepest stratum).")
print(f"ledger self-check: {square_start_levels_consistency(space).summary()}\n")

rect = MatrixSpace(5, 3)
print(f"rectangular case: local cohomology along singular {rect} matrices")
print(f"{'p':>3} {'degree':>7} {'weight':>7} {'twist':>6} {'start':>6}")
for row in weight_ledger(rect):
    degree = "-" if row["degree"] is None else row["degree"]
    print(
        f"{row['p']:>3} {degree:>7} {row['weight']:>7} "
        f"{row['twist']:>6} {row['start_level']:>6}"
    )
print()
print("Each local cohomology module is pure; its weight exceeds the naive")
print("mn by (n-p)(m-n+1), matching its cohomological degree shift.\n")

print("Start levels pin down where the Hodge filtration of each simple")
print("module begins: level k is nonempty exactly from the codimension on.")
report = filtration_support_check(MatrixSpace(4, 4), kmax=32, box=12)
print(f"  {report.summary()}")
