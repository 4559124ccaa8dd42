"""Cross-validation against the actual polynomial ring.

All the weight-set predicates above are combinatorial shadows of honest
statements about polynomials in the matrix entries. This script drives
the exact-arithmetic oracle: it measures the order of vanishing of
highest weight vectors along random lines through random rank-constrained
integer matrices (the line test), and holds the tail-sum predicate for
symbolic powers to it.
"""

from dethodge import (
    MatrixSpace,
    RankConstrainedSampler,
    dcep_cross_validation_upto,
    in_symbolic_power,
    line_vanishing_order,
)
from dethodge.weights import partitions_of

space = MatrixSpace(3, 3)
SEED = 1729

print("Membership in a symbolic power of the ideal of p-minors means vanishing")
print("to order d along the rank p-1 locus. The highest weight vector of a")
print("partition lam is a product of powers of the leading principal minors.")
print("The line test restricts it to a random line a + t*v through a sampled")
print("rank p-1 point a: there each minor is a univariate integer polynomial in")
print("t, found exactly from a few determinants, so the order in t is exact,")
print("and one order answers every d (member iff order >= d). The tail-sum")
print("predicate says lam is a member iff lam_p + ... + lam_n >= d:")
cases = [((1, 1, 1), 2, 2), ((2, 1, 0), 2, 2), ((2, 2, 0), 2, 2), ((1, 1, 1), 3, 3)]
for lam, p, d in cases:
    s = RankConstrainedSampler(space, p - 1, bound=7, seed=SEED)
    order = line_vanishing_order(lam, space, p, s)
    predicate = in_symbolic_power(lam, p, d, space)
    print(f"  lam={lam}, p={p}, d={d}: line order={order} (member={order >= d}), "
          f"tail-sum predicate={predicate}")
print()

print("On a general line the order is the tail sum itself, for every partition")
print("of size <= 5:")
lambdas = [lam for size in range(6) for lam in partitions_of(size, 3)]
for p in (1, 2, 3):
    s = RankConstrainedSampler(space, p - 1, bound=7, seed=SEED)
    equal = sum(line_vanishing_order(lam, space, p, s) == sum(lam[p - 1:]) for lam in lambdas)
    print(f"  p={p}: {equal} of {len(lambdas)} line orders equal the tail sum")
print()

print("Sweeping the same partitions against the tail-sum predicate, every d")
print("from one line expansion per partition:")
for p in (1, 2, 3):
    s = RankConstrainedSampler(space, p - 1, bound=7, seed=SEED)
    for report in dcep_cross_validation_upto(space, lambdas, p, 3, s):
        print(f"  {report.summary()}")
