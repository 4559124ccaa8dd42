"""Cross-validation against the actual polynomial ring.

All the weight-set predicates above are combinatorial shadows of honest
statements about polynomials in the matrix entries. This script drives
the exact-arithmetic oracle: expand minors and highest weight vectors
symbolically, and measure vanishing orders at random rank-constrained
integer matrices, along random lines (the line test) or through every
partial derivative (the slower derivative test it is checked against).
"""

from dethodge import (
    MatrixSpace,
    RankConstrainedSampler,
    dcep_cross_validation_upto,
    highest_weight_vector,
    in_symbolic_power,
    line_vanishing_order,
    minor,
    symbolic_membership,
)
from dethodge.weights import partitions_of

space = MatrixSpace(3, 3)
SEED = 1729

print("The 3x3 determinant, expanded exactly:")
det3 = minor(space, (0, 1, 2), (0, 1, 2))
print(f"  {det3}\n")

print("Highest weight vectors are products of leading principal minors;")
print("they generate the isotypic components of the coordinate ring:")
for lam in [(1, 1, 0), (2, 1, 0), (2, 2, 2)]:
    f = highest_weight_vector(lam, space)
    print(f"  lam={lam}: degree {f.total_degree}, {len(f._c)} terms")
print()

print("Vanishing on a rank stratum (membership at order d = 1) is tested by")
print("evaluation at products of random integer matrices (a nonzero value is")
print("an exact certificate):")
sampler = RankConstrainedSampler(space, 1, bound=7, seed=SEED)
m2 = minor(space, (0, 1), (0, 1))
print(f"  2x2 minor on rank<=1 points: vanishes = {symbolic_membership(m2, 2, 1, sampler)}")
print(f"  2x2 minor on rank<=2 points: vanishes = {symbolic_membership(m2, 3, 1, sampler)}\n")

print("Membership in a symbolic power means vanishing to a prescribed order d")
print("along the rank p-1 locus. The derivative test asks that every partial")
print("of order below d vanish there. The line test restricts the highest")
print("weight vector to a random line a + t*v through a sampled point a: there")
print("it is a product of powers of the leading principal minors, univariate")
print("integer polynomials in t, so its order in t is found exactly, and one")
print("order answers every d (member iff order >= d):")
cases = [((1, 1, 1), 2, 2), ((2, 1, 0), 2, 2), ((2, 2, 0), 2, 2), ((1, 1, 1), 3, 3)]
for lam, p, d in cases:
    f = highest_weight_vector(lam, space)
    s = RankConstrainedSampler(space, p - 1, bound=7, seed=SEED)
    order = line_vanishing_order(lam, space, p, s)
    derivative = symbolic_membership(f, p, d, s)
    combinatorial = in_symbolic_power(lam, p, d, space)
    print(f"  lam={lam}, p={p}, d={d}: line order={order} (member={order >= d}), "
          f"derivative test={derivative}, tail-sum predicate={combinatorial}")
print()

print("The two tests agree on every partition of size <= 5 and d <= 3:")
lambdas = [lam for size in range(6) for lam in partitions_of(size, 3)]
for p in (1, 2, 3):
    s = RankConstrainedSampler(space, p - 1, bound=7, seed=SEED)
    agree = 0
    for lam in lambdas:
        order = line_vanishing_order(lam, space, p, s)
        f = highest_weight_vector(lam, space)
        agree += sum((order >= d) == symbolic_membership(f, p, d, s) for d in (1, 2, 3))
    print(f"  p={p}: {agree} of {3 * len(lambdas)} verdicts agree")
print()

print("Sweeping the same partitions against the tail-sum predicate, every d")
print("from one line expansion per partition:")
for p in (1, 2, 3):
    s = RankConstrainedSampler(space, p - 1, bound=7, seed=SEED)
    for report in dcep_cross_validation_upto(space, lambdas, p, 3, s):
        print(f"  {report.summary()}")
