"""Tour of the dominant-weight calculus behind the rank stratification.

Every GL-stable subspace of functions on matrix space is pinned down by a
set of dominant weights, so the geometry of rank strata turns into
predicate arithmetic on weakly decreasing integer tuples. This script
walks through the basic moves.
"""

from math import comb

from dethodge import (
    MatrixSpace,
    WeightSet,
    classify,
    decompose_weight,
    delta_p,
    dominant_tuples,
    dual,
    in_Wp,
    in_Wpd,
    lambda_of_p,
    minimal_elements,
    parse_weight_set,
)

space = MatrixSpace(3, 3)
print(f"working on {space} matrices\n")

print("A weight box is a finite truncation of the dominant weights: the")
print("weakly decreasing tuples with entries in [-b, b], comb(2b+n, n) of them.")
box = list(dominant_tuples(3, -2, 2))
assert len(box) == comb(2 * 2 + 3, 3)
print(f"box(length=3, bound=2): {len(box)} weights, first five: {box[:5]}\n")

print("Duality reverses and negates; it is an involution:")
lam = (3, 1, 0)
print(f"  dual{lam} = {dual(lam)};  dual(dual) = {dual(dual(lam))}\n")

print("For square matrices, the supports W^p of the simple equivariant")
print("modules partition the dominant weights; `classify` finds the stratum:")
for lam in [(2, 1, 0), (0, 0, -2), (-1, -2, -4), (-3, -3, -5)]:
    print(f"  {lam} lies in W^{classify(lam, space)}")
print()

print("Each stratum has a distinguished weight delta^p, the seed of its")
print("weight set (it sits in the bottom layer W^p_0):")
for p in range(4):
    d = delta_p(p, space)
    print(f"  p={p}: delta = {d}, in W^p: {in_Wp(d, p, space)}, in W^p_0: {in_Wpd(d, p, 0, space)}")
print()

print("Layers W^p_d are indexed by how far the tail sum drops below its")
print("maximum; their minimal elements are labeled by partitions of d:")
for d in range(4):
    print(f"  p=1, d={d}: {minimal_elements(1, d, space)}")
print()

print("A WeightSet names such a set and enumerates it over a box; its")
print("descriptor is what `dethodge hilbert --set` reads back:")
layer = WeightSet(space, "Wpd", 1, 2)
print(f"  {layer.descriptor()} in [-3, 3]: {layer.members(3)}")
print(f"  Wp(m=3,n=3,p=1) reads as {parse_weight_set('Wp(m=3,n=3,p=1)').descriptor()}")
print()

print("Every member of W^p splits as delta^p + mu^dual + gamma with mu the")
print("tail coordinates and gamma the head coordinates:")
lam = (1, -3, -4)
p = classify(lam, space)
mu, gamma = decompose_weight(lam, p, space)
print(f"  {lam}: p={p}, mu={mu}, gamma={gamma}\n")

print("For rectangular spaces the same weights embed into longer ones;")
print("the embedding inserts a constant block and shifts the tail:")
rect = MatrixSpace(5, 3)
for lam, p in [((2, 1, 0), 3), ((4, -4, -5), 1)]:
    print(f"  m=5, n=3, p={p}: {lam} -> {lambda_of_p(lam, p, rect)}")
