"""Decomposition Theorem multiplicities for determinantal resolutions.

Pushing the structure sheaf of the standard rank-p resolution down to
matrix space yields, in each cohomological degree, a direct sum of the
simple equivariant modules D_0, ..., D_p. Tracking degree with a formal
variable q, the multiplicity of D_i becomes a Laurent polynomial f_i(q),
pinned down stalk by stalk through Grassmannian Poincare polynomials.
"""

from dethodge import (
    MatrixSpace,
    closed_form_OYp,
    grassmannian_poincare,
    pushforward_DpY,
    q_binomial,
    qbinomial_identity_verdicts,
    solve_pushforward_OYp,
    stalk_poly,
)

print("Gaussian binomials are the building blocks; they are genuine")
print("polynomials with palindromic coefficients:")
for a, b in [(2, 1), (4, 2), (6, 3)]:
    print(f"  qbin({a},{b}) = {q_binomial(a, b)}")
print()

print("Poincare polynomials of Grassmannians sit at q^2:")
for r, N in [(1, 2), (2, 4)]:
    print(f"  G({r};{N}): {grassmannian_poincare(r, N)}")
print()

space = MatrixSpace(4, 3)
print(f"Stalk cohomology of IC complexes of rank loci in {space} matrices,")
print("at a point of rank k (a shifted q-binomial):")
for i, k in [(2, 2), (2, 1), (2, 0)]:
    print(f"  stalk(i={i}, at rank {k}): {stalk_poly(i, k, space)}")
print()

print("Multiplicities in the pushforward of the rank-p resolution:")
print("the triangular stalk system is solved by back-substitution, and")
print("the answer matches a closed-form shifted q-binomial.")
for p in range(4):
    solved = solve_pushforward_OYp(space, p)
    closed = closed_form_OYp(space, p)
    assert solved == closed
    print(f"  p={p}:")
    for line in solved.lines():
        print(f"    {line}")
print()

print("The equality of routes encodes a q-binomial convolution identity:")
print(f"  spot check (a,b,c)=(3,4,2): {qbinomial_identity_verdicts(3, 4, 2)[2]}\n")

print("The full table for the simple module on the maximal-rank resolution")
print("adds a Grassmannian-bundle prefactor. Two classical sanity cases:")
blow_up = pushforward_DpY(MatrixSpace(2, 1), 1)
print(f"  blow-up of the plane: entries {{i: f_i}} = "
      f"{{{', '.join(f'{i}: {f}' for i, f in sorted(blow_up.entries.items()))}}}")
adjacent = pushforward_DpY(MatrixSpace(4, 3), 3)
print(f"  adjacent sizes (m=n+1): entries = "
      f"{{{', '.join(f'{i}: {f}' for i, f in sorted(adjacent.entries.items()))}}}")
print("  (two summands, both in degree zero: a semismall map)")
print()

print("A rectangular example with honest cohomological spread:")
table = pushforward_DpY(MatrixSpace(5, 2), 1)
for line in table.lines():
    print(f"  {line}")
