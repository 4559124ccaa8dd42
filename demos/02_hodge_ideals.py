"""The Hodge ideals of the determinant hypersurface, two ways.

The k-th Hodge ideal I_k measures how far the level-k piece of the Hodge
filtration on functions with poles along the singular matrices falls
short of the full pole-order filtration. For the determinant it is an
intersection of symbolic powers of determinantal ideals, and there is a
second description through filtration sets of dominant weights. This
script shows both and confronts them exhaustively.
"""

from dethodge import (
    MatrixSpace,
    WeightSet,
    hilbert_function,
    hodge_ideal_exponents,
    in_Fk_Sdet,
    in_hodge_ideal,
    minimal_generators,
    parse_weight_set,
    translate,
    verify_equivalence,
)

n = 3
space = MatrixSpace(n, n)
print(f"determinant hypersurface inside {space} matrices\n")

print("Symbolic-power exponents of I_k (order of vanishing demanded along")
print("the rank p-1 locus); nonpositive exponents are vacuous:")
for k in range(5):
    exps = hodge_ideal_exponents(k, space)
    note = "  (unit ideal)" if all(e <= 0 for e in exps) else ""
    print(f"  k={k}: {list(exps)}{note}")
print()

print("So I_0 = I_1 = S, and I_2 demands vanishing along the submaximal")
print("rank locus once: I_2 = J_2 here. Membership of some partitions in I_3:")
for mu in [(1, 1, 1), (2, 2, 0), (3, 1, 0), (2, 1, 1)]:
    print(f"  {mu}: {in_hodge_ideal(mu, 3, space)}")
print("Its minimal partitions, the highest weights of its minimal generators:")
print(f"  {minimal_generators(3, space)}")
print()

print("The same ideal seen through the Hodge filtration: a partition mu")
print("belongs to I_k exactly when mu - (k+1, ..., k+1) lies in the")
print("level-k filtration piece of the localization at the determinant:")
k = 3
for mu in [(2, 2, 0), (3, 1, 0)]:
    lam = translate(mu, k)
    print(
        f"  mu={mu} -> lam={lam}: ideal={in_hodge_ideal(mu, k, space)}, "
        f"filtration={in_Fk_Sdet(lam, k, space)}"
    )
print()

print("The two descriptions agree everywhere; an exhaustive sweep over a")
print("weight box reports zero counterexamples:")
for report in verify_equivalence(space, range(4), bound=8):
    print(f"  {report.summary()}")
print()

print("Graded dimensions (Hilbert function) of I_k for 2x2 matrices, where")
print("I_k is the (k-1)-st power of the irrelevant ideal:")
small = MatrixSpace(2, 2)
for k in range(4):
    ideal = WeightSet(small, "HodgeIdeal", param=k)
    dims = [hilbert_function(ideal, d) for d in range(7)]
    print(f"  k={k}: {dims}")
print()

print("A weight set is named by a descriptor, as `dethodge hilbert --set`")
print("takes it; the ideals write theirs with keywords:")
for text in ["Ik(2,3)", "Jpd(n=3,p=2,d=2)", "FkSdet(k=1,n=2)"]:
    wset = parse_weight_set(text)
    print(f"  {text} -> {wset.kind}, written {wset.descriptor()}")
