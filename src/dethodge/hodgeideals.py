"""Hodge ideals of the determinant hypersurface and the Hodge filtration
on the localization at the determinant.

Two equivalent descriptions are implemented side by side for square
matrix spaces, and an exhaustive verifier confronts them over weight
boxes:

* ``in_hodge_ideal``: the k-th Hodge ideal as an intersection of symbolic
  powers of determinantal ideals, with exponent (n-p)(k-1) - comb(n-p, 2)
  at the rank p-1 locus (``hodge_ideal_exponents``);
* ``in_Fk_Sdet``: the level-k piece of the Hodge filtration on the
  localization of the coordinate ring at the determinant, a disjoint
  union of the filtration sets U^p_k, so a weight is a member exactly
  when k is at least its U^p_k level for its own stratum p;
* ``translate``: the change of frame mu -> mu - ((k+1)^n) between the two
  (twisting by the (k+1)-st power of the determinant);
* ``minimal_generators``: the minimal partitions of I_k, the highest
  weights of its minimal generators;
* ``verify_equivalence``: the exhaustive confrontation, walking each
  weight box once for all the levels k it checks. Both descriptions are
  thresholds in k, so each weight's filtration level (the least k with
  it in F_k) and each partition's Hodge-ideal level (the largest k with
  it in I_k) is solved once from the rows, by
  ``repsets._parameter_interval``, and compared with every k.

GL-stable ideals are identified with their sets of dominant weights, so
all ideal arithmetic here is predicate arithmetic on partitions. The sets
themselves, I_k, J_p^(d) and F_k among them, are ``repsets.WeightSet``
kinds: ``in_hodge_ideal`` and ``in_Fk_Sdet`` are membership tests of a
``WeightSet``, and ``in_symbolic_power`` solves the J_p^(d) rows on
every m x n space. ``grF_Dp_layer`` names the weight support of a
Hodge-graded piece of a simple module. The polynomial-level ground truth
lives in the oracle module.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from math import comb

from .matrixspace import MatrixSpace, _check_int, _check_space, _check_stratum
from .reporting import VerificationReport
from .repsets import WeightSet, _hodge_ideal_exponents, _parameter_interval, _rows
from .weights import check_weight, dominant_tuples


def in_symbolic_power(mu, p: int, d: int, space: MatrixSpace) -> bool:
    """Does the isotypic component of the partition mu lie in the d-th
    symbolic power of the ideal of p-minors (functions vanishing to order
    d along the rank p-1 locus)? True iff mu_p + ... + mu_n >= d, with
    d <= 0 denoting the unit ideal. Unlike Jpd, defined on m x n spaces."""
    _check_space(space)
    mu = check_weight(mu, space.n)
    _check_int("p", p)
    _check_int("d", d)
    if not 1 <= p <= space.n:
        raise ValueError(f"minor size p={p} outside 1..{space.n}")
    if mu[-1] < 0:
        raise ValueError("symbolic powers live in the polynomial ring; need a partition")
    return d <= _parameter_interval(_rows("SymbolicPower", space, p), mu)[1]


def hodge_ideal_exponents(k: int, space: MatrixSpace) -> tuple[int, ...]:
    """The symbolic-power exponents ((n-p)*(k-1) - comb(n-p, 2)) for
    p = 1..n-1 cutting out the k-th Hodge ideal."""
    _check_space(space)
    _check_int("k", k)
    if k < 0:
        raise ValueError("Hodge ideals are indexed by k >= 0")
    return _hodge_ideal_exponents(space, k)[:-1]


def in_hodge_ideal(mu, k: int, space: MatrixSpace) -> bool:
    """Membership of a partition in the k-th Hodge ideal of the determinant
    hypersurface: mu_p + ... + mu_n >= (n-p)*(k-1) - comb(n-p, 2) for
    every p (the p = n term always holds)."""
    return WeightSet(space, "HodgeIdeal", None, k).contains(mu)


def minimal_generators(k: int, space: MatrixSpace) -> list[tuple[int, ...]]:
    """The minimal partitions of the k-th Hodge ideal's weight set, in
    lexicographic order: the highest weights of its minimal generators.

    A member mu is minimal iff every position i where it can drop by one
    (mu_i > mu_{i+1}, with mu_{n+1} = 0) has some p <= i whose tail
    inequality is tight, mu_p + ... + mu_n = e_p. If instead a member
    nu < mu exists, let i be the last position with nu_i < mu_i: mu can
    drop at i, and for every p <= i its tail sum exceeds nu's, so none is
    tight.

    The generators are built, not searched for: a depth-first walk fixes
    the parts from right to left, mu_n first, carrying the tail sum
    T_i = mu_i + ... + mu_n and one flag, "open": a drop has happened at
    or after position i and no tail inequality from i on is tight. One
    tight p <= i serves every drop at or after i, so one flag suffices.
    A part is rejected when T_i < e_i; a tight T_i = e_i closes the flag;
    at i = 1 a member is accepted exactly when the flag is closed. While
    it is open some p < i must still be tight, and the smallest T_p can
    be is T_i + (i-p)*mu_i, since every part before i is at least mu_i.
    If that exceeds e_p for every p < i, no completion is minimal, and
    none is for a larger mu_i either: it is a drop with T_i > e_i, so the
    flag stays open and every such lower bound grows. The loop over mu_i
    therefore stops there, and each level is finite. The work is
    proportional to the prefixes that can still be completed, not to the
    comb(cap+n, n) partitions below the largest exponent.
    """
    _check_space(space)
    if not space.is_square:
        raise ValueError("the determinant hypersurface needs a square space")
    hodge_ideal_exponents(k, space)  # refuses a k that is not an int >= 0
    n = space.n
    bounds = _hodge_ideal_exponents(space, k)
    generators = []
    # Each entry tries one part at 0-based position i, ahead of suffix (the
    # parts after it, summing to tail); is_open is the flag for position
    # i+1. A stack instead of recursion, so n is not bounded by the
    # interpreter's recursion limit.
    stack = [(n - 1, (), 0, False, bounds[n - 1])]
    while stack:
        i, suffix, tail, is_open, part = stack.pop()
        total = tail + part
        still_open = (is_open or part > (suffix[0] if suffix else 0)) and total != bounds[i]
        if still_open and all(total + (i - p) * part > bounds[p] for p in range(i)):
            continue
        stack.append((i, suffix, tail, is_open, part + 1))
        if i == 0:
            generators.append((part,) + suffix)
        else:
            start = max(part, bounds[i - 1] - total)
            stack.append((i - 1, (part,) + suffix, total, still_open, start))
    return sorted(generators)


def in_Fk_Sdet(lam, k: int, space: MatrixSpace) -> bool:
    """Membership in the level-k piece of the Hodge filtration on the
    localization at the determinant: lam lies in U^p_k for its own
    stratum p."""
    return WeightSet(space, "FkSdet", None, k).contains(lam)


def translate(mu, k: int) -> tuple[int, ...]:
    """Shift mu -> mu - ((k+1)^n), the weight effect of dividing by the
    (k+1)-st power of the determinant."""
    _check_int("k", k)
    return tuple(x - (k + 1) for x in check_weight(mu))


def verify_equivalence(space: MatrixSpace, ks, bound: int) -> list[VerificationReport]:
    """Exhaustively confront the two descriptions of the Hodge filtration
    over a weight box, one report for each k in ks: the filtration
    predicate must agree with the tail inequality family

        lam_{s+1} + ... + lam_n >= -comb(n-s+1, 2) - k  for 0 <= s <= n-1,

    and on partitions the Hodge-ideal predicate must match the filtration
    predicate through the translate change of frame.

    The box is walked once for every k, and each weight is decided once
    on each side. Its filtration level, the least k with the weight in
    U^p_k for its own stratum p, is the least end of the interval that
    `repsets._parameter_interval` solves from F_k's rows, the rows that
    `in_Fk_Sdet` reads. Its tail sums fold the family into one slack,
    min_s (lam_{s+1} + ... + lam_n + comb(n-s+1, 2)), so the family holds
    at level k exactly when k >= -slack. Both sides are thresholds in k,
    so where the level equals -slack they agree at every k, and only the
    other weights are compared level by level: the skip is exact. On the
    partition side, Hodge-ideal membership is a threshold in k too: each
    partition's level, the largest k with mu in I_k, is the greatest end
    of the interval solved from I_k's rows, computed once and compared
    with every k. The filtration side reads the level of the translate
    mu - ((k+1)^n) from the walk, and solves it on its own only when it
    lies outside the box, which needs k + 1 > bound. A k or a bound that
    is not an int, or is negative, is refused before the walk. Each report
    counts the comb(2*bound + n, n) weights of its box and lists
    its box failures first, then its partition failures."""
    _check_space(space)
    if not space.is_square:
        raise ValueError("the localization at the determinant needs a square space")
    ks = tuple(ks)
    for k in ks:
        hodge_ideal_exponents(k, space)  # refuses a k that is not an int >= 0
    _check_int("bound", bound)
    if bound < 0:
        raise ValueError("box bound must be nonnegative")
    n = space.n
    reports = [
        VerificationReport(
            "hodge-filtration-equivalence", {"n": n, "k": k, "box": bound}, comb(2 * bound + n, n)
        )
        for k in ks
    ]
    # comb(n-s+1, 2) for s = n-1 down to 0, in step with the tail sums
    # accumulated from lam_n leftwards.
    offsets = [comb(n - s + 1, 2) for s in range(n - 1, -1, -1)]
    filtration_rows = _rows("FkSdet", space, None)
    ideal_rows = _rows("HodgeIdeal", space, None)
    levels = {}
    for lam in dominant_tuples(n, -bound, bound):
        level = levels[lam] = _parameter_interval(filtration_rows, lam)[0]
        slack = min(map(operator.add, accumulate(reversed(lam)), offsets))
        if level == -slack:
            continue
        for k, report in zip(ks, reports):
            lhs, rhs = k >= level, slack >= -k
            if lhs != rhs:
                report.add_failure(weight=lam, filtration=lhs, inequalities=rhs)
    for mu in dominant_tuples(n, 0, bound):
        ideal_level = _parameter_interval(ideal_rows, mu)[1]
        for k, report in zip(ks, reports):
            ideal = k <= ideal_level
            # translate(mu, k), its k already checked
            lam = tuple(x - k - 1 for x in mu)
            level = levels.get(lam)
            if level is None:
                level = _parameter_interval(filtration_rows, lam)[0]
            filt = k >= level
            report.checks += 1
            if ideal != filt:
                report.add_failure(partition=mu, ideal=ideal, filtration=filt)
    return reports


def grF_Dp_layer(p: int, level: int, start: int, space: MatrixSpace) -> WeightSet:
    """Weight support of the Hodge-graded piece of the rank-p simple module
    at the given filtration level, when the filtration starts at `start`:
    empty below the start, and the layer W^p_{level-start} from there on."""
    _check_stratum(space, p)
    _check_int("level", level)
    _check_int("start", start)
    if level < start:
        return WeightSet(space, "empty", p)
    return WeightSet(space, "Wpd", p, level - start)
