"""Hand-derived membership cores: an independent reference for the rows.

The library states each weight-set kind once, as rows of `repsets._SPECS`
whose tail bounds are affine in the kind's parameter, and reads every
membership and every level off them with `repsets._parameter_interval`.
The functions here decide the same questions from closed forms worked
out by hand from the kinds' definitions, with no rows: the stratum of a
weight by counting, the U^p_k and F_k levels as tail sums, and the Hodge
ideal level as a minimum of floor quotients. The tests hold the rows to
them.

Every function takes a weight already known to be dominant of length n
and checks nothing.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, inf

from dethodge.matrixspace import MatrixSpace


def wp_member(lam, p: int, space: MatrixSpace) -> bool:
    """W^p: lam_p >= p-n (vacuous for p = 0) and lam_{p+1} <= p-m
    (vacuous for p = n)."""
    n = space.n
    if p > 0 and lam[p - 1] < p - n:
        return False
    if p < n and lam[p] > p - space.m:
        return False
    return True


def classify(lam, space: MatrixSpace):
    """The stratum of lam by counting. As lam_i - i strictly decreases,
    lam is in W^p exactly when b <= p <= a, for a = #{i : lam_i >= i-n}
    and b = #{i : lam_i >= i-m} >= a; and b = a unless lam_(a+1) >=
    a+1-m. An int on square spaces, else the list of matching indices."""
    n, a = space.n, 0
    while a < n and lam[a] > a - n:
        a += 1
    if space.is_square:
        return a
    return [] if a < n and lam[a] > a - space.m else [a]


def wpd_member(lam, p: int, d: int, space: MatrixSpace) -> bool:
    """W^p_d: in W^p with tail sum -d - c_p, c_p = (m-p)(n-p)."""
    return wp_member(lam, p, space) and sum(lam[p:]) == -d - (space.m - p) * (space.n - p)


def ukp_level(lam, p: int, space: MatrixSpace):
    """The least k with lam in U^p_k, -(lam_{p+1} + ... + lam_n) -
    comb(n-p+1, 2), or inf off W^p; for a square space."""
    if not wp_member(lam, p, space):
        return inf
    return -sum(lam[p:]) - comb(space.n - p + 1, 2)


def fk_level(lam, space: MatrixSpace) -> int:
    """The least k with lam in F_k: the U^p_k level for the stratum p of
    lam; for a square space."""
    p = classify(lam, space)
    return -sum(lam[p:]) - comb(space.n - p + 1, 2)


def in_symbolic_power(mu, p: int, d: int) -> bool:
    """A partition mu in J_p^(d), p in 1..n: mu_p + ... + mu_n >= d, with
    d <= 0 the unit ideal."""
    return d <= 0 or sum(mu[p - 1:]) >= d


def hodge_ideal_level(mu, n: int):
    """The largest k with the partition mu (of length n) in I_k, or inf
    when n = 1: the tail inequality of p < n reads (n-p)*(k-1) <= T_p +
    comb(n-p, 2), with T_p = mu_p + ... + mu_n, and holds exactly for
    k <= 1 + (T_p + comb(n-p, 2)) // (n-p); the p = n one always holds."""
    # T_p for p = n down to 1, paired with j = n - p.
    tails = enumerate(accumulate(reversed(mu)))
    return min((1 + (t + comb(j, 2)) // j for j, t in tails if j), default=inf)
