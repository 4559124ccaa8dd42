"""Weight supports of the simple equivariant D-modules on matrix space.

Every GL-stable subquotient of the localization at the determinant is
pinned down by a set of dominant weights, so the sets themselves are the
working objects here. They are all infinite and are therefore represented
as predicates; ``hodgeideals.WeightSet`` names them (with the ideal weight
sets) and enumerates them over weight boxes:

* ``in_Wp``: the support W^p of the simple module of the rank-p stratum;
* ``in_Wpd``: its layer W^p_d cut out by the tail sum -d - c_p;
* ``in_Ukp``: the filtration sets U^p_k of the square case. They grow
  with k, so membership is a threshold: ``_Ukp_level`` gives the least
  k with lam in U^p_k (infinite off W^p), and every U^p_k test, the
  exhaustive verifier's included, is one comparison with it;
* ``minimal_elements`` / ``lambda_p_mu``: the finitely many minimal
  members of a layer, indexed by partitions;
* ``decompose_weight``: head/tail coordinates of a weight relative to its
  stratum, inverse to building it from a minimal element.
"""

from __future__ import annotations

from math import comb, inf

from .matrixspace import MatrixSpace, Stratum, codim_stratum
from .weights import _wp_member, check_weight, is_partition, partitions_of


def in_Wp(lam, p: int, space: MatrixSpace) -> bool:
    """Membership in the rank-p stratum weight support: lam_p >= p-n and
    lam_{p+1} <= p-m, the first condition vacuous for p=0, the second for
    p=n."""
    lam = check_weight(lam, space.n)
    if not 0 <= p <= space.n:
        raise ValueError(f"stratum index p={p} outside 0..{space.n}")
    return _wp_member(lam, p, space)


def classify(lam, space: MatrixSpace):
    """The stratum (or strata) whose weight set contains lam.

    For square spaces the supports partition the dominant weights and the
    unique index is returned as an int. For m > n there is no such
    statement, so the full (possibly empty) list of matching indices is
    returned instead.
    """
    return _classify(check_weight(lam, space.n), space)


def _classify(lam: tuple[int, ...], space: MatrixSpace):
    # classify for a tuple already known to be dominant of length n. As
    # lam_i - i strictly decreases, lam is in W^p exactly when b <= p <= a,
    # for a = #{i : lam_i >= i-n} and b = #{i : lam_i >= i-m} >= a; and
    # b = a unless lam_(a+1) >= a+1-m.
    n, a = space.n, 0
    while a < n and lam[a] > a - n:
        a += 1
    if space.is_square:
        return a
    return [] if a < n and lam[a] > a - space.m else [a]


def in_Wpd(lam, p: int, d: int, space: MatrixSpace) -> bool:
    """Membership in the layer W^p_d: in W^p with tail sum
    lam_{p+1} + ... + lam_n equal to -d - c_p."""
    if d < 0:
        raise ValueError("layer index d must be nonnegative")
    lam = check_weight(lam, space.n)
    if not _wp_member(lam, p, space):
        return False
    c_p = codim_stratum(Stratum(space, p))
    return sum(lam[p:]) == -d - c_p


def in_Ukp(lam, p: int, k: int, space: MatrixSpace) -> bool:
    """Membership in U^p_k (square spaces only): lam_p >= p-n >= lam_{p+1}
    together with lam_{p+1} + ... + lam_n >= -comb(n-p+1, 2) - k."""
    if not space.is_square:
        raise ValueError("U-sets are defined on square matrix spaces")
    lam = check_weight(lam, space.n)
    n = space.n
    if not 0 <= p <= n:
        raise ValueError(f"stratum index p={p} outside 0..{n}")
    return k >= _Ukp_level(lam, p, space)


def _Ukp_level(lam: tuple[int, ...], p: int, space: MatrixSpace) -> int | float:
    """The least k with lam in U^p_k, -(lam_{p+1} + ... + lam_n) -
    comb(n-p+1, 2), or inf when lam is not in W^p; for a square space,
    p in 0..n and a tuple already known to be dominant of length n."""
    if not _wp_member(lam, p, space):
        return inf
    return -sum(lam[p:]) - comb(space.n - p + 1, 2)


def lambda_p_mu(p: int, mu, space: MatrixSpace) -> tuple[int, ...]:
    """The minimal element delta^p + mu^dual of the layer W^p_|mu|, for a
    partition mu with at most n-p parts:

        ((p-n)^p, p-m-mu_{n-p}, ..., p-m-mu_1)
    """
    n, m = space.n, space.m
    mu = tuple(mu)
    if len(mu) > n - p or (mu and not is_partition(mu)):
        raise ValueError(f"need a partition with at most {n - p} parts")
    mu = mu + (0,) * (n - p - len(mu))
    head = ((p - n),) * p
    tail = tuple((p - m) - x for x in reversed(mu))
    return head + tail


def minimal_elements(p: int, d: int, space: MatrixSpace) -> list[tuple[int, ...]]:
    """All minimal elements of the layer W^p_d under the componentwise
    order, one for each partition of d with at most n-p parts."""
    if d < 0:
        raise ValueError("layer index d must be nonnegative")
    if not 0 <= p <= space.n:
        raise ValueError(f"stratum index p={p} outside 0..{space.n}")
    return sorted(lambda_p_mu(p, mu, space) for mu in partitions_of(d, space.n - p))


def decompose_weight(lam, p: int, space: MatrixSpace):
    """Write lam in W^p as delta^p + mu^dual + gamma with mu a partition
    in at most n-p parts (tail coordinates) and gamma a partition in at
    most p parts (head coordinates). Returns (mu, gamma)."""
    lam = check_weight(lam, space.n)
    if not _wp_member(lam, p, space):
        raise ValueError(f"{lam} is not in the rank-{p} weight set of {space}")
    n, m = space.n, space.m
    mu = tuple((p - m) - lam[n - i] for i in range(1, n - p + 1))
    gamma = tuple(lam[i] - (p - n) for i in range(p))
    if (mu and not is_partition(mu)) or (gamma and not is_partition(gamma)):
        raise RuntimeError(f"{lam} split into non-partitions mu={mu}, gamma={gamma}")
    return mu, gamma


def compose_weight(mu, gamma, p: int, space: MatrixSpace) -> tuple[int, ...]:
    """Inverse of decompose_weight: delta^p + mu^dual + (gamma padded)."""
    base = lambda_p_mu(p, mu, space)
    gamma = tuple(gamma) + (0,) * (p - len(gamma))
    return tuple(b + (gamma[i] if i < p else 0) for i, b in enumerate(base))
