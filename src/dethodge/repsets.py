"""Weight supports of the simple equivariant D-modules on matrix space.

Every GL-stable subquotient of the localization at the determinant is
pinned down by a set of dominant weights, so the sets themselves are the
working objects here. They are all infinite and are therefore represented
as predicates plus bounded enumerators over weight boxes:

* ``in_Wp``: the support W^p of the simple module of the rank-p stratum;
* ``in_Wpd``: its layer W^p_d cut out by the tail sum -d - c_p;
* ``in_Ukp``: the filtration sets U^p_k of the square case;
* ``minimal_elements`` / ``lambda_p_mu``: the finitely many minimal
  members of a layer, indexed by partitions;
* ``decompose_weight``: head/tail coordinates of a weight relative to its
  stratum, inverse to building it from a minimal element.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb

from .matrixspace import MatrixSpace, Stratum, codim_stratum
from .weights import (
    WeightBox,
    _wp_member,
    check_weight,
    is_partition,
    partitions_of,
)


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
    lam = check_weight(lam, space.n)
    hits = [p for p in range(space.n + 1) if _wp_member(lam, p, space)]
    if space.is_square:
        if len(hits) != 1:
            raise RuntimeError(f"square supports failed to partition at {lam}")
        return hits[0]
    return hits


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
    if p > 0 and lam[p - 1] < p - n:
        return False
    if p < n and lam[p] > p - n:
        return False
    return sum(lam[p:]) >= -comb(n - p + 1, 2) - k


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


def grF_Dp_layer(p: int, level: int, start: int, space: MatrixSpace) -> "StratumWeightSet":
    """Weight support of the Hodge-graded piece of the rank-p simple module
    at the given filtration level, when the filtration starts at `start`:
    empty below the start, and the layer W^p_{level-start} from there on."""
    if level < start:
        return StratumWeightSet(space, p, "empty")
    return StratumWeightSet(space, p, "Wpd", level - start)


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


_KINDS = ("Wp", "Wpd", "Ukp", "empty")


@dataclass(frozen=True)
class StratumWeightSet:
    """A named weight set attached to a stratum: W^p, a layer W^p_d, a
    filtration set U^p_k, or the empty set. Supports membership tests and
    bounded enumeration."""

    space: MatrixSpace
    p: int
    kind: str = "Wp"
    param: int | None = None

    partitions_only = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown weight-set kind {self.kind!r}")
        if not 0 <= self.p <= self.space.n:
            raise ValueError(f"stratum index p={self.p} outside 0..{self.space.n}")
        if self.kind == "Wpd" and (self.param is None or self.param < 0):
            raise ValueError("Wpd needs a layer index d >= 0")
        if self.kind == "Ukp":
            if self.param is None:
                raise ValueError("Ukp needs a filtration index k")
            if not self.space.is_square:
                raise ValueError("U-sets are defined on square matrix spaces")
        if self.kind in ("Wp", "empty") and self.param is not None:
            raise ValueError(f"{self.kind} takes no parameter")

    def contains(self, lam) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "Wp":
            return in_Wp(lam, self.p, self.space)
        if self.kind == "Wpd":
            return in_Wpd(lam, self.p, self.param, self.space)
        return in_Ukp(lam, self.p, self.param, self.space)

    def members(self, bound: int) -> list[tuple[int, ...]]:
        """All members with entries in [-bound, bound], lexicographic."""
        return [w for w in WeightBox(self.space.n, bound) if self.contains(w)]

    def descriptor(self) -> str:
        m, n, p = self.space.m, self.space.n, self.p
        if self.kind == "Wp":
            return f"Wp({m},{n},{p})"
        if self.kind == "Wpd":
            return f"Wpd({m},{n},{p},{self.param})"
        if self.kind == "Ukp":
            return f"Ukp({n},{p},{self.param})"
        return f"Empty({m},{n},{p})"


_DESC_RE = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$")


def _descriptor_args(text):
    match = _DESC_RE.match(text)
    if not match:
        raise ValueError(f"malformed set descriptor {text!r}")
    name, body = match.group(1), match.group(2)
    pos, kw = [], {}
    for piece in body.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" in piece:
            key, value = piece.split("=", 1)
            kw[key.strip()] = int(value)
        else:
            pos.append(int(piece))
    return name, pos, kw


def parse_descriptor(text: str) -> StratumWeightSet:
    """Parse "Wp(m,n,p)", "Wpd(m,n,p,d)" or "Ukp(n,p,k)" (keyword forms
    like "Ukp(n=2,p=1,k=2)" are accepted too)."""
    name, pos, kw = _descriptor_args(text)
    if name == "Wp":
        m, n, p = _pull(pos, kw, ("m", "n", "p"))
        return StratumWeightSet(MatrixSpace(m, n), p, "Wp")
    if name == "Wpd":
        m, n, p, d = _pull(pos, kw, ("m", "n", "p", "d"))
        return StratumWeightSet(MatrixSpace(m, n), p, "Wpd", d)
    if name == "Ukp":
        n, p, k = _pull(pos, kw, ("n", "p", "k"))
        return StratumWeightSet(MatrixSpace(n, n), p, "Ukp", k)
    raise ValueError(f"unknown stratum weight set {name!r}")


def _pull(pos, kw, names):
    if pos and kw:
        raise ValueError("mix of positional and keyword descriptor arguments")
    if pos:
        if len(pos) != len(names):
            raise ValueError(f"expected {len(names)} arguments {names}")
        return tuple(pos)
    try:
        return tuple(kw[name] for name in names)
    except KeyError as missing:
        raise ValueError(f"missing descriptor argument {missing}") from None
