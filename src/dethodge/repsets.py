"""Weight sets on matrix space, the home of every set of dominant weights
the library computes with.

Every GL-stable subquotient of the localization at the determinant, and
every GL-stable ideal of the polynomial ring, is pinned down by its set
of dominant weights. A ``WeightSet`` names one: a stratum support W^p, a
layer W^p_d, a filtration set U^p_k, the empty set, a symbolic power
J_p^(d), a Hodge ideal I_k or a Hodge filtration level F_k. One table,
``_SPECS``, holds what each kind takes, how its descriptor reads, its
membership core and its pieces; ``parse_weight_set`` reads the
descriptors back.

Each kind has one membership path: ``WeightSet`` checks its parameters
when built, ``WeightSet.contains`` checks the weight, and the kind's core
checks nothing. Each kind is also cut out by rows, bounds on single
entries and on tail sums lam_i + ... + lam_n: one piece of rows, or for
F_k the n+1 disjoint pieces U^p_k. ``WeightSet.members`` walks those rows
with ``weights._decreasing_runs``, optionally at one size or at the sizes
in a closed interval, and tests no member; ``characters.hilbert_series``
sums the same walk's runs. The public predicates are ``WeightSet``
calls:

* ``in_Wp``: the support W^p of the simple module of the rank-p stratum;
* ``in_Wpd``: its layer W^p_d cut out by the tail sum -d - c_p;
* ``in_Ukp``: the filtration sets U^p_k of the square case. They grow
  with k, so membership is a threshold: ``_Ukp_level`` is the least k
  with lam in U^p_k (infinite off W^p), and ``_Fk_level`` the least k
  with lam in F_k, the U^p_k level for the stratum p of lam;
* ``minimal_elements`` / ``lambda_p_mu``: the finitely many minimal
  members of a layer, indexed by partitions;
* ``decompose_weight``: head/tail coordinates of a weight relative to its
  stratum, inverse to building it from a minimal element.

The Hodge-ideal theory behind I_k and F_k lives in the hodgeideals module.
"""

from __future__ import annotations

import re
from itertools import accumulate
from math import comb, inf
from typing import Callable, NamedTuple

from .matrixspace import MatrixSpace, _check_int, _check_space, _check_stratum, _Record
from .weights import (
    _check_total,
    _decreasing_runs,
    _wp_member,
    check_weight,
    is_partition,
    partitions_of,
)


def in_Wp(lam, p: int, space: MatrixSpace) -> bool:
    """Membership in the rank-p stratum weight support: lam_p >= p-n and
    lam_{p+1} <= p-m, the first condition vacuous for p=0, the second for
    p=n."""
    return WeightSet(space, "Wp", p).contains(lam)


def classify(lam, space: MatrixSpace):
    """The stratum (or strata) whose weight set contains lam.

    For square spaces the supports partition the dominant weights and the
    unique index is returned as an int. For m > n there is no such
    statement, so the full (possibly empty) list of matching indices is
    returned instead.
    """
    _check_space(space)
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
    return WeightSet(space, "Wpd", p, d).contains(lam)


def _wpd_member(lam: tuple[int, ...], p: int, d: int, space: MatrixSpace) -> bool:
    """`in_Wpd` for a dominant lam of length n, p in 0..n and d >= 0."""
    # -d - c_p, with c_p = (m-p)(n-p) the codimension of the stratum
    return _wp_member(lam, p, space) and sum(lam[p:]) == -d - (space.m - p) * (space.n - p)


def in_Ukp(lam, p: int, k: int, space: MatrixSpace) -> bool:
    """Membership in U^p_k (square spaces only): lam_p >= p-n >= lam_{p+1}
    together with lam_{p+1} + ... + lam_n >= -comb(n-p+1, 2) - k."""
    return WeightSet(space, "Ukp", p, k).contains(lam)


def _Ukp_level(lam: tuple[int, ...], p: int, space: MatrixSpace) -> int | float:
    """The least k with lam in U^p_k, -(lam_{p+1} + ... + lam_n) -
    comb(n-p+1, 2), or inf when lam is not in W^p; for a square space,
    p in 0..n and a tuple already known to be dominant of length n."""
    if not _wp_member(lam, p, space):
        return inf
    return -sum(lam[p:]) - comb(space.n - p + 1, 2)


def _Fk_level(lam: tuple[int, ...], space: MatrixSpace) -> int:
    """The least k with lam in F_k, the U^p_k level for the stratum p of
    lam, read without a second W^p test; for a square space and a tuple
    already known to be dominant of length n."""
    p = _classify(lam, space)
    return -sum(lam[p:]) - comb(space.n - p + 1, 2)


def _in_symbolic_power(mu: tuple[int, ...], p: int, d: int) -> bool:
    """Membership of a partition mu in J_p^(d), for p in 1..n:
    mu_p + ... + mu_n >= d, with d <= 0 the unit ideal."""
    return d <= 0 or sum(mu[p - 1:]) >= d


def _hodge_ideal_level(mu: tuple[int, ...], n: int) -> int | float:
    """The largest k with the partition mu (of length n) in the k-th Hodge
    ideal, or inf when n = 1: the tail inequality of p < n reads
    (n-p)*(k-1) <= T_p + comb(n-p, 2), with T_p = mu_p + ... + mu_n, and
    holds exactly for k <= 1 + (T_p + comb(n-p, 2)) // (n-p). Its right
    side grows with k, so I_k shrinks as k grows and membership is the
    threshold k <= level; the p = n inequality always holds."""
    # T_p for p = n down to 1, paired with j = n - p.
    tails = enumerate(accumulate(reversed(mu)))
    return min((1 + (t + comb(j, 2)) // j for j, t in tails if j), default=inf)


def lambda_p_mu(p: int, mu, space: MatrixSpace) -> tuple[int, ...]:
    """The minimal element delta^p + mu^dual of the layer W^p_|mu|, for a
    partition mu with at most n-p parts:

        ((p-n)^p, p-m-mu_{n-p}, ..., p-m-mu_1)
    """
    _check_stratum(space, p)
    n, m = space.n, space.m
    mu = tuple(mu)
    for part in mu:
        _check_int("a part of mu", part)
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
    _check_stratum(space, p)
    return sorted(lambda_p_mu(p, mu, space) for mu in partitions_of(d, space.n - p))


def decompose_weight(lam, p: int, space: MatrixSpace):
    """Write lam in W^p as delta^p + mu^dual + gamma with mu a partition
    in at most n-p parts (tail coordinates) and gamma a partition in at
    most p parts (head coordinates). Returns (mu, gamma)."""
    _check_stratum(space, p)
    n, m = space.n, space.m
    lam = check_weight(lam, n)
    if not _wp_member(lam, p, space):
        raise ValueError(f"{lam} is not in the rank-{p} weight set of {space}")
    mu = tuple((p - m) - lam[n - i] for i in range(1, n - p + 1))
    gamma = tuple(lam[i] - (p - n) for i in range(p))
    if (mu and not is_partition(mu)) or (gamma and not is_partition(gamma)):
        raise RuntimeError(f"{lam} split into non-partitions mu={mu}, gamma={gamma}")
    return mu, gamma


def compose_weight(mu, gamma, p: int, space: MatrixSpace) -> tuple[int, ...]:
    """Inverse of decompose_weight: delta^p + mu^dual + (gamma padded),
    for a partition gamma with at most p parts."""
    base = lambda_p_mu(p, mu, space)
    gamma = tuple(gamma)
    for part in gamma:
        _check_int("a part of gamma", part)
    if len(gamma) > p or (gamma and not is_partition(gamma)):
        raise ValueError(f"need a partition gamma with at most {p} parts")
    gamma += (0,) * (p - len(gamma))
    return tuple(b + (gamma[i] if i < p else 0) for i, b in enumerate(base))


def _wp_piece(space: MatrixSpace, p: int, tail_lo=None, tail_hi=None) -> tuple:
    """The rows of W^p, lam_p >= p-n and lam_{p+1} <= p-m, with tail rows
    tail_lo <= lam_{p+1} + ... + lam_n <= tail_hi (p < n), as one piece of
    `weights._decreasing_runs`: rows (i, entry_lo, entry_hi, tail_lo,
    tail_hi) at 0-based positions i, None being no bound. The tail of
    p = n is empty, so a kind decides its rows there itself."""
    head = ((p - 1, p - space.n, None, None, None),) if p > 0 else ()
    if p == space.n:
        return head
    return (*head, (p, None, p - space.m, tail_lo, tail_hi))


def _ukp_pieces(space: MatrixSpace, p: int, k: int) -> list[tuple]:
    # W^p with lam_{p+1} + ... + lam_n >= -comb(n-p+1, 2) - k; at p = n
    # the tail is empty and that row reads 0 >= -1 - k.
    tail = -comb(space.n - p + 1, 2) - k
    if p == space.n:
        return [_wp_piece(space, p)] if tail <= 0 else []
    return [_wp_piece(space, p, tail)]


def _wpd_pieces(s) -> list[tuple]:
    # W^p with lam_{p+1} + ... + lam_n = -d - c_p; at p = n that reads
    # 0 = -d.
    space, p = s.space, s.p
    tail = -s.param - (space.m - p) * (space.n - p)
    if p == space.n:
        return [_wp_piece(space, p)] if tail == 0 else []
    return [_wp_piece(space, p, tail, tail)]


def _partition_piece(n: int, tail_lo: dict[int, int]) -> tuple:
    # lam_n >= 0, and lam_{i+1} + ... + lam_n >= tail_lo[i] (0-based i).
    rows = [(i, None, None, tail_lo.get(i), None) for i in range(n - 1) if i in tail_lo]
    return (*rows, (n - 1, 0, None, tail_lo.get(n - 1), None))


def _hodge_ideal_exponents(n: int, k: int) -> tuple[int, ...]:
    """The exponents (n-p)(k-1) - comb(n-p, 2), p = 1..n, of the symbolic
    powers cutting out the k-th Hodge ideal; the one of p = n is 0."""
    return tuple((n - p) * (k - 1) - comb(n - p, 2) for p in range(1, n + 1))


def _hodge_ideal_pieces(s) -> list[tuple]:
    # mu_p + ... + mu_n >= the exponent of p, for p = 1..n.
    n = s.space.n
    return [_partition_piece(n, dict(enumerate(_hodge_ideal_exponents(n, s.param))))]


class _Spec(NamedTuple):
    name: str  # descriptor name
    # Descriptor arguments in order, past m, n, p the parameter; no m: square spaces only.
    args: tuple[str, ...]
    p_min: int | None  # the stratum index runs over p_min..n; None: takes none
    param_min: float | None  # lower bound on the parameter; None: takes none
    partitions_only: bool
    keywords: bool  # descriptor written "Ik(n=2,k=3)" rather than "Wp(3,2,1)"
    core: Callable  # (lam, weight_set) -> bool, for a lam already checked
    pieces: Callable  # weight_set -> its disjoint pieces, rows as in _wp_piece


_SPECS = {
    "Wp": _Spec("Wp", ("m", "n", "p"), 0, None, False, False,
                lambda lam, s: _wp_member(lam, s.p, s.space),
                lambda s: [_wp_piece(s.space, s.p)]),
    "Wpd": _Spec("Wpd", ("m", "n", "p", "d"), 0, 0, False, False,
                 lambda lam, s: _wpd_member(lam, s.p, s.param, s.space),
                 _wpd_pieces),
    "Ukp": _Spec("Ukp", ("n", "p", "k"), 0, -inf, False, False,
                 lambda lam, s: s.param >= _Ukp_level(lam, s.p, s.space),
                 lambda s: _ukp_pieces(s.space, s.p, s.param)),
    "empty": _Spec("Empty", ("m", "n", "p"), 0, None, False, False,
                   lambda lam, s: False,
                   lambda s: []),
    "SymbolicPower": _Spec("Jpd", ("n", "p", "d"), 1, -inf, True, True,
                           lambda lam, s: _in_symbolic_power(lam, s.p, s.param),
                           lambda s: [_partition_piece(s.space.n, {s.p - 1: s.param})]),
    "HodgeIdeal": _Spec("Ik", ("n", "k"), None, 0, True, True,
                        lambda lam, s: s.param <= _hodge_ideal_level(lam, s.space.n),
                        _hodge_ideal_pieces),
    # F_k: the disjoint union of U^p_k over the strata p = 0..n.
    "FkSdet": _Spec("FkSdet", ("n", "k"), None, 0, False, True,
                    lambda lam, s: s.param >= _Fk_level(lam, s.space),
                    lambda s: [
                        piece for p in range(s.space.n + 1)
                        for piece in _ukp_pieces(s.space, p, s.param)
                    ]),
}
_KIND_NAMED = {spec.name: kind for kind, spec in _SPECS.items()}


class WeightSet(_Record):
    """A set of dominant weights on a matrix space, of one of the kinds in
    ``_SPECS``: W^p, a layer W^p_d, a filtration set U^p_k, the empty set,
    a symbolic power J_p^(d), a Hodge ideal I_k or a Hodge filtration level
    F_k. Supports membership tests and bounded enumeration."""

    __slots__ = __match_args__ = ("space", "kind", "p", "param")

    def __init__(
        self, space: MatrixSpace, kind: str, p: int | None = None, param: int | None = None
    ):
        _check_space(space)
        spec = _SPECS.get(kind)
        if spec is None:
            raise ValueError(f"unknown weight-set kind {kind!r}")
        if "m" not in spec.args and not space.is_square:
            raise ValueError(f"{spec.name} is defined on square matrix spaces")
        if p is not None:
            _check_int("p", p)
        if param is not None:
            _check_int("param", param)
        if spec.p_min is None:
            if p is not None:
                raise ValueError(f"{spec.name} takes no stratum index")
        elif p is None or not spec.p_min <= p <= space.n:
            raise ValueError(f"stratum index p={p} outside {spec.p_min}..{space.n}")
        if spec.param_min is None:
            if param is not None:
                raise ValueError(f"{spec.name} takes no parameter")
        elif param is None:
            raise ValueError(f"{spec.name} needs its parameter {spec.args[-1]}")
        elif param < spec.param_min:
            raise ValueError(f"{spec.name} needs {spec.args[-1]} >= {spec.param_min}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "param", param)

    @property
    def partitions_only(self) -> bool:
        return _SPECS[self.kind].partitions_only

    def contains(self, lam) -> bool:
        """Membership of a dominant weight of length n; a set of partitions
        refuses a weight with a negative entry."""
        lam = check_weight(lam, self.space.n)
        spec = _SPECS[self.kind]
        if spec.partitions_only and lam[-1] < 0:
            raise ValueError(f"{spec.name} lives in the polynomial ring; need a partition")
        return spec.core(lam, self)

    def _pieces(self) -> list[tuple]:
        """The set's disjoint pieces, each a tuple of rows (i, entry_lo,
        entry_hi, tail_lo, tail_hi) at entry positions i in 0..n-1:
        entry_lo <= lam_i <= entry_hi and tail_lo <= lam_i + ... +
        lam_{n-1} <= tail_hi, None being no bound. A dominant weight of
        length n is a member exactly when it satisfies every row of some
        piece."""
        return _SPECS[self.kind].pieces(self)

    def members(
        self, bound: int, total: int | tuple[int, int] | None = None
    ) -> list[tuple[int, ...]]:
        """All members with entries in [-bound, bound], lexicographic, and
        with `total` (an int, or a closed interval (t_lo, t_hi)) only those
        whose entries sum to it; a set of partitions enumerates only the
        partitions. Each piece is walked by its rows, with no membership
        test, and several pieces are merged."""
        walks = self._walks(bound, total)
        found = [
            head + (x,) for walk in walks for head, low, high in walk for x in range(low, high + 1)
        ]
        if len(walks) > 1:
            found.sort()
        return found

    def _walks(self, bound: int, total=None) -> list:
        """The members of `members` as one walk per piece, each yielding
        the runs (head, low, high) of `weights._decreasing_runs`; the
        arguments are checked here, before any walk starts."""
        _check_int("bound", bound)
        if bound < 0:
            raise ValueError("box bound must be nonnegative")
        total = _check_total(total)
        n = self.space.n
        return [_decreasing_runs(n, -bound, bound, piece, total) for piece in self._pieces()]

    def descriptor(self) -> str:
        spec = _SPECS[self.kind]
        fields = {"m": self.space.m, "n": self.space.n, "p": self.p}
        values = [(arg, fields.get(arg, self.param)) for arg in spec.args]
        body = ",".join(f"{arg}={v}" if spec.keywords else str(v) for arg, v in values)
        return f"{spec.name}({body})"


_DESCRIPTOR_RE = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$")


def _read_int(text: str) -> int:
    """An integer written as an optional sign and the digits 0-9, with
    spaces around it allowed: what int() reads in ASCII text without "_".
    int() alone would also read "1_0" and digits of other scripts."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_weight_set(text: str) -> WeightSet:
    """Read a descriptor such as "Wp(3,2,1)" or "Ik(n=2,k=3)", the inverse
    of ``WeightSet.descriptor``: a kind's name and every one of its
    arguments, either all positional in order or all as keywords in any
    order."""
    match = _DESCRIPTOR_RE.match(text)
    name, body = match.groups() if match else (None, "")
    if name not in _KIND_NAMED:
        raise ValueError(f"unknown or malformed set descriptor {text!r}")
    kind = _KIND_NAMED[name]
    args = _SPECS[kind].args
    pieces = [piece.partition("=") for piece in body.split(",")]
    if not any(sep for _, sep, _ in pieces):
        if len(pieces) != len(args):
            raise ValueError(f"{name} takes {len(args)} arguments ({','.join(args)})")
        pieces = [(arg, "=", value) for arg, (value, _, _) in zip(args, pieces)]
    values = {}
    for key, sep, value in pieces:
        key = key.strip()
        if not sep:
            raise ValueError(f"{name} mixes positional and keyword arguments")
        if key not in args or key in values:
            raise ValueError(f"{name} takes each of {','.join(args)} once, not {key!r}")
        try:
            values[key] = _read_int(value)
        except ValueError:
            raise ValueError(f"{name} needs an integer {key}, not {value.strip()!r}") from None
    missing = [arg for arg in args if arg not in values]
    if missing:
        raise ValueError(f"{name} is missing {','.join(missing)}")
    n = values.pop("n")
    space = MatrixSpace(values.pop("m", n), n)
    p = values.pop("p", None)
    # What is left is the parameter, if the kind takes one.
    return WeightSet(space, kind, p, values.popitem()[1] if values else None)
