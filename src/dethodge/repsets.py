"""Weight sets on matrix space, the home of every set of dominant weights
the library computes with.

Every GL-stable subquotient of the localization at the determinant, and
every GL-stable ideal of the polynomial ring, is pinned down by its set
of dominant weights. A ``WeightSet`` names one: a stratum support W^p, a
layer W^p_d, a filtration set U^p_k, the empty set, a symbolic power
J_p^(d), a Hodge ideal I_k or a Hodge filtration level F_k. One table,
``_SPECS``, holds what each kind takes, how its descriptor reads and
its rows; ``parse_weight_set`` reads the descriptors back.

Each kind is defined once, by rows: bounds on single entries and on
tail sums lam_i + ... + lam_n, in one piece, or for F_k in the n+1
pieces U^p_k, disjoint by their W^p rows. The tail bounds are affine in
the kind's parameter, and one reader, ``_parameter_interval``, solves a
weight's rows for the interval of parameters at which it is a member:
``WeightSet.contains`` and every level read it. ``WeightSet.members``
walks the rows at the parameter with ``weights._decreasing_runs``, and
``characters.hilbert_series`` sums that walk's runs; neither tests a
member. The public predicates are ``WeightSet`` calls:

* ``in_Wp``: the support W^p of the simple module of the rank-p stratum,
  and ``classify``, the stratum whose W^p rows admit a weight;
* ``in_Wpd``: its layer W^p_d cut out by the tail sum -d - c_p;
* ``minimal_elements`` / ``lambda_p_mu``: the finitely many minimal
  members of a layer, indexed by partitions;
* ``decompose_weight`` and ``lambda_of_p``: head/tail coordinates of a
  weight relative to its stratum, and its embedding into length m.

The Hodge-ideal theory behind I_k and F_k lives in the hodgeideals module.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb, inf
from typing import Callable, NamedTuple

from .matrixspace import MatrixSpace, _check_int, _check_space, _check_stratum, _Record
from .weights import _decreasing_runs, check_weight, is_partition, partitions_of


def in_Wp(lam, p: int, space: MatrixSpace) -> bool:
    """Membership in the rank-p stratum weight support: lam_p >= p-n and
    lam_{p+1} <= p-m, the first condition vacuous for p=0, the second for
    p=n."""
    return WeightSet(space, "Wp", p).contains(lam)


def classify(lam, space: MatrixSpace):
    """The stratum (or strata) whose weight set contains lam.

    For square spaces the supports partition the dominant weights and the
    unique index is returned as an int. For m > n there is no such
    statement, and at most one index matches: the list of matching
    indices is returned instead."""
    _check_space(space)
    lam = check_weight(lam, space.n)
    for p in range(space.n + 1):
        # W^p takes no parameter: its interval is everything or empty.
        if _parameter_interval(_rows("Wp", space, p), lam)[0] < inf:
            return p if space.is_square else [p]
    return []


def in_Wpd(lam, p: int, d: int, space: MatrixSpace) -> bool:
    """Membership in the layer W^p_d: in W^p with tail sum
    lam_{p+1} + ... + lam_n equal to -d - c_p."""
    _check_int("d", d)
    return WeightSet(space, "Wpd", p, d).contains(lam)


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
    _check_int("d", d)
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
    if not in_Wp(lam, p, space):
        raise ValueError(f"{lam} is not in the rank-{p} weight set of {space}")
    mu = tuple((p - m) - lam[n - i] for i in range(1, n - p + 1))
    gamma = tuple(lam[i] - (p - n) for i in range(p))
    return mu, gamma


def lambda_of_p(lam, p: int, space: MatrixSpace) -> tuple[int, ...]:
    """Embed a length-n weight of the rank-p support into length m:

        (lam_1, ..., lam_p, (p-n)^(m-n), lam_{p+1}+(m-n), ..., lam_n+(m-n))

    The result is dominant exactly when lam belongs to the rank-p weight
    set, which is required. For square spaces the map is the identity.
    """
    _check_stratum(space, p)
    lam = check_weight(lam, space.n)
    if not in_Wp(lam, p, space):
        raise ValueError(f"{lam} is not in the rank-{p} weight set of {space}")
    shift = space.m - space.n
    return lam[:p] + ((p - space.n),) * shift + tuple(x + shift for x in lam[p:])


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
    """The rows of W^p, lam_p >= p-n and lam_{p+1} <= p-m, with the tail
    rows tail_lo <= lam_{p+1} + ... + lam_n <= tail_hi, as one piece:
    rows (i, entry_lo, entry_hi, tail_lo, tail_hi) at 0-based positions
    i in 0..n, None being no bound and a tail bound (const, slope) being
    const + slope*x in the kind's parameter x. A row at n bounds the
    empty tail of p = n."""
    head = ((p - 1, p - space.n, None, None, None),) if p > 0 else ()
    if p == space.n and tail_lo is None and tail_hi is None:
        return head
    return (*head, (p, None, p - space.m if p < space.n else None, tail_lo, tail_hi))


def _ukp_pieces(space: MatrixSpace, p: int) -> list[tuple]:
    # W^p with lam_{p+1} + ... + lam_n >= -comb(n-p+1, 2) - k.
    return [_wp_piece(space, p, (-comb(space.n - p + 1, 2), -1))]


def _wpd_pieces(space: MatrixSpace, p: int) -> list[tuple]:
    # W^p with lam_{p+1} + ... + lam_n = -d - c_p.
    tail = (-(space.m - p) * (space.n - p), -1)
    return [_wp_piece(space, p, tail, tail)]


def _partition_piece(n: int, tail_lo: dict) -> tuple:
    # lam_n >= 0, and lam_{i+1} + ... + lam_n >= tail_lo[i] (0-based i).
    rows = [(i, None, None, tail_lo.get(i), None) for i in range(n - 1) if i in tail_lo]
    return (*rows, (n - 1, 0, None, tail_lo.get(n - 1), None))


def _hodge_ideal_pieces(space: MatrixSpace, _) -> list[tuple]:
    # mu_q + ... + mu_n >= (n-q)(k-1) - comb(n-q, 2) = (n-q)k - comb(n-q+1, 2)
    # for q = 1..n, at 0-based position q-1.
    n = space.n
    return [_partition_piece(n, {q - 1: (-comb(n - q + 1, 2), n - q) for q in range(1, n + 1)})]


def _hodge_ideal_exponents(space: MatrixSpace, k: int) -> tuple[int, ...]:
    """The exponents (n-p)(k-1) - comb(n-p, 2), p = 1..n, of the symbolic
    powers cutting out the k-th Hodge ideal, read off I_k's rows at k; the
    one of p = n is 0."""
    [piece] = _rows("HodgeIdeal", space, None)
    return tuple(const + slope * k for _, _, _, (const, slope), _ in piece)


class _Spec(NamedTuple):
    name: str  # descriptor name
    # Descriptor arguments in order, past m, n, p the parameter; no m: square spaces only.
    args: tuple[str, ...]
    p_min: int | None  # the stratum index runs over p_min..n; None: takes none
    param_min: float | None  # lower bound on the parameter; None: takes none
    partitions_only: bool
    keywords: bool  # descriptor written "Ik(n=2,k=3)" rather than "Wp(3,2,1)"
    # (space, p) -> the kind's pieces of rows, tail bounds affine in the
    # parameter, as `_parameter_interval` reads them.
    pieces: Callable


_SPECS = {
    "Wp": _Spec("Wp", ("m", "n", "p"), 0, None, False, False,
                lambda space, p: [_wp_piece(space, p)]),
    "Wpd": _Spec("Wpd", ("m", "n", "p", "d"), 0, 0, False, False, _wpd_pieces),
    "Ukp": _Spec("Ukp", ("n", "p", "k"), 0, -inf, False, False, _ukp_pieces),
    "empty": _Spec("Empty", ("m", "n", "p"), 0, None, False, False,
                   lambda space, p: []),
    "SymbolicPower": _Spec("Jpd", ("n", "p", "d"), 1, -inf, True, True,
                           lambda space, p: [_partition_piece(space.n, {p - 1: (0, 1)})]),
    "HodgeIdeal": _Spec("Ik", ("n", "k"), None, 0, True, True, _hodge_ideal_pieces),
    # F_k: the disjoint union of U^p_k over the strata p = 0..n.
    "FkSdet": _Spec("FkSdet", ("n", "k"), None, 0, False, True,
                    lambda space, _: [
                        piece for p in range(space.n + 1) for piece in _ukp_pieces(space, p)
                    ]),
}
_KIND_NAMED = {spec.name: kind for kind, spec in _SPECS.items()}


def _rows(kind: str, space: MatrixSpace, p: int | None) -> tuple:
    """The pieces of rows of a kind on (space, p), as ``_SPECS`` states
    them, built once for each."""
    return _built_rows(_SPECS[kind].pieces, space.m, space.n, p)


@lru_cache(maxsize=1024)
def _built_rows(pieces: Callable, m: int, n: int, p: int | None) -> tuple:
    # Keyed by m and n, which hash faster than the space.
    return tuple(pieces(MatrixSpace(m, n), p))


def _parameter_interval(pieces, lam: tuple[int, ...]) -> tuple:
    """The closed interval (low, high) of parameters x at which lam, a
    dominant weight of length n, satisfies every row of some piece, the
    rows as in ``_SPECS``; (inf, -inf) when no piece admits lam. The
    parameter-free rows of several pieces are disjoint, so the first
    piece whose parameter-free rows admit lam decides."""
    for piece in pieces:
        low, high = -inf, inf
        for i, entry_lo, entry_hi, tail_lo, tail_hi in piece:
            if entry_lo is not None and lam[i] < entry_lo or (
                entry_hi is not None and lam[i] > entry_hi
            ):
                break
            # Each tail bound read as slope*x <= gap: a cap on x for a
            # positive slope, a floor for a negative one, and for slope 0
            # a row that holds or fails at every x.
            if tail_lo is not None:
                const, slope = tail_lo
                gap = sum(lam[i:]) - const
                if slope > 0:
                    if gap // slope < high:
                        high = gap // slope
                elif slope < 0:
                    if -(gap // -slope) > low:
                        low = -(gap // -slope)
                elif gap < 0:
                    break
            if tail_hi is not None:
                const, slope = tail_hi
                slope, gap = -slope, const - sum(lam[i:])
                if slope > 0:
                    if gap // slope < high:
                        high = gap // slope
                elif slope < 0:
                    if -(gap // -slope) > low:
                        low = -(gap // -slope)
                elif gap < 0:
                    break
        else:
            return low, high
    return inf, -inf


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
        low, high = _parameter_interval(_rows(self.kind, self.space, self.p), lam)
        return low <= high if self.param is None else low <= self.param <= high

    def _pieces(self) -> list[tuple]:
        """The set's disjoint pieces, its rows evaluated at its parameter:
        tuples of rows (i, entry_lo, entry_hi, tail_lo, tail_hi) at
        positions i in 0..n-1, entry_lo <= lam_i <= entry_hi and tail_lo
        <= lam_i + ... + lam_{n-1} <= tail_hi, None being no bound. A row
        at n, on the empty tail, keeps its piece if 0 meets its bounds."""
        n, x = self.space.n, self.param
        found = []
        for piece in _rows(self.kind, self.space, self.p):
            rows = [
                (i, entry_lo, entry_hi,
                 None if tail_lo is None else tail_lo[0] + tail_lo[1] * x,
                 None if tail_hi is None else tail_hi[0] + tail_hi[1] * x)
                for i, entry_lo, entry_hi, tail_lo, tail_hi in piece
            ]
            if rows and rows[-1][0] == n:
                _, _, _, tail_lo, tail_hi = rows.pop()
                if tail_lo is not None and tail_lo > 0 or tail_hi is not None and tail_hi < 0:
                    continue
            found.append(tuple(rows))
        return found

    def members(self, bound: int) -> list[tuple[int, ...]]:
        """All members with entries in [-bound, bound], lexicographic; a
        set of partitions enumerates only the partitions. Each piece is
        walked by its rows, with no membership test, and several pieces
        are merged."""
        walks = self._walks(bound)
        found = [
            head + (x,) for walk in walks for head, low, high in walk for x in range(low, high + 1)
        ]
        if len(walks) > 1:
            found.sort()
        return found

    def _walks(self, bound: int, totals: tuple[int, int] | None = None) -> list:
        """The members of `members` as one walk per piece, each yielding
        the runs (head, low, high) of `weights._decreasing_runs`; with
        `totals`, a closed interval (t_lo, t_hi), only those whose entries
        sum into it, the interval walked as one more row of each piece.
        The bound is checked here, before any walk starts."""
        _check_int("bound", bound)
        if bound < 0:
            raise ValueError("box bound must be nonnegative")
        pieces = self._pieces()
        if totals is not None:
            pieces = [(*piece, (0, None, None, *totals)) for piece in pieces]
        return [_decreasing_runs(self.space.n, -bound, bound, piece) for piece in pieces]

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
