"""Hodge ideals of the determinant hypersurface, and the weight sets that
name GL-stable ideals and Hodge-graded pieces.

Two equivalent descriptions are implemented side by side for square
matrix spaces, and an exhaustive verifier confronts them over weight
boxes:

* ``in_hodge_ideal``: the k-th Hodge ideal as an intersection of symbolic
  powers of determinantal ideals, with exponent (n-p)(k-1) - comb(n-p, 2)
  at the rank p-1 locus;
* ``in_Fk_Sdet``: the level-k piece of the Hodge filtration on the
  localization of the coordinate ring at the determinant, a disjoint
  union of the filtration sets U^p_k, so a weight is a member exactly
  when k is at least its U^p_k level for its own stratum p;
* ``translate``: the change of frame mu -> mu - ((k+1)^n) between the two
  (twisting by the (k+1)-st power of the determinant);
* ``minimal_generators``: the minimal partitions of I_k, the highest
  weights of its minimal generators;
* ``verify_equivalence``: the exhaustive confrontation, walking each
  weight box once for all the levels k it checks and deciding each
  weight's filtration level (``repsets._Ukp_level``) once.

GL-stable ideals are identified with their sets of dominant weights, so
all ideal arithmetic here is predicate arithmetic on partitions. A
``WeightSet`` names one such set: a stratum support W^p, a layer W^p_d, a
filtration set U^p_k, the empty set, a symbolic power J_p^(d), a Hodge
ideal I_k or a filtration level F_k. One table, ``_SPECS``, holds what each
kind takes and how its descriptor reads; ``parse_weight_set`` reads the
descriptors back. The polynomial-level ground truth lives in the oracle
module.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import accumulate
from math import comb, inf
from typing import Callable, NamedTuple

from .matrixspace import MatrixSpace
from .reporting import VerificationReport
from .repsets import _classify, _Ukp_level, in_Ukp, in_Wp, in_Wpd
from .weights import WeightBox, check_weight, dominant_tuples


def in_symbolic_power(mu, p: int, d: int, space: MatrixSpace) -> bool:
    """Does the isotypic component of the partition mu lie in the d-th
    symbolic power of the ideal of p-minors (functions vanishing to order
    d along the rank p-1 locus)? True iff mu_p + ... + mu_n >= d, with
    d <= 0 denoting the unit ideal."""
    mu = check_weight(mu, space.n)
    if not 1 <= p <= space.n:
        raise ValueError(f"minor size p={p} outside 1..{space.n}")
    if mu[-1] < 0:
        raise ValueError("symbolic powers live in the polynomial ring; need a partition")
    return _in_symbolic_power(mu, p, d)


def _in_symbolic_power(mu: tuple[int, ...], p: int, d: int) -> bool:
    """`in_symbolic_power` for a partition mu and p already validated."""
    return d <= 0 or sum(mu[p - 1:]) >= d


def hodge_ideal_exponents(k: int, space: MatrixSpace) -> tuple[int, ...]:
    """The symbolic-power exponents ((n-p)*(k-1) - comb(n-p, 2)) for
    p = 1..n-1 cutting out the k-th Hodge ideal."""
    if k < 0:
        raise ValueError("Hodge ideals are indexed by k >= 0")
    n = space.n
    return tuple((n - p) * (k - 1) - comb(n - p, 2) for p in range(1, n))


def in_hodge_ideal(mu, k: int, space: MatrixSpace) -> bool:
    """Membership of a partition in the k-th Hodge ideal of the determinant
    hypersurface: mu_p + ... + mu_n >= (n-p)*(k-1) - comb(n-p, 2) for
    every p. The p = n term is a redundant no-op kept for clarity."""
    if k < 0:
        raise ValueError("Hodge ideals are indexed by k >= 0")
    if not space.is_square:
        raise ValueError("the determinant hypersurface needs a square space")
    n = space.n
    mu = check_weight(mu, n)
    if mu[-1] < 0:
        raise ValueError("Hodge ideals live in the polynomial ring; need a partition")
    return _in_hodge_ideal(mu, k, n)


def _in_hodge_ideal(mu: tuple[int, ...], k: int, n: int) -> bool:
    """`in_hodge_ideal` for a partition mu of length n and k >= 0 already
    validated; stops at the first tail inequality that fails."""
    for p in range(1, n + 1):
        if sum(mu[p - 1:]) < (n - p) * (k - 1) - comb(n - p, 2):
            return False
    return True


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
    if not space.is_square:
        raise ValueError("the determinant hypersurface needs a square space")
    n = space.n
    bounds = hodge_ideal_exponents(k, space) + (0,)
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
    if not space.is_square:
        raise ValueError("the localization at the determinant needs a square space")
    lam = check_weight(lam, space.n)
    return k >= _Ukp_level(lam, _classify(lam, space), space)


def translate(mu, k: int) -> tuple[int, ...]:
    """Shift mu -> mu - ((k+1)^n), the weight effect of dividing by the
    (k+1)-st power of the determinant."""
    return tuple(x - (k + 1) for x in mu)


def verify_equivalence(space: MatrixSpace, ks, bound: int) -> list[VerificationReport]:
    """Exhaustively confront the two descriptions of the Hodge filtration
    over a weight box, one report for each k in ks: the filtration
    predicate must agree with the tail inequality family

        lam_{s+1} + ... + lam_n >= -comb(n-s+1, 2) - k  for 0 <= s <= n-1,

    and on partitions the Hodge-ideal predicate must match the filtration
    predicate through the translate change of frame.

    The box is walked once for every k, and each weight is decided once
    on each side. Its filtration level, the least k with the weight in
    U^p_k for its own stratum p, comes from the U^p_k core after one
    classification. Its tail sums fold the family into one slack,
    min_s (lam_{s+1} + ... + lam_n + comb(n-s+1, 2)), so the family holds
    at level k exactly when k >= -slack. Both sides are thresholds in k,
    so where the level equals -slack they agree at every k, and only the
    other weights are compared level by level: the skip is exact. The
    partition side reads the level of translate(mu, k) from the walk,
    and classifies it on its own only when it lies outside the box,
    which needs k + 1 > bound. A negative k is refused before the walk.
    Each report lists its box failures first, then its partition
    failures."""
    if not space.is_square:
        raise ValueError("the localization at the determinant needs a square space")
    ks = tuple(ks)
    if any(k < 0 for k in ks):
        raise ValueError("Hodge ideals are indexed by k >= 0")
    n = space.n
    box = WeightBox(n, bound)
    reports = [
        VerificationReport(
            "hodge-filtration-equivalence", {"n": n, "k": k, "box": bound}, box.count
        )
        for k in ks
    ]
    # comb(n-s+1, 2) for s = n-1 down to 0, in step with the tail sums
    # accumulated from lam_n leftwards.
    offsets = [comb(n - s + 1, 2) for s in range(n - 1, -1, -1)]
    levels = {}
    for lam in box:
        level = levels[lam] = _Ukp_level(lam, _classify(lam, space), space)
        slack = min(map(operator.add, accumulate(reversed(lam)), offsets))
        if level == -slack:
            continue
        for k, report in zip(ks, reports):
            lhs, rhs = k >= level, slack >= -k
            if lhs != rhs:
                report.add_failure(weight=lam, filtration=lhs, inequalities=rhs)
    for mu in dominant_tuples(n, 0, bound):
        for k, report in zip(ks, reports):
            ideal = _in_hodge_ideal(mu, k, n)
            lam = translate(mu, k)
            level = levels.get(lam)
            if level is None:
                level = _Ukp_level(lam, _classify(lam, space), space)
            filt = k >= level
            report.checks += 1
            if ideal != filt:
                report.add_failure(partition=mu, ideal=ideal, filtration=filt)
    return reports


class _Spec(NamedTuple):
    name: str  # descriptor name
    args: tuple[str, ...]  # descriptor arguments in order; past m, n, p: the parameter
    square: bool  # defined on square spaces only
    p_min: int | None  # the stratum index runs over p_min..n; None: takes none
    param_min: float | None  # lower bound on the parameter; None: takes none
    partitions_only: bool
    keywords: bool  # descriptor written "Ik(n=2,k=3)" rather than "Wp(3,2,1)"
    contains: Callable  # (lam, weight_set) -> bool


# The membership lambdas look the predicates up when called, so a rebound
# predicate (a test's monkeypatch, a call-counting wrapper) takes effect.
_SPECS = {
    "Wp": _Spec("Wp", ("m", "n", "p"), False, 0, None, False, False,
                lambda lam, s: in_Wp(lam, s.p, s.space)),
    "Wpd": _Spec("Wpd", ("m", "n", "p", "d"), False, 0, 0, False, False,
                 lambda lam, s: in_Wpd(lam, s.p, s.param, s.space)),
    "Ukp": _Spec("Ukp", ("n", "p", "k"), True, 0, -inf, False, False,
                 lambda lam, s: in_Ukp(lam, s.p, s.param, s.space)),
    "empty": _Spec("Empty", ("m", "n", "p"), False, 0, None, False, False,
                   lambda lam, s: False),
    "SymbolicPower": _Spec("Jpd", ("n", "p", "d"), True, 1, -inf, True, True,
                           lambda lam, s: in_symbolic_power(lam, s.p, s.param, s.space)),
    "HodgeIdeal": _Spec("Ik", ("n", "k"), True, None, 0, True, True,
                        lambda lam, s: in_hodge_ideal(lam, s.param, s.space)),
    "FkSdet": _Spec("FkSdet", ("n", "k"), True, None, 0, False, True,
                    lambda lam, s: in_Fk_Sdet(lam, s.param, s.space)),
}
_KIND_NAMED = {spec.name: kind for kind, spec in _SPECS.items()}


@dataclass(frozen=True)
class WeightSet:
    """A set of dominant weights on a matrix space, of one of the kinds in
    ``_SPECS``: W^p, a layer W^p_d, a filtration set U^p_k, the empty set,
    a symbolic power J_p^(d), a Hodge ideal I_k or a Hodge filtration level
    F_k. Supports membership tests and bounded enumeration."""

    space: MatrixSpace
    kind: str
    p: int | None = None
    param: int | None = None

    def __post_init__(self):
        spec = _SPECS.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown weight-set kind {self.kind!r}")
        if spec.square and not self.space.is_square:
            raise ValueError(f"{spec.name} is defined on square matrix spaces")
        if spec.p_min is None:
            if self.p is not None:
                raise ValueError(f"{spec.name} takes no stratum index")
        elif self.p is None or not spec.p_min <= self.p <= self.space.n:
            raise ValueError(f"stratum index p={self.p} outside {spec.p_min}..{self.space.n}")
        if spec.param_min is None:
            if self.param is not None:
                raise ValueError(f"{spec.name} takes no parameter")
        elif self.param is None:
            raise ValueError(f"{spec.name} needs its parameter {spec.args[-1]}")
        elif self.param < spec.param_min:
            raise ValueError(f"{spec.name} needs {spec.args[-1]} >= {spec.param_min}")

    @property
    def partitions_only(self) -> bool:
        return _SPECS[self.kind].partitions_only

    def contains(self, lam) -> bool:
        return _SPECS[self.kind].contains(lam, self)

    def members(self, bound: int) -> list[tuple[int, ...]]:
        """All members with entries in [-bound, bound], lexicographic; a set
        of partitions enumerates only the partitions."""
        if bound < 0:
            raise ValueError("box bound must be nonnegative")
        lo = 0 if self.partitions_only else -bound
        return [lam for lam in dominant_tuples(self.space.n, lo, bound) if self.contains(lam)]

    def descriptor(self) -> str:
        spec = _SPECS[self.kind]
        fields = {"m": self.space.m, "n": self.space.n, "p": self.p}
        values = [(arg, fields.get(arg, self.param)) for arg in spec.args]
        body = ",".join(f"{arg}={v}" if spec.keywords else str(v) for arg, v in values)
        return f"{spec.name}({body})"


def grF_Dp_layer(p: int, level: int, start: int, space: MatrixSpace) -> WeightSet:
    """Weight support of the Hodge-graded piece of the rank-p simple module
    at the given filtration level, when the filtration starts at `start`:
    empty below the start, and the layer W^p_{level-start} from there on."""
    if level < start:
        return WeightSet(space, "empty", p)
    return WeightSet(space, "Wpd", p, level - start)


_DESCRIPTOR_RE = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$")


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
            values[key] = int(value)
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
