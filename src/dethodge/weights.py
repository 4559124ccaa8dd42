"""Dominant integral weights for general linear groups, as plain int tuples.

A weight of length N is a weakly decreasing tuple of integers; a partition
is a dominant weight with nonnegative entries. Weights carry their length
explicitly: embedding a partition into more variables is an explicit `pad`,
never implicit. Display strips trailing zeros of partitions.

One odometer enumerates: `dominant_tuples` walks the weights of a box in
lexicographic order, optionally only those whose entries sum into a closed
interval of totals (an exact total d is the interval [d, d]), and every
prefix it builds has a completion, so no step is a dead end.
`partitions_of` is the same walk, downwards.
"""

from __future__ import annotations

import operator
from math import comb
from typing import Iterator

from .matrixspace import MatrixSpace, _check_int, _check_stratum, _Record


def is_dominant(entries) -> bool:
    """True iff the entries are weakly decreasing."""
    v = tuple(entries)
    if not v:
        raise ValueError("weights have length at least 1")
    return all(map(operator.ge, v, v[1:]))


def is_partition(entries) -> bool:
    v = tuple(entries)
    return is_dominant(v) and v[-1] >= 0


def check_weight(entries, length: int | None = None) -> tuple[int, ...]:
    """Validate dominance (and optionally the length), returning a tuple of
    ints. An entry is read with int(); a number it would change (2.7, 1/2)
    is refused, not truncated."""
    entries = tuple(entries)
    v = tuple(map(int, entries))
    if v != entries:
        inexact = [x for x, i in zip(entries, v) if i != x and not isinstance(x, str)]
        if inexact:
            raise ValueError(f"weight entries must be integers: {', '.join(map(repr, inexact))}")
    if length is not None and len(v) != length:
        raise ValueError(f"expected a weight of length {length}, got {v}")
    if not is_dominant(v):
        raise ValueError(f"{v} is not weakly decreasing")
    return v


def dual(lam) -> tuple[int, ...]:
    """Highest weight (-lam_N, ..., -lam_1) of the dual representation."""
    lam = check_weight(lam)
    return tuple(-x for x in reversed(lam))


def leq(mu, lam) -> bool:
    """Componentwise partial order: mu_i <= lam_i for all i."""
    mu, lam = tuple(mu), tuple(lam)
    if len(mu) != len(lam):
        raise ValueError("cannot compare weights of different lengths")
    return all(a <= b for a, b in zip(mu, lam))


def pad(lam, length: int) -> tuple[int, ...]:
    """Extend a partition by trailing zeros to the given length."""
    lam = tuple(lam)
    if length < len(lam):
        raise ValueError("pad cannot shorten a weight")
    if length > len(lam) and lam and lam[-1] < 0:
        raise ValueError(f"cannot pad {lam}: negative last entry")
    return lam + (0,) * (length - len(lam))


def strip_zeros(lam) -> tuple[int, ...]:
    """Display form of a partition: trailing zeros removed."""
    lam = tuple(lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


def _wp_member(lam, p: int, space: MatrixSpace) -> bool:
    # Core membership test for the rank-p stratum weight support: the head
    # must satisfy lam_p >= p-n (vacuous for p=0) and the tail
    # lam_{p+1} <= p-m (vacuous for p=n). Assumes lam dominant of length n.
    n = space.n
    if p > 0 and lam[p - 1] < p - n:
        return False
    if p < n and lam[p] > p - space.m:
        return False
    return True


def delta_p(p: int, space: MatrixSpace) -> tuple[int, ...]:
    """The distinguished weight ((p-n)^p, (p-m)^(n-p)) of the rank-p stratum."""
    _check_stratum(space, p)
    return ((p - space.n),) * p + ((p - space.m),) * (space.n - p)


def lambda_of_p(lam, p: int, space: MatrixSpace) -> tuple[int, ...]:
    """Embed a length-n weight of the rank-p support into length m:

        (lam_1, ..., lam_p, (p-n)^(m-n), lam_{p+1}+(m-n), ..., lam_n+(m-n))

    The result is dominant exactly when lam belongs to the rank-p weight
    set, which is required. For square spaces the map is the identity.
    """
    _check_stratum(space, p)
    lam = check_weight(lam, space.n)
    if not _wp_member(lam, p, space):
        raise ValueError(f"{lam} is not in the rank-{p} weight set of {space}")
    shift = space.m - space.n
    return lam[:p] + ((p - space.n),) * shift + tuple(x + shift for x in lam[p:])


class WeightBox(_Record):
    """Finite truncation of the dominant weights: all weakly decreasing
    integer tuples of a given length with entries in [-bound, bound].

    Iteration is lexicographic and duplicate-free; the total count is
    comb(2*bound + length, length).
    """

    __slots__ = __match_args__ = ("length", "bound")

    def __init__(self, length: int, bound: int):
        _check_int("length", length)
        _check_int("bound", bound)
        if length < 1:
            raise ValueError("box length must be at least 1")
        if bound < 0:
            raise ValueError("box bound must be nonnegative")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "bound", bound)

    @property
    def count(self) -> int:
        return comb(2 * self.bound + self.length, self.length)

    def __iter__(self):
        return dominant_tuples(self.length, -self.bound, self.bound)


def dominant_tuples(
    length: int, lo: int, hi: int, total: int | tuple[int, int] | None = None
) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing integer tuples of the given length with
    entries in [lo, hi], in lexicographic order; with `total`, only those
    whose entries sum to it. A total is an int d, or a closed interval
    (t_lo, t_hi) of sums, the int d being (d, d); an empty interval yields
    nothing. Length 0 yields the empty tuple (when the total is not given
    or holds 0).

    With a total no prefix is a dead end. Say `slots` entries are left,
    the previous entry is `cap`, and the entries left must sum into
    [rest_lo, rest_hi]. Those entries are at least lo and at most their
    first entry x, and they can sum to every integer from slots*lo to
    slots*x (raise one entry at a time). So x starts a completion exactly
    when x lies in [lo, cap], slots*x >= rest_lo and
    x + (slots-1)*lo <= rest_hi, that is, when

        max(lo, ceil(rest_lo/slots)) <= x <= min(cap, rest_hi - (slots-1)*lo),

    and every x of that range leaves [rest_lo - x, rest_hi - x] for the
    slots-1 entries after it, which again meets what they can sum to.
    """
    _check_int("length", length)
    _check_int("lo", lo)
    _check_int("hi", hi)
    if total is not None:
        if not isinstance(total, tuple):
            total = (total, total)
        if len(total) != 2:
            raise ValueError(f"total must be an int or a pair (t_lo, t_hi), got {total!r}")
        for end in total:
            _check_int("total", end)
    return _decreasing_tuples(length, lo, hi, total, descending=False)


def _decreasing_tuples(length, lo, hi, total, descending):
    # An odometer over the entries, without recursion, so the length is
    # not bounded by the interpreter's recursion limit. Each entry runs
    # over its range (see dominant_tuples) upwards, or downwards when
    # descending; after the rightmost entry that can still move does, the
    # entries right of it restart at the start of their ranges. With a
    # total (t_lo, t_hi), `rest` is what entries j.. must at least sum
    # to, and they may sum to up to `width` = t_hi - t_lo more.
    if length < 0:
        raise ValueError(f"tuple length {length} is negative")
    if total is not None and total[0] > total[1]:
        return
    if length == 0:
        if total is None or total[0] <= 0 <= total[1]:
            yield ()
        return
    values = [0] * length
    ends = [0] * length  # the last value of each entry's range
    rests = [0] * length  # with a total: what entries j.. must at least sum to
    if total is not None:
        rest, t_hi = total
        width = t_hi - rest
    step = -1 if descending else 1
    j, cap = 0, hi
    while True:
        while j < length:
            if total is None:
                low, high = lo, cap
            else:
                slots = length - j
                low = max(lo, -(-rest // slots))
                high = min(cap, rest + width - (slots - 1) * lo)
                rests[j] = rest
            if low > high:
                return  # only at j == 0: no later entry is a dead end
            if descending:
                values[j] = cap = high
                ends[j] = low
            else:
                values[j] = cap = low
                ends[j] = high
            if total is not None:
                rest -= cap
            j += 1
        yield tuple(values)
        j = length - 1
        while values[j] == ends[j]:
            j -= 1
            if j < 0:
                return
        values[j] = cap = values[j] + step
        if total is not None:
            rest = rests[j] - cap
        j += 1


def partitions_of(size: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of `size` into at most `parts` parts, as zero-padded
    tuples of length `parts`, in decreasing lexicographic order: the
    dominant tuples with entries in [0, size] summing to `size`, in
    reverse order."""
    _check_int("size", size)
    _check_int("parts", parts)
    return _decreasing_tuples(parts, 0, size, (size, size), descending=True)
