"""Dominant integral weights for general linear groups, as plain int tuples.

A weight of length N is a weakly decreasing tuple of integers; a partition
is a dominant weight with nonnegative entries. Weights carry their length
explicitly: embedding a partition into more variables is an explicit `pad`,
never implicit. Display strips trailing zeros of partitions.

One odometer enumerates, `_decreasing_runs`: the weights of a box that
satisfy a piece's rows, bounds on single entries and on tail sums
lam_i + ... + lam_n, optionally only those whose entries sum into a
closed interval of totals (an exact total d is the interval [d, d]). It
turns each row into a bound on the entry being placed, so every prefix it
builds has a completion and no step is a dead end, and it yields runs of
the last entry: a head and the interval its last entry runs over.
`dominant_tuples` is the walk with no rows, the runs expanded in
lexicographic order, and `partitions_of` the same walk downwards. The
weight sets of `repsets` walk their own rows.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate
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
    or holds 0). The walk is `_decreasing_runs` with the total as its one
    tail row, so no prefix it builds is a dead end.
    """
    _check_int("length", length)
    _check_int("lo", lo)
    _check_int("hi", hi)
    return _decreasing_tuples(length, lo, hi, _check_total(total), descending=False)


def _check_total(total) -> tuple[int, int] | None:
    """A `total` argument as a closed interval of sums, or None."""
    if total is None:
        return None
    if not isinstance(total, tuple):
        total = (total, total)
    if len(total) != 2:
        raise ValueError(f"total must be an int or a pair (t_lo, t_hi), got {total!r}")
    for end in total:
        _check_int("total", end)
    return total


def _decreasing_tuples(length, lo, hi, total, descending):
    # The runs of _decreasing_runs, expanded as they are made: upwards, or
    # downwards when descending.
    if length < 0:
        raise ValueError(f"tuple length {length} is negative")
    if length == 0:
        return iter([()] if total is None or total[0] <= 0 <= total[1] else [])
    return _decreasing_runs(length, lo, hi, None, total, descending, expand=True)


@lru_cache(maxsize=1024)
def _plan(length, lo, hi, piece, total):
    """The tables `_decreasing_runs` walks one piece with, or None when the
    piece has no member with entries in [lo, hi]. See there. A plan
    depends on its arguments alone, so it is kept for the next walk that
    asks for it; the walks only read it."""
    n = length
    rows = piece or ()
    # A row outside the box empties the piece, found before any table of
    # length n is built: most pieces of F_k in a small box are empty.
    for i, entry_lo, entry_hi, tail_lo, tail_hi in rows:
        if not 0 <= i < n:
            raise ValueError(f"a row at position {i} is outside 0..{n - 1}")
        if (entry_lo is not None and entry_lo > hi or entry_hi is not None and entry_hi < lo
                or tail_lo is not None and tail_lo > (n - i) * hi
                or tail_hi is not None and tail_hi < (n - i) * lo):
            return None
    elo, ehi, lower = [lo] * n, [hi] * n, set()
    # The box's own tail bounds; position n is the empty tail.
    tlo = [(n - i) * lo for i in range(n + 1)]
    thi = [(n - i) * hi for i in range(n + 1)]
    for i, entry_lo, entry_hi, tail_lo, tail_hi in rows:
        if entry_lo is not None and entry_lo > elo[i]:
            elo[i] = entry_lo
        if entry_hi is not None and entry_hi < ehi[i]:
            ehi[i] = entry_hi
        if tail_lo is not None and tail_lo > tlo[i]:
            tlo[i] = tail_lo
            lower.add(i)
        if tail_hi is not None and tail_hi < thi[i]:
            thi[i] = tail_hi
    ehi = list(accumulate(ehi, min))
    if total is not None:
        tlo[0], thi[0] = max(tlo[0], total[0]), min(thi[0], total[1])
        lower.add(0)
    first_row = min(lower, default=n)
    # From position n down: top[i] and least[i], the most and the least
    # entries i.. can sum to, and elo[i] raised by the tail rows. kinks
    # holds, right of i, where ehi drops or a tail_hi binds, and n: the
    # only t whose line (t-i)*x + top[t] can be the least one.
    top = [0] * (n + 1)
    least = [0] * (n + 1)
    lines = [()] * n
    kinks = [n]
    # floor is elo[i+1], entries is elo[i+1] + ... + elo[n-1], and excess
    # the most that a tail row right of i asks beyond those entries.
    floor, entries, excess = lo, 0, 0
    for i in range(n - 1, -1, -1):
        top[i] = most = min(thi[i], ehi[i] + top[i + 1])
        low = elo[i] if elo[i] > floor else floor
        if i >= first_row:
            lines[i] = tuple((t - i, top[t]) for t in kinks)
            if i in lower:
                for slope, most_t in lines[i]:
                    bound = -((most_t - tlo[i]) // slope)
                    if bound > low:
                        low = bound
        if low > ehi[i]:
            return None
        elo[i] = floor = low
        entries += low
        if i in lower and tlo[i] - entries > excess:
            excess = tlo[i] - entries
        least[i] = entries + excess
        if least[i] > most:
            return None
        if i and (ehi[i] < ehi[i - 1] or most < ehi[i] + top[i + 1]):
            kinks.insert(0, i)
    # The last entry's own bounds.
    last = (max(elo[-1], tlo[-2]), min(ehi[-1], thi[-2]))
    return elo, ehi, tlo, thi, least, lines, last


def _decreasing_runs(
    length, lo, hi, piece=None, total=None, descending=False, dead_ends=None, expand=False
):
    """The weakly decreasing tuples of a positive length n with entries in
    [lo, hi] that satisfy the rows of one piece and sum into `total`, as
    runs (head, low, high): the tuples head + (x,) for x = low..high. Heads
    come in lexicographic order, or in reverse when descending; with
    `expand`, the tuples themselves come, in the same order. `dead_ends`,
    a list, receives every prefix the walk builds that has no completion.

    A piece is a tuple of rows (i, entry_lo, entry_hi, tail_lo, tail_hi),
    at most one for each position i in 0..n-1: entry_lo <= lam_i <=
    entry_hi and tail_lo <= T_i <= tail_hi for the tail sum T_i = lam_i +
    ... + lam_{n-1}, None being no bound. The total is one more tail row,
    at position 0.

    The walk fills lam_0, lam_1, ... and carries [need_lo, need_hi], where
    T_j must lie: every tail row at or left of j, less the entries placed.
    `_plan` reads off the rows, once per walk,

    * ehi_j, the least entry upper bound at or left of j;
    * top_t, the most T_t can be, min(tail_hi_t, ehi_t + top_{t+1});
    * elo_j, the greatest entry lower bound at or right of j, raised to
      ceil((tail_lo_j - top_t) / (t - j)) for t > j, since lam_j..lam_{t-1}
      are at most lam_j;
    * least_t, the least T_t can be: elo_t + ... + elo_{n-1}, plus the most
      that a tail_lo at or right of t asks beyond those entries.

    With the previous entry cap, lam_j = x can start a completion only if

        max(elo_j, max_t ceil((need_lo - top_t) / (t - j)))
            <= x <= min(cap, ehi_j, need_hi - least_{j+1}),

    t running over n and the positions where ehi drops or a tail_hi binds:
    the line (t-j)*x + top_t of any other t > j lies above one of theirs.
    Every bound is necessary, so the walk misses no member, and at the
    last position the range is exactly the members'. It leaves no
    dead-end prefix when the range is also sufficient: when the highest
    completion after x, each later entry min(x, ehi_i), meets need_lo and
    every lower tail row, the lowest meets need_hi, and the sums between
    are reached by raising one entry at a time. That holds for a total in
    a box, the entries after x being any decreasing tuple in [lo, x], and
    for lower tail rows with entry bounds, the rows of I_k, J_p^(d), W^p,
    U^p_k and the pieces of F_k: moving a unit from an entry to a later
    one keeps every lower tail row, so a least completion flattens until
    its first entry is at most x. W^p_d's equality sits where W^p splits the entries, the head at
    least p-n and the tail at most p-m, so head and tail are walks of a
    box with a total. The tests count the dead ends of every kind and of
    random pieces: none.
    """
    plan = _plan(length, lo, hi, piece, total)
    if plan is None:
        return
    # The last entry's run is what its own bounds, the entry before it, y,
    # and need_lo, need_hi there leave: need_lo - y <= x <= need_hi - y,
    # x <= y.
    elo, ehi, tlo, thi, least, lines, (last_lo, last_hi) = plan
    if length == 1:
        if last_lo <= last_hi:
            if not expand:
                yield (), last_lo, last_hi
            elif descending:
                yield from zip(range(last_hi, last_lo - 1, -1))
            else:
                yield from zip(range(last_lo, last_hi + 1))
        return
    # An odometer over the stem, the entries before the last two, without
    # recursion, so the length is not bounded by the interpreter's
    # recursion limit. Each entry runs over its range upwards, or
    # downwards when descending; after the rightmost entry that can still
    # move does, the entries right of it restart at the start of their
    # ranges. need_lo[j] and need_hi[j] hold [need_lo, need_hi] of entry
    # j, rest_lo and rest_hi those of the entry being placed.
    pen, last = length - 2, length - 1
    step = -1 if descending else 1
    values = [0] * length  # the stem, then y and x when expanding
    ends = [0] * pen  # the last value of each stem entry's range
    need_lo = [0] * pen
    need_hi = [0] * pen
    j, cap, rest_lo, rest_hi = 0, ehi[0], tlo[0], thi[0]
    while True:
        low = elo[j]
        for slope, most in lines[j]:
            x = -((most - rest_lo) // slope)
            if x > low:
                low = x
        high = rest_hi - least[j + 1]
        if high > cap:
            high = cap
        if high > ehi[j]:
            high = ehi[j]
        if low > high:
            if j and dead_ends is not None:
                dead_ends.append(tuple(values[:j]))
        elif j < pen:
            need_lo[j], need_hi[j] = rest_lo, rest_hi
            if descending:
                values[j] = cap = high
                ends[j] = low
            else:
                values[j] = cap = low
                ends[j] = high
            rest_lo -= cap
            if rest_lo < tlo[j + 1]:
                rest_lo = tlo[j + 1]
            rest_hi -= cap
            if rest_hi > thi[j + 1]:
                rest_hi = thi[j + 1]
            j += 1
            continue
        else:
            # The entry before the last runs over [low, high]; for each y
            # there the last entry runs over what the rows and y leave. In
            # a box walk upwards they leave [last_lo, y] for every y.
            if expand and not descending and rest_lo - low <= last_lo and (
                high <= last_hi and high + high <= rest_hi
            ):
                for values[pen] in range(low, high + 1):
                    for values[last] in range(last_lo, values[pen] + 1):
                        yield tuple(values)
            else:
                stem = tuple(values[:pen])
                for y in range(high, low - 1, -1) if descending else range(low, high + 1):
                    first = rest_lo - y
                    if first < last_lo:
                        first = last_lo
                    final = rest_hi - y
                    if final > y:
                        final = y
                    if final > last_hi:
                        final = last_hi
                    if first > final:
                        if dead_ends is not None:
                            dead_ends.append(stem + (y,))
                    elif not expand:
                        yield stem + (y,), first, final
                    else:
                        values[pen] = y
                        for values[last] in (
                            range(final, first - 1, -1) if descending else range(first, final + 1)
                        ):
                            yield tuple(values)
        j -= 1
        while j >= 0 and values[j] == ends[j]:
            j -= 1
        if j < 0:
            return
        values[j] = cap = values[j] + step
        rest_lo = need_lo[j] - cap
        if rest_lo < tlo[j + 1]:
            rest_lo = tlo[j + 1]
        rest_hi = need_hi[j] - cap
        if rest_hi > thi[j + 1]:
            rest_hi = thi[j + 1]
        j += 1


def partitions_of(size: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of `size` into at most `parts` parts, as zero-padded
    tuples of length `parts`, in decreasing lexicographic order: the
    dominant tuples with entries in [0, size] summing to `size`, in
    reverse order."""
    _check_int("size", size)
    _check_int("parts", parts)
    return _decreasing_tuples(parts, 0, size, (size, size), descending=True)
