"""Dominant integral weights for general linear groups, as plain int tuples.

A weight of length N is a weakly decreasing tuple of integers; a partition
is a dominant weight with nonnegative entries. Weights carry their length
explicitly: embedding a partition into more variables is an explicit `pad`,
never implicit. Display strips trailing zeros of partitions.

One odometer enumerates, `_decreasing_runs`: the weights of a box that
satisfy one piece of rows, bounds on single entries and on tail sums
lam_i + ... + lam_n. A closed interval of totals is one more tail row,
on the whole weight. It turns each row into a bound on the entry being
placed, so every prefix it builds has a completion and no step is a dead
end, and it yields only runs of the last entry: a head and the interval
its last entry runs over. `dominant_tuples` is the walk of the empty
piece, the box, its runs expanded upwards, and `partitions_of` the walk
of one total row, expanded downwards. The weight sets of `repsets` are
defined by their rows alone, and walk them.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

from .matrixspace import MatrixSpace, _check_int, _check_stratum


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
    _check_int("length", length)
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


def delta_p(p: int, space: MatrixSpace) -> tuple[int, ...]:
    """The distinguished weight ((p-n)^p, (p-m)^(n-p)) of the rank-p stratum."""
    _check_stratum(space, p)
    return ((p - space.n),) * p + ((p - space.m),) * (space.n - p)


def dominant_tuples(length: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing integer tuples of the given length with
    entries in [lo, hi], in lexicographic order: comb(hi - lo + length,
    length) of them when lo <= hi. Length 0 yields the empty tuple. The
    walk is `_decreasing_runs` of the empty piece, its runs expanded
    upwards."""
    _check_int("length", length)
    _check_int("lo", lo)
    _check_int("hi", hi)
    if length < 1:
        _check_length(length)
        return iter([()])
    runs = _decreasing_runs(length, lo, hi, ())
    return (head + (x,) for head, low, high in runs for x in range(low, high + 1))


def _check_length(length: int) -> None:
    if length < 0:
        raise ValueError(f"tuple length {length} is negative")


@lru_cache(maxsize=1024)
def _plan(length, lo, hi, piece):
    """The tables `_decreasing_runs` walks one piece with, or None when the
    piece has no member with entries in [lo, hi]. See there. A plan
    depends on its arguments alone, so it is kept for the next walk that
    asks for it; the walks only read it."""
    n = length
    # A row outside the box empties the piece, found before any table of
    # length n is built: most pieces of F_k in a small box are empty.
    for i, entry_lo, entry_hi, tail_lo, tail_hi in piece:
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
    for i, entry_lo, entry_hi, tail_lo, tail_hi in piece:
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


def _decreasing_runs(length, lo, hi, piece, descending=False, dead_ends=None):
    """The weakly decreasing tuples of a positive length n with entries in
    [lo, hi] that satisfy the rows of one piece, as runs (head, low, high):
    the tuples head + (x,) for x = low..high. Heads come in lexicographic
    order, or in reverse when descending. `dead_ends`, a list, receives
    every prefix the walk builds that has no completion.

    A piece is a tuple of rows (i, entry_lo, entry_hi, tail_lo, tail_hi)
    at positions i in 0..n-1: entry_lo <= lam_i <= entry_hi and tail_lo <=
    T_i <= tail_hi for the tail sum T_i = lam_i + ... + lam_{n-1}, None
    being no bound; rows at one position intersect. The empty piece is the
    box. A closed interval [t_lo, t_hi] of totals is the row (0, None,
    None, t_lo, t_hi), an exact total d the interval [d, d].

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
    plan = _plan(length, lo, hi, piece)
    if plan is None:
        return
    # The last entry's run is what its own bounds, the entry before it, y,
    # and need_lo, need_hi there leave: need_lo - y <= x <= need_hi - y,
    # x <= y.
    elo, ehi, tlo, thi, least, lines, (last_lo, last_hi) = plan
    if length == 1:
        if last_lo <= last_hi:
            yield (), last_lo, last_hi
        return
    # An odometer over the stem, the entries before the last two, without
    # recursion, so the length is not bounded by the interpreter's
    # recursion limit. Each entry runs over its range upwards, or
    # downwards when descending; after the rightmost entry that can still
    # move does, the entries right of it restart at the start of their
    # ranges. need_lo[j] and need_hi[j] hold [need_lo, need_hi] of entry
    # j, rest_lo and rest_hi those of the entry being placed.
    pen = length - 2
    step = -1 if descending else 1
    values = [0] * pen  # the stem
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
            # there the last entry runs over what the rows and y leave.
            stem = tuple(values)
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
                else:
                    yield stem + (y,), first, final
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
    if parts < 1:
        _check_length(parts)
        return iter([()] if size == 0 else [])
    runs = _decreasing_runs(parts, 0, size, ((0, None, None, size, size),), descending=True)
    return (head + (x,) for head, low, high in runs for x in range(high, low - 1, -1))
