import re
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dethodge.hodgeideals import in_hodge_ideal
from dethodge.matrixspace import MatrixSpace
from dethodge.repsets import classify, in_Wp, lambda_of_p
from dethodge import weights
from dethodge.weights import (
    _decreasing_runs,
    check_weight,
    delta_p,
    dominant_tuples,
    dual,
    is_dominant,
    leq,
    pad,
    partitions_of,
    strip_zeros,
)


def test_is_dominant_examples():
    assert is_dominant((3, 1, 0))
    assert not is_dominant((0, 1))
    assert is_dominant((-2, -2, -4))


def test_is_dominant_rejects_empty():
    with pytest.raises(ValueError):
        is_dominant(())


def test_is_dominant_and_check_weight_accept_any_iterable():
    assert is_dominant(x for x in (2, 2, 1))
    assert is_dominant((5,))
    assert not is_dominant(iter([1, 2]))
    assert check_weight(iter(["3", 2.0, True])) == (3, 2, 1)
    with pytest.raises(ValueError, match="weights have length at least 1"):
        check_weight([])
    with pytest.raises(ValueError, match=r"^\(1, 2\) is not weakly decreasing$"):
        check_weight(["1", "2"])


@pytest.mark.parametrize("entries", [(2.7, 0.9), (1, 0.5), (Fraction(1, 2), 0), (Decimal("2.5"),)])
def test_check_weight_refuses_an_entry_int_would_change(entries):
    inexact = [x for x in entries if int(x) != x]
    with pytest.raises(ValueError, match="weight entries must be integers: " + re.escape(
        ", ".join(map(repr, inexact))
    )):
        check_weight(entries)


def test_non_integral_weights_reach_no_predicate():
    space = MatrixSpace(2, 2)
    with pytest.raises(ValueError, match="2.7, 0.9"):
        in_hodge_ideal((2.7, 0.9), 1, space)
    with pytest.raises(ValueError, match="1.5"):
        classify((1.5, 0), space)
    assert check_weight((Fraction(2), 1.0)) == (2, 1)


def test_dual_examples():
    assert dual((2, 0)) == (0, -2)
    assert dual((1, 1)) == (-1, -1)


def test_dual_involution_and_order_reversal():
    for bound in range(4):
        for n in (1, 2, 3):
            box = list(dominant_tuples(n, -bound, bound))
            for lam in box:
                assert dual(dual(lam)) == lam
                assert is_dominant(dual(lam))
            for mu in box:
                for lam in box:
                    assert leq(mu, lam) == leq(dual(lam), dual(mu))


def test_leq_examples():
    assert leq((0, -2), (1, -1))
    assert not leq((0, -2), (1, -3))
    with pytest.raises(ValueError):
        leq((1,), (1, 2))


def test_leq_reflexive():
    for lam in dominant_tuples(2, -2, 2):
        assert leq(lam, lam)


def test_delta_p_examples():
    assert delta_p(1, MatrixSpace(3, 3)) == (-2, -2, -2)
    assert delta_p(1, MatrixSpace(3, 2)) == (-1, -2)
    assert delta_p(2, MatrixSpace(2, 2)) == (0, 0)
    assert delta_p(4, MatrixSpace(4, 4)) == (0, 0, 0, 0)


def test_delta_p_lies_in_its_stratum_set():
    for m in range(1, 6):
        for n in range(1, m + 1):
            space = MatrixSpace(m, n)
            for p in range(n + 1):
                assert in_Wp(delta_p(p, space), p, space)


def test_lambda_of_p_examples():
    assert lambda_of_p((5, -2), 1, MatrixSpace(3, 2)) == (5, -1, -1)
    assert lambda_of_p((-3, -4), 0, MatrixSpace(3, 2)) == (-2, -2, -3)


def test_lambda_of_p_identity_on_square_spaces():
    space = MatrixSpace(3, 3)
    for lam in dominant_tuples(3, -3, 3):
        p = next(p for p in range(4) if in_Wp(lam, p, space))
        assert lambda_of_p(lam, p, space) == lam


def test_lambda_of_p_requires_stratum_membership():
    with pytest.raises(ValueError):
        lambda_of_p((0, 0), 1, MatrixSpace(3, 2))


def test_lambda_of_p_output_dominant():
    for m in range(1, 6):
        for n in range(1, min(m, 4) + 1):
            space = MatrixSpace(m, n)
            for lam in dominant_tuples(n, -4, 4):
                for p in range(n + 1):
                    if in_Wp(lam, p, space):
                        out = lambda_of_p(lam, p, space)
                        assert len(out) == m
                        assert is_dominant(out)


def test_weight_box_small():
    assert list(dominant_tuples(1, -1, 1)) == [(-1,), (0,), (1,)]
    assert list(dominant_tuples(2, -1, 1)) == [
        (-1, -1),
        (0, -1),
        (0, 0),
        (1, -1),
        (1, 0),
        (1, 1),
    ]


def test_weight_box_counts_and_order():
    for n in range(1, 5):
        for bound in range(6):
            members = list(dominant_tuples(n, -bound, bound))
            assert len(members) == comb(2 * bound + n, n)
            assert members == sorted(set(members))
            assert all(is_dominant(w) for w in members)
    assert len(list(dominant_tuples(3, -2, 2))) == 35


def test_pad_and_strip():
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    assert strip_zeros((2, 1, 0, 0)) == (2, 1)
    assert strip_zeros((0, 0)) == ()
    with pytest.raises(ValueError):
        pad((1, -1), 3)


def test_partitions_of():
    assert list(partitions_of(2, 2)) == [(2, 0), (1, 1)]
    assert list(partitions_of(4, 2)) == [(4, 0), (3, 1), (2, 2)]
    assert len(list(partitions_of(6, 3))) == 7
    assert list(partitions_of(0, 0)) == [()]
    assert list(partitions_of(3, 0)) == []


def test_dominant_tuples_degenerate():
    assert list(dominant_tuples(0, -3, 1)) == [()]
    assert list(dominant_tuples(2, 1, 0)) == []


def expand(runs, descending=False):
    """The tuples of the runs (head, low, high) of `_decreasing_runs`, in
    the walk's order."""
    return [
        head + (x,)
        for head, low, high in runs
        for x in (range(high, low - 1, -1) if descending else range(low, high + 1))
    ]


def walk_total(length, lo, hi, t_lo, t_hi):
    """The tuples of the box [lo, hi]^length whose entries sum into [t_lo,
    t_hi]: the walk of the one total row."""
    return expand(_decreasing_runs(length, lo, hi, ((0, None, None, t_lo, t_hi),)))


def test_a_total_row_walks_the_filtered_box():
    for length in range(1, 5):
        for bound in range(6):
            box = list(dominant_tuples(length, -bound, bound))
            for total in range(-length * bound - 1, length * bound + 2):
                expected = [lam for lam in box if sum(lam) == total]
                assert walk_total(length, -bound, bound, total, total) == expected
    assert walk_total(3, 0, 4, 5, 5) == sorted(lam for lam in partitions_of(5, 3) if lam[0] <= 4)
    assert walk_total(2, 1, 0, 1, 1) == []


def test_a_total_row_meets_a_row_at_position_0_in_their_intersection():
    # _plan intersects two rows at one position, the max of the lows and
    # the min of the highs: a total appended to a piece that already bounds
    # the whole sum walks the intersection of the two intervals.
    for length in range(1, 4):
        for a, b, c, d in product(range(-3, 3), repeat=4):
            rows = ((0, None, None, a, b), (0, None, None, c, d))
            got = expand(_decreasing_runs(length, -1, 1, rows))
            assert got == walk_total(length, -1, 1, max(a, c), min(b, d)), (length, rows)


def recursive_dominant_tuples(length, lo, hi, total=None):
    """The recursive enumeration that the odometer replaced, as an oracle."""
    if length == 0:
        if total in (None, 0):
            yield ()
        return

    def rec(prefix, cap, rest):
        if len(prefix) == length:
            yield prefix
            return
        if rest is None:
            for v in range(lo, cap + 1):
                yield from rec(prefix + (v,), v, None)
            return
        slots = length - len(prefix)
        for v in range(max(lo, -(-rest // slots)), min(cap, rest - (slots - 1) * lo) + 1):
            yield from rec(prefix + (v,), v, rest - v)

    if lo <= hi:
        yield from rec((), hi, total)


def recursive_partitions_of(size, parts):
    if size < 0:
        return
    if parts == 0:
        if size == 0:
            yield ()
        return

    def rec(remaining, slots, cap):
        if slots == 1:
            if remaining <= cap:
                yield (remaining,)
            return
        for a in range(min(cap, remaining), -(-remaining // slots) - 1, -1):
            for rest in rec(remaining - a, slots - 1, a):
                yield (a,) + rest

    yield from rec(size, parts, size)


def test_dominant_tuples_match_the_recursive_enumeration():
    for length in range(6):
        for lo in range(-3, 3):
            for hi in range(lo - 1, 4):
                expected = list(recursive_dominant_tuples(length, lo, hi))
                assert list(dominant_tuples(length, lo, hi)) == expected
                for total in range(length * lo - 1, length * hi + 2) if length else ():
                    expected = list(recursive_dominant_tuples(length, lo, hi, total))
                    assert walk_total(length, lo, hi, total, total) == expected


@given(
    length=st.integers(0, 5),
    lo=st.integers(-4, 6),
    hi=st.integers(-4, 6),
    # Sums from below the lowest reachable (-20) to above the highest (30);
    # a negative width is an empty interval.
    t_lo=st.integers(-23, 33),
    width=st.integers(-3, 12),
)
def test_a_total_interval_is_the_unconstrained_walk_filtered_by_total(length, lo, hi, t_lo, width):
    t_hi = t_lo + width
    if length:
        walk = list(dominant_tuples(length, lo, hi))
        expected = [lam for lam in walk if t_lo <= sum(lam) <= t_hi]
        assert walk_total(length, lo, hi, t_lo, t_hi) == expected
    size = max(hi, 0)
    assert list(partitions_of(size, length)) == list(recursive_partitions_of(size, length))


def test_partitions_of_match_the_recursive_enumeration():
    for size in range(-2, 13):
        for parts in range(7):
            assert list(partitions_of(size, parts)) == list(recursive_partitions_of(size, parts))


def test_enumerations_longer_than_the_recursion_limit():
    assert list(dominant_tuples(3000, 0, 0)) == [(0,) * 3000]
    assert walk_total(3000, -1, 0, -1, -1) == [(0,) * 2999 + (-1,)]
    assert list(partitions_of(1, 3000)) == [(1,) + (0,) * 2999]
    assert len(list(partitions_of(3, 3000))) == 3


def test_dominant_tuples_refuse_a_negative_length():
    with pytest.raises(ValueError, match="negative"):
        list(dominant_tuples(-1, 0, 1))


@pytest.mark.parametrize(
    "walk,args,field",
    [
        (dominant_tuples, (2, 0, 1.5), "hi"),
        (dominant_tuples, (2, 0, True), "hi"),
        (dominant_tuples, (2, -0.5, 1), "lo"),
        (dominant_tuples, (2, False, 1), "lo"),
        (dominant_tuples, (2.0, 0, 1), "length"),
        (dominant_tuples, (True, 0, 1), "length"),
        (partitions_of, (2.5, 2), "size"),
        (partitions_of, (2, 2.0), "parts"),
        (partitions_of, (True, 1), "size"),
    ],
)
def test_enumerations_refuse_bounds_that_are_not_ints(walk, args, field):
    # The call itself raises, before any generator is built: a float bound
    # would otherwise run the odometer past its end, or yield float entries.
    with pytest.raises(TypeError, match=f"^{field} must be an int"):
        walk(*args)


def satisfies_rows(piece, lam):
    for i, entry_lo, entry_hi, tail_lo, tail_hi in piece:
        tail = sum(lam[i:])
        if entry_lo is not None and lam[i] < entry_lo or entry_hi is not None and lam[i] > entry_hi:
            return False
        if tail_lo is not None and tail < tail_lo or tail_hi is not None and tail > tail_hi:
            return False
    return True


@st.composite
def pieces(draw):
    """A length, a box [lo, hi], one piece of rows and maybe a total, an
    interval of sums."""
    n = draw(st.integers(1, 5))
    lo = draw(st.integers(-4, 1))
    hi = draw(st.integers(lo - 1, 4))
    entry = st.none() | st.integers(-4, 4)
    piece = tuple(
        (i, draw(entry), draw(entry), draw(st.none() | st.integers(-4 * (n - i), 4 * (n - i))),
         draw(st.none() | st.integers(-4 * (n - i), 4 * (n - i))))
        for i in sorted(draw(st.sets(st.integers(0, n - 1))))
    )
    total = draw(st.none() | st.tuples(st.integers(-4 * n, 4 * n), st.integers(-1, 5)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ))
    return n, lo, hi, piece, total


@given(pieces(), st.booleans())
def test_runs_of_a_piece_are_the_filtered_box_and_meet_no_dead_end(case, descending):
    # The oracle is the recursive enumeration of the box, filtered by the
    # rows and the total. The walk takes the total as one more row, at
    # position 0, where the piece may have a row of its own.
    n, lo, hi, piece, total = case
    walked = piece if total is None else (*piece, (0, None, None, *total))
    dead_ends = []
    runs = list(_decreasing_runs(n, lo, hi, walked, descending, dead_ends=dead_ends))
    want = [
        lam for lam in recursive_dominant_tuples(n, lo, hi)
        if satisfies_rows(piece, lam) and (total is None or total[0] <= sum(lam) <= total[1])
    ]
    assert expand(runs, descending) == (want[::-1] if descending else want)
    assert all(low <= high for _, low, high in runs)
    assert dead_ends == []


def test_dead_ends_are_counted(monkeypatch):
    # The count is live: with the lines dropped, the bounds that the total
    # puts on an entry after the first, the walk of the total 9 in [0, 3]^3
    # tries (3, y) for every y, and only (3, 3) completes. The first entry
    # keeps its bound 3 from the plan.
    plan = weights._plan

    def without_lines(*args):
        elo, ehi, tlo, thi, least, lines, last = plan(*args)
        return elo, ehi, tlo, thi, least, [()] * len(lines), last

    monkeypatch.setattr(weights, "_plan", without_lines)
    dead_ends = []
    runs = list(_decreasing_runs(3, 0, 3, ((0, None, None, 9, 9),), dead_ends=dead_ends))
    assert runs == [((3, 3), 3, 3)]
    assert dead_ends == [(3, 0), (3, 1), (3, 2)]
