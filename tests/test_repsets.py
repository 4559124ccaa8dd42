from math import comb, inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dethodge.hodgeideals import grF_Dp_layer, in_Fk_Sdet
from dethodge.matrixspace import MatrixSpace, codim_stratum
from dethodge import repsets
from dethodge.repsets import (
    WeightSet,
    _Ukp_level,
    classify,
    compose_weight,
    decompose_weight,
    in_Ukp,
    in_Wp,
    in_Wpd,
    lambda_p_mu,
    minimal_elements,
    parse_weight_set,
)
from dethodge.weights import (
    WeightBox,
    _decreasing_runs,
    _wp_member,
    check_weight,
    delta_p,
    dominant_tuples,
    leq,
)


def test_in_Wp_examples():
    assert in_Wp((0, -1), 1, MatrixSpace(2, 2))
    assert in_Wp((3, 0), 2, MatrixSpace(2, 2))
    assert in_Wp((5, -2), 1, MatrixSpace(3, 2))
    with pytest.raises(ValueError):
        in_Wp((0, 0, 0), 1, MatrixSpace(2, 2))


def test_classify_square_examples():
    space = MatrixSpace(2, 2)
    assert classify((-2, -3), space) == 0
    assert classify((-1, -5), space) == 1
    assert classify((3, 0), space) == 2


def test_classify_square_partitions_the_box():
    for n in (2, 3, 4):
        space = MatrixSpace(n, n)
        for lam in WeightBox(n, 6):
            hits = [p for p in range(n + 1) if in_Wp(lam, p, space)]
            assert len(hits) == 1
            assert classify(lam, space) == hits[0]


def test_classify_rectangular_is_a_list():
    space = MatrixSpace(3, 2)
    assert classify((0, -1), space) == []
    assert classify((3, 0), space) == [2]
    assert classify((5, -2), space) == [1]


def test_classify_by_counting_matches_the_scan():
    # The scan over every stratum is the oracle for the counting in _classify.
    for n in range(1, 5):
        for m in range(n, n + 4):
            space = MatrixSpace(m, n)
            for lam in WeightBox(n, 7):
                hits = [p for p in range(n + 1) if _wp_member(lam, p, space)]
                assert classify(lam, space) == (hits[0] if m == n else hits), (space, lam)
                assert len(hits) <= 1


def test_in_Wpd_examples():
    space = MatrixSpace(3, 3)
    lam = (-2, -2, -4)
    assert in_Wpd(lam, 1, 2, space)
    for d in (0, 1, 3, 4):
        assert not in_Wpd(lam, 1, d, space)
    with pytest.raises(ValueError):
        in_Wpd(lam, 1, -1, space)


def test_delta_in_Wp0():
    for m in range(1, 6):
        for n in range(1, m + 1):
            space = MatrixSpace(m, n)
            for p in range(n + 1):
                assert in_Wpd(delta_p(p, space), p, 0, space)


def test_partition_tail_sum_lands_in_d0():
    space = MatrixSpace(3, 3)
    for lam in WeightBox(3, 3):
        if lam[-1] >= 0:
            assert in_Wpd(lam, 3, 0, space)


def test_in_Ukp_examples():
    space = MatrixSpace(2, 2)
    assert in_Ukp((0, -3), 1, 2, space)
    assert not in_Ukp((0, -4), 1, 2, space)
    with pytest.raises(ValueError):
        in_Ukp((0, -3), 1, 2, MatrixSpace(3, 2))


def test_in_Ukp_rank_one_interval():
    space = MatrixSpace(1, 1)
    for k in range(4):
        members0 = [x for x in range(-10, 5) if in_Ukp((x,), 0, k, space)]
        assert members0 == list(range(-1 - k, 0))
        members1 = [x for x in range(-10, 5) if in_Ukp((x,), 1, k, space)]
        assert members1 == list(range(0, 5))


def in_Ukp_by_definition(lam, p, k, n):
    return _wp_member(lam, p, MatrixSpace(n, n)) and sum(lam[p:]) >= -comb(n - p + 1, 2) - k


def test_Ukp_level_is_the_least_member_level():
    # Oracle: U^p_k term by term, at every level k in -12..6. The level
    # must be the least k with lam in U^p_k, and infinite exactly off W^p.
    for n in (1, 2, 3):
        space = MatrixSpace(n, n)
        for lam in WeightBox(n, 5):
            for p in range(n + 1):
                level = _Ukp_level(lam, p, space)
                assert (level == inf) == (not _wp_member(lam, p, space)), (lam, p)
                for k in range(-12, 7):
                    member = in_Ukp_by_definition(lam, p, k, n)
                    assert (k >= level) == member, (lam, p, k)
                    assert in_Ukp(lam, p, k, space) == member, (lam, p, k)
                if level != inf:
                    assert in_Ukp_by_definition(lam, p, level, n)
                    assert not in_Ukp_by_definition(lam, p, level - 1, n)


def test_Ukp_nested_and_inside_Wp():
    space = MatrixSpace(3, 3)
    for p in range(4):
        for k in range(5):
            for lam in WeightBox(3, 5):
                if in_Ukp(lam, p, k, space):
                    assert in_Wp(lam, p, space)
                    assert in_Ukp(lam, p, k + 1, space)


def test_Ukp_difference_is_a_layer():
    space = MatrixSpace(3, 3)
    for p in range(4):
        lowest = comb(3 - p, 2)
        for k in range(7):
            for lam in WeightBox(3, 6):
                diff = in_Ukp(lam, p, k, space) and not (
                    k > 0 and in_Ukp(lam, p, k - 1, space)
                )
                if k == 0:
                    diff = in_Ukp(lam, p, 0, space)
                if k < lowest:
                    expected = False
                else:
                    expected = in_Wpd(lam, p, k - lowest, space)
                assert diff == expected, (p, k, lam)


def test_module_interval_property_of_unions():
    # the union of the supports for p' >= p is the set lam_p >= p-n, and
    # that set is upward closed under the componentwise order
    space = MatrixSpace(3, 3)
    box = list(WeightBox(3, 4))
    for p in range(4):
        union = {
            lam for lam in box if any(in_Wp(lam, q, space) for q in range(p, 4))
        }
        simple = {lam for lam in box if p == 0 or lam[p - 1] >= p - 3}
        assert union == simple
        for lam in union:
            for mu in box:
                if leq(lam, mu):
                    assert mu in union


def test_lambda_p_mu_and_minimal_elements():
    space = MatrixSpace(3, 3)
    assert minimal_elements(1, 2, space) == [(-2, -3, -3), (-2, -2, -4)]
    assert minimal_elements(2, 0, space) == [delta_p(2, space)]
    assert minimal_elements(3, 2, space) == []
    assert lambda_p_mu(1, (2,), space) == (-2, -2, -4)


def test_minimal_elements_are_minimal_and_dominate():
    space = MatrixSpace(3, 3)
    for p in range(4):
        for d in range(5):
            mins = minimal_elements(p, d, space)
            assert len(set(mins)) == len(mins)
            for a in mins:
                assert in_Wpd(a, p, d, space)
                for b in mins:
                    if a != b:
                        assert not leq(a, b)
            for lam in WeightBox(3, 8):
                if in_Wpd(lam, p, d, space):
                    assert any(leq(mn, lam) for mn in mins)


def test_grF_layers():
    space = MatrixSpace(3, 3)
    assert grF_Dp_layer(1, 0, 1, space).kind == "empty"
    layer = grF_Dp_layer(1, 3, 1, space)
    assert layer.kind == "Wpd" and layer.param == 2
    at_start = grF_Dp_layer(1, 1, 1, space)
    assert at_start.param == 0


def test_decompose_weight_examples():
    space = MatrixSpace(3, 3)
    assert decompose_weight(delta_p(1, space), 1, space) == ((0, 0), (0,))
    mu, gamma = decompose_weight((0, -3, -4), 1, space)
    assert mu == (2, 1)
    assert gamma == (2,)
    assert compose_weight(mu, gamma, 1, space) == (0, -3, -4)
    with pytest.raises(ValueError):
        decompose_weight((0, 0, 0), 1, space)


def test_decompose_weight_round_trip():
    space = MatrixSpace(3, 3)
    for lam in WeightBox(3, 6):
        p = classify(lam, space)
        mu, gamma = decompose_weight(lam, p, space)
        assert compose_weight(mu, gamma, p, space) == lam


@st.composite
def weight_splits(draw):
    """A space with m >= n, a stratum p, and partitions mu (at most n-p
    parts) and gamma (at most p parts), padded or not."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, n + 3))
    p = draw(st.integers(0, n))
    mu = draw(st.lists(st.integers(0, 6), max_size=n - p).map(lambda v: sorted(v, reverse=True)))
    gamma = draw(st.lists(st.integers(0, 6), max_size=p).map(lambda v: sorted(v, reverse=True)))
    return MatrixSpace(m, n), p, tuple(mu), tuple(gamma)


@given(weight_splits())
def test_compose_then_decompose_is_the_identity(split):
    space, p, mu, gamma = split
    lam = compose_weight(mu, gamma, p, space)
    strata = classify(lam, space)  # an int on square spaces, else a list
    assert p in (strata if isinstance(strata, list) else [strata])
    padded = (mu + (0,) * (space.n - p - len(mu)), gamma + (0,) * (p - len(gamma)))
    assert decompose_weight(lam, p, space) == padded


def test_weight_set_membership_and_members():
    space = MatrixSpace(3, 3)
    wset = WeightSet(space, "Wpd", 1, 2)
    members = wset.members(4)
    assert (-2, -3, -3) in members
    assert all(in_Wpd(lam, 1, 2, space) for lam in members)
    empty = WeightSet(space, "empty", 1)
    assert not empty.contains((-2, -2, -2))
    assert empty.members(3) == []


def test_descriptor_round_trip():
    for text, kind in [
        ("Wp(3,2,1)", "Wp"),
        ("Wpd(3,3,1,2)", "Wpd"),
        ("Ukp(2,1,2)", "Ukp"),
        ("Ukp(n=2,p=1,k=2)", "Ukp"),
        ("Ukp(k=-3,n=2,p=0)", "Ukp"),
        ("Empty(3,3,1)", "empty"),
    ]:
        wset = parse_weight_set(text)
        assert wset.kind == kind
        assert parse_weight_set(wset.descriptor()) == wset
    assert parse_weight_set("Wpd(m=3,n=2,p=1,d=4)").descriptor() == "Wpd(3,2,1,4)"
    with pytest.raises(ValueError):
        parse_weight_set("Nope(1,2)")
    with pytest.raises(ValueError):
        parse_weight_set("Wp(1,2")


def test_weight_set_validation():
    space = MatrixSpace(3, 2)
    for p, kind, param in [
        (1, "Ukp", 2),  # U-sets need a square space
        (1, "Wpd", -1),
        (1, "Wpd", None),
        (3, "Wp", None),
        (-1, "empty", None),
        (None, "Wp", None),
        (1, "Wp", 3),
        (1, "empty", 0),
        (1, "Nope", None),
    ]:
        with pytest.raises(ValueError):
            WeightSet(space, kind, p, param)
    square = MatrixSpace(2, 2)
    assert WeightSet(square, "Ukp", 1, -5).param == -5
    with pytest.raises(ValueError):
        WeightSet(square, "Ukp", 1)


def test_layers_partition_the_support():
    space = MatrixSpace(4, 4)
    for lam in WeightBox(4, 4):
        for p in range(5):
            if not in_Wp(lam, p, space):
                continue
            c_p = codim_stratum(space, p)
            d = -sum(lam[p:]) - c_p
            assert d >= 0
            hits = [e for e in range(d + 3) if in_Wpd(lam, p, e, space)]
            assert hits == [d]


def test_decompose_weight_raises_on_a_non_partition_split(monkeypatch):
    monkeypatch.setattr(repsets, "_wp_member", lambda lam, p, space: True)
    with pytest.raises(RuntimeError):
        decompose_weight((0, 0), 0, MatrixSpace(2, 2))


@pytest.mark.parametrize(
    "lam,message",
    [
        ((0, 1), "(0, 1) is not weakly decreasing"),
        ((1, 0, 0), "expected a weight of length 2, got (1, 0, 0)"),
        ((), "expected a weight of length 2, got ()"),
    ],
)
def test_public_predicates_still_validate(lam, message):
    # The cores skip validation; the public names must not.
    space = MatrixSpace(2, 2)
    calls = [
        lambda: in_Wp(lam, 1, space),
        lambda: in_Wpd(lam, 1, 0, space),
        lambda: in_Ukp(lam, 1, 0, space),
        lambda: classify(lam, space),
        lambda: in_Fk_Sdet(lam, 0, space),
        lambda: check_weight(lam, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize(
    "call,p",
    [
        (lambda space: lambda_p_mu(-1, (), space), -1),
        (lambda space: compose_weight((), (), -1, space), -1),
        (lambda space: lambda_p_mu(5, (), space), 5),
        (lambda space: decompose_weight((0, -3), 5, space), 5),
        (lambda space: in_Wpd((0, -3), 3, 0, space), 3),
    ],
    ids=[
        "lambda_p_mu-below",
        "compose_weight-below",
        "lambda_p_mu-above",
        "decompose_weight-above",
        "in_Wpd-above",
    ],
)
def test_weight_layer_helpers_refuse_a_stratum_index_outside_0_to_n(call, p):
    # Unchecked, p = -1 built a weight of length 3 on a 2x2 space, and a
    # p above n read past the end of the weight.
    with pytest.raises(ValueError, match=rf"^stratum index p={p} outside 0\.\.2$"):
        call(MatrixSpace(2, 2))


def in_wp_by_rows(lam, p, m, n):
    """W^p by its two rows: lam_p >= p-n (for p > 0), lam_{p+1} <= p-m
    (for p < n)."""
    return (p == 0 or lam[p - 1] >= p - n) and (p == n or lam[p] <= p - m)


def member_by_inequalities(wset, lam):
    """Membership of lam straight from the defining inequalities of the
    set's kind, with T_q = lam_q + ... + lam_n."""
    m, n, p, x = wset.space.m, wset.space.n, wset.p, wset.param
    if wset.kind == "Wp":
        return in_wp_by_rows(lam, p, m, n)
    if wset.kind == "Wpd":
        return in_wp_by_rows(lam, p, m, n) and sum(lam[p:]) == -x - (m - p) * (n - p)
    if wset.kind == "Ukp":
        return in_wp_by_rows(lam, p, m, n) and sum(lam[p:]) >= -comb(n - p + 1, 2) - x
    if wset.kind == "empty":
        return False
    if wset.kind == "SymbolicPower":
        return sum(lam[p - 1:]) >= x
    if wset.kind == "HodgeIdeal":
        return all(
            sum(lam[q - 1:]) >= (n - q) * (x - 1) - comb(n - q, 2) for q in range(1, n + 1)
        )
    if wset.kind == "FkSdet":
        return any(
            in_wp_by_rows(lam, q, m, n) and sum(lam[q:]) >= -comb(n - q + 1, 2) - x
            for q in range(n + 1)
        )
    raise AssertionError(f"no reference for {wset.kind}")


def admitted_weight_sets(space):
    """Every weight set on the space of each kind, every stratum index in
    its range and every parameter in -2..4 that the kind admits."""
    for kind in repsets._SPECS:
        for p in (None, *range(-1, space.n + 2)):
            for param in (None, *range(-2, 5)):
                try:
                    yield WeightSet(space, kind, p, param)
                except ValueError:
                    pass


def test_every_kind_matches_its_inequalities_and_enumerates_its_members():
    # contains against the inequalities on every weight of the box, and
    # members, in total, per size and per interval of sizes, against the
    # slow oracle: the whole box walked and filtered by the inequalities.
    bound = 4
    sets = 0
    for n in range(1, 5):
        for space in (MatrixSpace(n, n), MatrixSpace(n + 1, n)):
            for wset in admitted_weight_sets(space):
                sets += 1
                lo = 0 if wset.partitions_only else -bound
                box = dominant_tuples(n, lo, bound)
                walk = [lam for lam in box if member_by_inequalities(wset, lam)]
                for lam in WeightBox(n, bound):
                    if lam[-1] < 0 and wset.partitions_only:
                        with pytest.raises(ValueError, match="need a partition"):
                            wset.contains(lam)
                    else:
                        expected = member_by_inequalities(wset, lam)
                        assert wset.contains(lam) == expected, (wset, lam)
                assert wset.members(bound) == walk, wset
                for d in range(-n * bound - 1, n * bound + 2):
                    by_size = [lam for lam in walk if sum(lam) == d]
                    assert wset.members(bound, total=d) == by_size, (wset, d)
                    in_interval = [lam for lam in walk if d <= sum(lam) <= d + n]
                    assert wset.members(bound, total=(d, d + n)) == in_interval, (wset, d)
    # Per n: the seven kinds on the square space, 21n + 24 sets, and W^p,
    # W^p_d and the empty set on the (n+1) x n space, 7(n+1) sets.
    assert sets == sum(21 * n + 24 + 7 * (n + 1) for n in range(1, 5))


@pytest.mark.parametrize(
    "bound,total,field",
    [(1.5, None, "bound"), (True, None, "bound"), (1, 1.5, "total"), (1, (0, 2.5), "total")],
)
def test_members_refuse_bounds_that_are_not_ints(bound, total, field):
    wset = WeightSet(MatrixSpace(2, 2), "Wp", 1)
    with pytest.raises(TypeError, match=f"^{field} must be an int"):
        wset.members(bound, total)


def satisfies_rows(piece, lam):
    """lam against one piece's rows (i, entry_lo, entry_hi, tail_lo,
    tail_hi), None being no bound."""
    for i, entry_lo, entry_hi, tail_lo, tail_hi in piece:
        tail = sum(lam[i:])
        if entry_lo is not None and lam[i] < entry_lo or entry_hi is not None and lam[i] > entry_hi:
            return False
        if tail_lo is not None and tail < tail_lo or tail_hi is not None and tail > tail_hi:
            return False
    return True


def test_every_kind_is_its_rows_and_its_pieces_are_disjoint():
    # The rows against the cores (through contains) on every weight of the
    # box: each weight satisfies at most one piece, and some piece exactly
    # when it is a member. A set of partitions refuses a negative weight,
    # which no piece of it admits.
    bound = 4
    for n in range(1, 5):
        for space in (MatrixSpace(n, n), MatrixSpace(n + 1, n)):
            for wset in admitted_weight_sets(space):
                pieces = wset._pieces()
                positions = [[row[0] for row in piece] for piece in pieces]
                assert all(sorted(set(at)) == at and set(at) <= set(range(n)) for at in positions)
                for lam in WeightBox(n, bound):
                    held = sum(satisfies_rows(piece, lam) for piece in pieces)
                    assert held <= 1, (wset, lam)
                    if lam[-1] < 0 and wset.partitions_only:
                        assert not held, (wset, lam)
                    else:
                        assert wset.contains(lam) == bool(held), (wset, lam)


def test_no_walk_of_a_piece_meets_a_dead_end():
    # Every prefix the walk builds has a completion, for every kind on the
    # test grid and every shape of total, and on the boxes and degree
    # intervals that hilbert walks: the range of each entry is exact.
    walks = 0
    cases = []
    for n in range(1, 5):
        for space in (MatrixSpace(n, n), MatrixSpace(n + 1, n)):
            totals = [None] + [
                shape for d in range(-n * 4 - 1, n * 4 + 2) for shape in ((d, d), (d, d + n))
            ]
            cases += [(wset, 4, totals) for wset in admitted_weight_sets(space)]
    for n in (5, 6):
        for wset in admitted_weight_sets(MatrixSpace(n, n)):
            cases.append((wset, 3, [None, (0, 3 * n), (2, 2), (-3, 0)]))
    for wset, bound, totals in cases:
        for piece in wset._pieces():
            for total in totals:
                dead_ends = []
                for _ in _decreasing_runs(wset.space.n, -bound, bound, piece, total,
                                          dead_ends=dead_ends):
                    pass
                walks += 1
                assert dead_ends == [], (wset, total, dead_ends[:3])
    assert walks > 10_000

