import copy
import inspect
import pickle
from collections.abc import Iterator
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dethodge
from dethodge.matrixspace import (
    MatrixSpace,
    codim_stratum,
    dim_stratum,
    local_cohomology_degree,
)
from dethodge.characters import cauchy_check, tensor_decomposition_check
from dethodge.hodgeideals import (
    grF_Dp_layer,
    hodge_ideal_exponents,
    in_symbolic_power,
    minimal_generators,
    verify_equivalence,
)
from dethodge.mhmweights import (
    filtration_support_check,
    generation_level_Sdet,
    local_cohomology_weight,
    local_weight_ledger_check,
    square_start_levels_consistency,
    start_level,
    weight_ledger,
)
from dethodge.oracle import (
    RankConstrainedSampler,
    dcep_cross_validation_upto,
    ideal_power_hilbert,
    line_vanishing_order,
)
from dethodge.qseries import (
    DecompositionTable,
    LaurentPoly,
    closed_form_OYp,
    pushforward_DpY,
    solve_pushforward_OYp,
    stalk_poly,
)
from dethodge.reporting import VerificationReport
from dethodge.repsets import (
    WeightSet,
    classify,
    compose_weight,
    decompose_weight,
    lambda_of_p,
    lambda_p_mu,
    minimal_elements,
)
from dethodge.weights import delta_p


def test_space_validation():
    with pytest.raises(ValueError):
        MatrixSpace(2, 3)
    with pytest.raises(ValueError):
        MatrixSpace(1, 0)
    assert MatrixSpace(2, 2).is_square
    assert not MatrixSpace(3, 2).is_square


@pytest.mark.parametrize("m,n", [(2.5, 2), (2, 2.0), ("3", 2), (3, None)])
def test_space_refuses_sizes_that_are_not_ints(m, n):
    with pytest.raises(TypeError, match="m and n must be ints"):
        MatrixSpace(m, n)


def test_dim_stratum_examples():
    assert dim_stratum(MatrixSpace(3, 3), 3) == 9
    assert dim_stratum(MatrixSpace(3, 2), 1) == 4
    assert dim_stratum(MatrixSpace(5, 4), 0) == 0


def test_codim_stratum_examples():
    assert codim_stratum(MatrixSpace(3, 3), 2) == 1
    assert codim_stratum(MatrixSpace(4, 2), 0) == 8


def test_dim_plus_codim_exhausts_space():
    for m in range(1, 7):
        for n in range(1, m + 1):
            space = MatrixSpace(m, n)
            for p in range(n + 1):
                assert dim_stratum(space, p) + codim_stratum(space, p) == m * n


def test_local_cohomology_degree_examples():
    space = MatrixSpace(3, 2)
    assert local_cohomology_degree(space, 1) == 2
    assert local_cohomology_degree(space, 0) == 3
    with pytest.raises(ValueError, match="needs m > n"):
        local_cohomology_degree(MatrixSpace(2, 2), 0)
    with pytest.raises(ValueError, match="no local cohomology stratum for p=2"):
        local_cohomology_degree(space, 2)


def test_local_cohomology_degrees_strictly_decreasing():
    for n in range(1, 6):
        for m in range(n + 1, n + 5):
            space = MatrixSpace(m, n)
            degrees = [local_cohomology_degree(space, p) for p in range(n)]
            assert all(a > b for a, b in zip(degrees, degrees[1:]))
            assert len(set(degrees)) == len(degrees)


# Every public function that takes a stratum index and checks it with
# matrixspace._check_stratum: its name, the argument that carries the
# index, a space it is defined on, and the call. WeightSet and the
# predicates built on it check their own index, which may be None.
SQUARE, WIDE = MatrixSpace(3, 3), MatrixSpace(4, 2)
SAMPLER = RankConstrainedSampler(SQUARE, 0)
STRATUM_INDEX_TAKERS = [
    ("dim_stratum", "p", WIDE, lambda s, p: dim_stratum(s, p)),
    ("codim_stratum", "p", WIDE, lambda s, p: codim_stratum(s, p)),
    ("local_cohomology_degree", "p", WIDE, lambda s, p: local_cohomology_degree(s, p)),
    ("RankConstrainedSampler", "rank", WIDE, lambda s, p: RankConstrainedSampler(s, p)),
    ("delta_p", "p", WIDE, lambda s, p: delta_p(p, s)),
    ("lambda_of_p", "p", WIDE, lambda s, p: lambda_of_p((0, -2), p, s)),
    ("lambda_p_mu", "p", WIDE, lambda s, p: lambda_p_mu(p, (), s)),
    ("compose_weight", "p", WIDE, lambda s, p: compose_weight((), (), p, s)),
    ("minimal_elements", "p", WIDE, lambda s, p: minimal_elements(p, 0, s)),
    ("decompose_weight", "p", WIDE, lambda s, p: decompose_weight((0, -2), p, s)),
    ("start_level", "p", WIDE, lambda s, p: start_level(s, p, 0)),
    ("local_cohomology_weight", "p", WIDE, lambda s, p: local_cohomology_weight(s, p)),
    ("stalk_poly", "i", WIDE, lambda s, p: stalk_poly(p, 0, s)),
    ("DecompositionTable", "p", WIDE, lambda s, p: DecompositionTable(s, p, {})),
    ("solve_pushforward_OYp", "p", WIDE, lambda s, p: solve_pushforward_OYp(s, p)),
    ("closed_form_OYp", "p", WIDE, lambda s, p: closed_form_OYp(s, p)),
    ("pushforward_DpY", "p", WIDE, lambda s, p: pushforward_DpY(s, p)),
    ("grF_Dp_layer", "p", WIDE, lambda s, p: grF_Dp_layer(p, 1, 0, s)),
    ("tensor_decomposition_check", "p", SQUARE,
     lambda s, p: tensor_decomposition_check((), p, (), s)),
]
TAKER_IDS = [row[0] for row in STRATUM_INDEX_TAKERS]


@pytest.mark.parametrize("name,arg,space,call", STRATUM_INDEX_TAKERS, ids=TAKER_IDS)
@pytest.mark.parametrize("p", [True, False, 1.0, 1.5, None, "1"], ids=repr)
def test_stratum_index_takers_refuse_an_index_that_is_not_an_int(name, arg, space, call, p):
    with pytest.raises(TypeError, match=f"^{arg} must be an int, got {p!r}"):
        call(space, p)


@pytest.mark.parametrize("name,arg,space,call", STRATUM_INDEX_TAKERS, ids=TAKER_IDS)
def test_stratum_index_takers_refuse_an_index_out_of_range(name, arg, space, call):
    n = space.n
    for p in (-1, n + 1):
        with pytest.raises(ValueError, match=rf"^stratum index {arg}={p} outside 0\.\.{n}$"):
            call(space, p)


@pytest.mark.parametrize("name,arg,space,call", STRATUM_INDEX_TAKERS, ids=TAKER_IDS)
def test_stratum_index_takers_refuse_a_space_that_is_not_a_matrix_space(name, arg, space, call):
    for other in ("x", (4, 2)):
        with pytest.raises(TypeError, match="^space must be a MatrixSpace"):
            call(other, 1)


ONE = LaurentPoly({0: 1})


# The value types, each with its fields in order and the repr they have
# had as dataclasses.
VALUES = [
    (MatrixSpace, {"m": 3, "n": 2}, "MatrixSpace(m=3, n=2)"),
    (
        WeightSet,
        {"space": MatrixSpace(2, 2), "kind": "HodgeIdeal", "p": None, "param": 2},
        "WeightSet(space=MatrixSpace(m=2, n=2), kind='HodgeIdeal', p=None, param=2)",
    ),
    (
        DecompositionTable,
        {"space": MatrixSpace(3, 2), "p": 1, "entries": {0: LaurentPoly({-1: 2}), 1: ONE}},
        "DecompositionTable(space=MatrixSpace(m=3, n=2), p=1,"
        " entries={0: LaurentPoly({-1: 2}), 1: LaurentPoly({0: 1})})",
    ),
    (
        VerificationReport,
        {"name": "x", "params": {"n": 2}, "checks": 4, "failures": [{"w": (1, 0)}],
         "seed": 7, "details": ["d"]},
        "VerificationReport(name='x', params={'n': 2}, checks=4, failures=[{'w': (1, 0)}],"
        " seed=7, details=['d'])",
    ),
]
FROZEN = [value for value in VALUES if value[0] is not VerificationReport]
UNHASHABLE = (DecompositionTable, VerificationReport)


@pytest.mark.parametrize("cls,fields,text", VALUES, ids=lambda v: getattr(v, "__name__", ""))
def test_value_types_read_and_compare_by_their_fields(cls, fields, text):
    a = cls(*copy.deepcopy(list(fields.values())))
    b = cls(**copy.deepcopy(fields))
    assert a == b and not a != b and a is not b
    assert repr(a) == repr(b) == text
    assert cls.__match_args__ == tuple(fields)
    assert [getattr(a, name) for name in fields] == list(fields.values())
    assert a != tuple(fields.values()) and tuple(fields.values()) != a
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a, b} == {a}
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is cls and clone == a and clone is not a
    match a:
        case cls(first):
            assert first == next(iter(fields.values()))


@pytest.mark.parametrize("cls,fields,text", FROZEN, ids=lambda v: getattr(v, "__name__", ""))
def test_frozen_value_types_refuse_assignment_and_deletion(cls, fields, text):
    value = cls(**fields)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


def test_value_types_differ_by_class_and_by_each_field():
    space = MatrixSpace(3, 2)
    assert MatrixSpace(3, 2) != MatrixSpace(3, 1) != MatrixSpace(2, 1)
    assert WeightSet(space, "Wp", 1) != MatrixSpace(3, 2)
    assert WeightSet(space, "Wp", 1) != WeightSet(space, "empty", 1)
    assert WeightSet(space, "Wpd", 1, 2) != WeightSet(space, "Wpd", 0, 2)
    assert WeightSet(space, "Wpd", 1, 2) != WeightSet(space, "Wpd", 1, 3)
    assert WeightSet(space, "Wp", 1) != WeightSet(MatrixSpace(2, 2), "Wp", 1)
    table = DecompositionTable(space, 1, {1: ONE})
    assert table != DecompositionTable(MatrixSpace(2, 2), 1, {1: ONE})
    assert table != DecompositionTable(space, 2, {1: ONE})
    assert table != DecompositionTable(space, 1, {0: ONE})
    assert table == DecompositionTable(space, 1, {0: LaurentPoly(), 1: ONE})
    fields = VALUES[-1][1]
    for name in fields:
        assert VerificationReport(**dict(fields, **{name: "other"})) != VerificationReport(**fields)


def test_verification_report_is_mutable_unhashable_and_owns_its_lists():
    a, b = VerificationReport("x", {}), VerificationReport("x", {})
    with pytest.raises(TypeError):
        hash(a)
    a.add_failure(weight=(1,))
    a.details.append("d")
    assert b.failures == [] and b.details == [] and a != b
    b.failures.append({"weight": (1,)})
    b.details.append("d")
    assert a == b
    b.checks = 3
    assert a != b
    deep = copy.deepcopy(a)
    assert deep.failures == a.failures and deep.failures is not a.failures


@pytest.mark.parametrize(
    "cls,args,field",
    [
        (MatrixSpace, (True, True), "m and n"),
        (MatrixSpace, (2, False), "m and n"),
        (verify_equivalence, (SQUARE, [0], 1.5), "bound"),
        (verify_equivalence, (SQUARE, [0], True), "bound"),
        (verify_equivalence, (SQUARE, [0], 2.0), "bound"),
        (WeightSet, (MatrixSpace(2, 2), "HodgeIdeal", None, 1.5), "param"),
        (WeightSet, (MatrixSpace(2, 2), "Wp", 1.0), "p"),
        (WeightSet, (MatrixSpace(2, 2), "Wpd", 1, True), "param"),
        (WeightSet, (MatrixSpace(2, 2), "Ukp", "1", 0), "p"),
        (DecompositionTable, (MatrixSpace(2, 2), 1.0, {}), "p"),
        (RankConstrainedSampler, (MatrixSpace(3, 3), 1, True), "bound"),
        (RankConstrainedSampler, (MatrixSpace(3, 3), 1, 1.5), "bound"),
        (ideal_power_hilbert, (MatrixSpace(2, 2), 1.5, 3), "k"),
        (ideal_power_hilbert, (MatrixSpace(2, 2), 1, 3.0), "dmax"),
        (lambda_p_mu, (1, (1.5,), SQUARE), "a part of mu"),
        (lambda_p_mu, (1, (True,), SQUARE), "a part of mu"),
        (compose_weight, ((1,), (1.5,), 1, SQUARE), "a part of gamma"),
        (compose_weight, ((1.0,), (), 1, SQUARE), "a part of mu"),
        (in_symbolic_power, ((1, 0, 0), 1, 2.5, SQUARE), "d"),
        (filtration_support_check, (SQUARE, 2, 3.5), "box"),
        (filtration_support_check, (SQUARE, 2.5, 3), "kmax"),
        (cauchy_check, (SQUARE, 1.0), "d"),
        (line_vanishing_order, ((1, 0, 0), SQUARE, 1, SAMPLER, 2.0), "trials"),
        (line_vanishing_order, ((1, 0, 0), SQUARE, 1, (SQUARE, 0)), "sampler"),
        (dcep_cross_validation_upto, (SQUARE, [(1, 0, 0)], 1, True, SAMPLER), "dmax"),
        (DecompositionTable, (MatrixSpace(2, 2), 1, {0.5: ONE}), "summand index"),
        (DecompositionTable, (MatrixSpace(2, 2), 1, {True: ONE}), "summand index"),
        (DecompositionTable, (MatrixSpace(2, 2), 1, {"a": ONE, 0: ONE}), "summand index"),
        (DecompositionTable, (MatrixSpace(2, 2), 1, {0: 5}), "entry 0"),
        (DecompositionTable, (MatrixSpace(2, 2), 1, {0: 0}), "entry 0"),
        (DecompositionTable, (MatrixSpace(2, 2), 1, [(0, ONE)]), "entries"),
        (local_weight_ledger_check, (True,), "mmax"),
        (local_weight_ledger_check, ("3",), "mmax"),
        (grF_Dp_layer, (1, 2, True, SQUARE), "start"),
        (grF_Dp_layer, (1, 2.0, 0, SQUARE), "level"),
        (stalk_poly, (1, False, WIDE), "k"),
        (stalk_poly, (1, 0.0, WIDE), "k"),
    ],
)
def test_integer_fields_refuse_everything_but_ints(cls, args, field):
    with pytest.raises(TypeError, match=f"^{field} must be"):
        cls(*args)


@pytest.mark.parametrize(
    "cls,args",
    [
        (WeightSet, ("x", "Wp", 1)),
        (WeightSet, (None, "HodgeIdeal", None, 1)),
        (DecompositionTable, ((2, 2), 1, {})),
        # Functions that take a space but no stratum index.
        (weight_ledger, ("x",)),
        (minimal_generators, (2, "x")),
        (verify_equivalence, ("x", [1], 2)),
        (tensor_decomposition_check, ((), 1, (), "x")),
        (generation_level_Sdet, ("x",)),
        (ideal_power_hilbert, ((2, 2), 1, 3)),
        (cauchy_check, ("x", 2)),
        (hodge_ideal_exponents, (2, "x")),
        (in_symbolic_power, ((1, 0, 0), 1, 2, "x")),
        (classify, ((1, 0, 0), "x")),
        (square_start_levels_consistency, ("x",)),
        (filtration_support_check, ("x", 2, 3)),
        (line_vanishing_order, ((1, 0, 0), "x", 1, SAMPLER)),
        (dcep_cross_validation_upto, ("x", [(1, 0, 0)], 1, 1, SAMPLER)),
    ],
)
def test_space_fields_refuse_everything_but_a_matrix_space(cls, args):
    with pytest.raises(TypeError, match="^space must be a MatrixSpace"):
        cls(*args)


# Every public callable of the package.
PUBLIC = {
    name: getattr(dethodge, name)
    for name in dir(dethodge)
    if not name.startswith("_") and callable(getattr(dethodge, name))
}
# Small values of every kind a caller might pass by mistake: every int
# here is small enough for any call to end at once.
ARGUMENTS = st.one_of(
    st.integers(-2, 5),
    st.floats(-3, 6),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from([MatrixSpace(2, 2), MatrixSpace(3, 2)]),
    st.lists(st.integers(-2, 5), max_size=3).map(tuple),
    # Maps such as a table's entries or a polynomial's coefficients.
    st.dictionaries(
        st.one_of(st.integers(-2, 5), st.floats(-3, 6)),
        st.one_of(
            st.integers(-2, 5),
            st.sampled_from([ONE, LaurentPoly({-1: 2, 1: 1}), LaurentPoly({0: -1})]),
        ),
        max_size=3,
    ),
)


@settings(max_examples=500, deadline=2000)
@given(st.data())
def test_public_functions_return_or_refuse_what_they_are_given(data):
    # A call either returns or refuses its arguments with a TypeError or a
    # ValueError; an AttributeError, say, means a check is missing.
    function = PUBLIC[data.draw(st.sampled_from(sorted(PUBLIC)), label="function")]
    params = inspect.signature(function).parameters.values()
    least = sum(param.default is param.empty for param in params)
    count = data.draw(st.integers(least, len(params)), label="count")
    args = [data.draw(ARGUMENTS, label="argument") for _ in range(count)]
    try:
        result = function(*args)
        if isinstance(result, Iterator):
            list(islice(result, 50))
    except (TypeError, ValueError):
        pass


def test_range_errors_keep_their_messages():
    with pytest.raises(ValueError, match=r"need m >= n >= 1, got m=1, n=2"):
        MatrixSpace(1, 2)
    with pytest.raises(ValueError, match="the localization at the determinant needs a square space"):
        verify_equivalence(WIDE, [0], 1)
    with pytest.raises(ValueError, match="box bound must be nonnegative"):
        verify_equivalence(SQUARE, [0], -1)
    with pytest.raises(ValueError, match=r"stratum index p=3 outside 0..2"):
        WeightSet(MatrixSpace(2, 2), "Wp", 3)
    with pytest.raises(ValueError, match=r"stratum index p=3 outside 0..2"):
        DecompositionTable(MatrixSpace(2, 2), 3, {})
