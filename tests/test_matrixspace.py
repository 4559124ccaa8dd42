import copy
import pickle

import pytest

from dethodge.matrixspace import (
    MatrixSpace,
    Stratum,
    codim_stratum,
    dim_stratum,
    local_cohomology_degree,
)
from dethodge.reporting import VerificationReport
from dethodge.repsets import WeightSet
from dethodge.weights import WeightBox


def test_space_validation():
    with pytest.raises(ValueError):
        MatrixSpace(2, 3)
    with pytest.raises(ValueError):
        MatrixSpace(1, 0)
    assert MatrixSpace(3, 2).dim == 6
    assert MatrixSpace(2, 2).is_square


@pytest.mark.parametrize("m,n", [(2.5, 2), (2, 2.0), ("3", 2), (3, None)])
def test_space_refuses_sizes_that_are_not_ints(m, n):
    with pytest.raises(TypeError, match="m and n must be ints"):
        MatrixSpace(m, n)


def test_stratum_validation():
    space = MatrixSpace(3, 2)
    with pytest.raises(ValueError):
        Stratum(space, 3)
    with pytest.raises(ValueError):
        Stratum(space, -1)


def test_dim_stratum_examples():
    assert dim_stratum(Stratum(MatrixSpace(3, 3), 3)) == 9
    assert dim_stratum(Stratum(MatrixSpace(3, 2), 1)) == 4
    assert dim_stratum(Stratum(MatrixSpace(5, 4), 0)) == 0


def test_codim_stratum_examples():
    assert codim_stratum(Stratum(MatrixSpace(3, 3), 2)) == 1
    assert codim_stratum(Stratum(MatrixSpace(4, 2), 0)) == 8


def test_dim_plus_codim_exhausts_space():
    for m in range(1, 7):
        for n in range(1, m + 1):
            space = MatrixSpace(m, n)
            for p in range(n + 1):
                s = Stratum(space, p)
                assert dim_stratum(s) + codim_stratum(s) == m * n


def test_local_cohomology_degree_examples():
    space = MatrixSpace(3, 2)
    assert local_cohomology_degree(Stratum(space, 1)) == 2
    assert local_cohomology_degree(Stratum(space, 0)) == 3
    with pytest.raises(ValueError):
        local_cohomology_degree(Stratum(MatrixSpace(2, 2), 0))
    with pytest.raises(ValueError):
        local_cohomology_degree(Stratum(space, 2))


def test_local_cohomology_degrees_strictly_decreasing():
    for n in range(1, 6):
        for m in range(n + 1, n + 5):
            space = MatrixSpace(m, n)
            degrees = [local_cohomology_degree(Stratum(space, p)) for p in range(n)]
            assert all(a > b for a, b in zip(degrees, degrees[1:]))
            assert len(set(degrees)) == len(degrees)


# The value types, each with its fields in order and the repr they have
# had as dataclasses.
VALUES = [
    (MatrixSpace, {"m": 3, "n": 2}, "MatrixSpace(m=3, n=2)"),
    (Stratum, {"space": MatrixSpace(3, 2), "p": 1}, "Stratum(space=MatrixSpace(m=3, n=2), p=1)"),
    (WeightBox, {"length": 2, "bound": 3}, "WeightBox(length=2, bound=3)"),
    (
        WeightSet,
        {"space": MatrixSpace(2, 2), "kind": "HodgeIdeal", "p": None, "param": 2},
        "WeightSet(space=MatrixSpace(m=2, n=2), kind='HodgeIdeal', p=None, param=2)",
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


@pytest.mark.parametrize("cls,fields,text", VALUES, ids=lambda v: getattr(v, "__name__", ""))
def test_value_types_read_and_compare_by_their_fields(cls, fields, text):
    a = cls(*copy.deepcopy(list(fields.values())))
    b = cls(**copy.deepcopy(fields))
    assert a == b and not a != b and a is not b
    assert repr(a) == repr(b) == text
    assert cls.__match_args__ == tuple(fields)
    assert [getattr(a, name) for name in fields] == list(fields.values())
    assert a != tuple(fields.values()) and tuple(fields.values()) != a
    if cls is not VerificationReport:
        assert hash(a) == hash(b)
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
    assert {value, cls(**fields)} == {value}


def test_value_types_differ_by_class_and_by_each_field():
    space = MatrixSpace(3, 2)
    assert MatrixSpace(3, 2) != MatrixSpace(3, 1) != MatrixSpace(2, 1)
    assert Stratum(space, 1) != Stratum(space, 0) != Stratum(MatrixSpace(2, 2), 0)
    assert WeightBox(2, 3) != WeightBox(3, 2)
    assert WeightBox(3, 2) != MatrixSpace(3, 2)
    assert WeightSet(space, "Wp", 1) != WeightSet(space, "empty", 1)
    assert WeightSet(space, "Wpd", 1, 2) != WeightSet(space, "Wpd", 0, 2)
    assert WeightSet(space, "Wpd", 1, 2) != WeightSet(space, "Wpd", 1, 3)
    assert WeightSet(space, "Wp", 1) != WeightSet(MatrixSpace(2, 2), "Wp", 1)
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
        (Stratum, (MatrixSpace(2, 2), 1.5), "p"),
        (Stratum, (MatrixSpace(2, 2), True), "p"),
        (WeightBox, (2, 1.5), "bound"),
        (WeightBox, (2.0, 1), "length"),
        (WeightBox, (True, 1), "length"),
        (WeightSet, (MatrixSpace(2, 2), "HodgeIdeal", None, 1.5), "param"),
        (WeightSet, (MatrixSpace(2, 2), "Wp", 1.0), "p"),
        (WeightSet, (MatrixSpace(2, 2), "Wpd", 1, True), "param"),
        (WeightSet, (MatrixSpace(2, 2), "Ukp", "1", 0), "p"),
    ],
)
def test_integer_fields_refuse_everything_but_ints(cls, args, field):
    with pytest.raises(TypeError, match=f"^{field} must be"):
        cls(*args)


@pytest.mark.parametrize(
    "cls,args",
    [
        (Stratum, ("x", 1)),
        (Stratum, ((2, 2), 1)),
        (WeightSet, ("x", "Wp", 1)),
        (WeightSet, (None, "HodgeIdeal", None, 1)),
    ],
)
def test_space_fields_refuse_everything_but_a_matrix_space(cls, args):
    with pytest.raises(TypeError, match="^space must be a MatrixSpace"):
        cls(*args)


def test_range_errors_keep_their_messages():
    with pytest.raises(ValueError, match=r"need m >= n >= 1, got m=1, n=2"):
        MatrixSpace(1, 2)
    with pytest.raises(ValueError, match=r"rank bound p=3 outside 0..2"):
        Stratum(MatrixSpace(2, 2), 3)
    with pytest.raises(ValueError, match="box length must be at least 1"):
        WeightBox(0, 1)
    with pytest.raises(ValueError, match="box bound must be nonnegative"):
        WeightBox(1, -1)
    with pytest.raises(ValueError, match=r"stratum index p=3 outside 0..2"):
        WeightSet(MatrixSpace(2, 2), "Wp", 3)
