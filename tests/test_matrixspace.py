import pytest

from dethodge.matrixspace import (
    MatrixSpace,
    Stratum,
    codim_stratum,
    dim_stratum,
    local_cohomology_degree,
)


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
