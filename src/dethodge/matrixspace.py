"""Rank stratification of the space of m-by-n matrices.

Everything downstream consumes only the pair (m, n) and a rank bound p,
so strata are plain labels carrying derived numerology: the dimension
p*(m+n-p) and codimension (m-p)*(n-p) of the locus of matrices of rank
at most p, and (for m > n) the cohomological degree in which that locus
supports local cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MatrixSpace:
    """The space of m-by-n matrices, with the convention m >= n >= 1."""

    m: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise TypeError(f"m and n must be ints, got m={self.m!r}, n={self.n!r}")
        if self.n < 1 or self.m < self.n:
            raise ValueError(f"need m >= n >= 1, got m={self.m}, n={self.n}")

    @property
    def dim(self) -> int:
        return self.m * self.n

    @property
    def is_square(self) -> bool:
        return self.m == self.n

    def __str__(self):
        return f"{self.m}x{self.n}"


@dataclass(frozen=True)
class Stratum:
    """Label for the closed locus of matrices of rank at most p."""

    space: MatrixSpace
    p: int

    def __post_init__(self):
        if not 0 <= self.p <= self.space.n:
            raise ValueError(f"rank bound p={self.p} outside 0..{self.space.n}")


def dim_stratum(s: Stratum) -> int:
    """Dimension p*(m+n-p) of the rank <= p locus."""
    return s.p * (s.space.m + s.space.n - s.p)


def codim_stratum(s: Stratum) -> int:
    """Codimension (m-p)*(n-p); complements dim_stratum to m*n."""
    return (s.space.m - s.p) * (s.space.n - s.p)


def local_cohomology_degree(s: Stratum) -> int:
    """Degree 1 + (n-p)*(m-n) of the unique local cohomology module, with
    support in the singular locus, attached to the rank-p stratum.

    Needs m > n and p <= n-1: for square matrices the complement of the
    singular locus is affine and one localizes instead of taking local
    cohomology.
    """
    m, n = s.space.m, s.space.n
    if m == n:
        raise ValueError("local cohomology indexing needs m > n")
    if s.p > n - 1:
        raise ValueError(f"no local cohomology stratum for p={s.p} > n-1")
    return 1 + (n - s.p) * (m - n)
