"""Rank stratification of the space of m-by-n matrices.

A stratum, the locus of matrices of rank at most p, is the pair (space, p),
its index p checked in one place, `_check_stratum`. Its numerology: the
dimension p*(m+n-p), the codimension (m-p)*(n-p) and (for m > n) the
cohomological degree in which it supports local cohomology.

The package's value types (`MatrixSpace`, ``repsets.WeightSet``,
``qseries.DecompositionTable`` and ``reporting.VerificationReport``) are
slotted classes on one base, `_Record`. It gives them what a frozen
dataclass would: equality and hash over the fields for the same class
only, the dataclass repr, refused assignment and deletion, and pickling
and copying through the constructor. The package does not import the
dataclasses module, which loads inspect, ast, dis and tokenize and would
take three times as long as the rest of the package to import.
"""

from __future__ import annotations


class _Record:
    """Base of a value type whose fields are its ``__match_args__``; a
    frozen one sets them once, in its constructor, with
    ``object.__setattr__``."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuilt through the constructor: the raising __setattr__ would
        # refuse pickle's and copy's default way of restoring slots.
        return self.__class__, self._values()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(name: str, value) -> None:
    """Refuse a field value that is not an int, or is a bool."""
    if not _is_int(value):
        raise TypeError(f"{name} must be an int, got {value!r}")


class MatrixSpace(_Record):
    """The space of m-by-n matrices, with the convention m >= n >= 1."""

    __slots__ = __match_args__ = ("m", "n")

    def __init__(self, m: int, n: int):
        if not (_is_int(m) and _is_int(n)):
            raise TypeError(f"m and n must be ints, got m={m!r}, n={n!r}")
        if n < 1 or m < n:
            raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    @property
    def is_square(self) -> bool:
        return self.m == self.n

    def __str__(self):
        return f"{self.m}x{self.n}"


def _check_space(value) -> None:
    """Refuse a space field value that is not a `MatrixSpace`."""
    if not isinstance(value, MatrixSpace):
        raise TypeError(f"space must be a MatrixSpace, got {value!r}")


def _check_stratum(space, p, name: str = "p") -> None:
    """Refuse a stratum index `name`=p of `space` that is not an int in
    0..n, or a space that is not a `MatrixSpace`."""
    _check_space(space)
    _check_int(name, p)
    if not 0 <= p <= space.n:
        raise ValueError(f"stratum index {name}={p} outside 0..{space.n}")


def dim_stratum(space: MatrixSpace, p: int) -> int:
    """Dimension p*(m+n-p) of the rank <= p locus."""
    _check_stratum(space, p)
    return p * (space.m + space.n - p)


def codim_stratum(space: MatrixSpace, p: int) -> int:
    """Codimension (m-p)*(n-p); complements dim_stratum to m*n."""
    _check_stratum(space, p)
    return (space.m - p) * (space.n - p)


def local_cohomology_degree(space: MatrixSpace, p: int) -> int:
    """Degree 1 + (n-p)*(m-n) of the unique local cohomology module, with
    support in the singular locus, attached to the rank-p stratum.

    Needs m > n and p <= n-1: for square matrices the complement of the
    singular locus is affine and one localizes instead of taking local
    cohomology.
    """
    _check_stratum(space, p)
    m, n = space.m, space.n
    if m == n:
        raise ValueError("local cohomology indexing needs m > n")
    if p > n - 1:
        raise ValueError(f"no local cohomology stratum for p={p} > n-1")
    return 1 + (n - p) * (m - n)
