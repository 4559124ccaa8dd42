"""The derivative test: a slow, independent reference for the line test.

Membership in the d-th symbolic power of the ideal of p-minors means
vanishing to order at least d along the rank p-1 locus (Zariski-Nagata:
every partial derivative of order below d vanishes there). This module
decides it the long way round: it expands minors and highest weight
vectors as sparse multivariate polynomials in the matrix entries, builds
every partial of order below d, and evaluates each one at random
rank-constrained integer points. The tests hold `line_vanishing_order`
and the cross-validation to it.

A nonzero evaluation is an exact certificate of non-membership. A sample
point is A*B with independent uniform entries in [-B, B], so a
polynomial f of degree D that does not vanish identically on the
rank <= r locus pulls back to a nonzero polynomial of degree at most 2D
in the factor entries, and by the Schwartz-Zippel bound one trial at
d = 1 evaluates it to zero with probability at most 2D/(2B+1).
"""

from __future__ import annotations

from itertools import permutations

from dethodge.matrixspace import MatrixSpace
from dethodge.oracle import RankConstrainedSampler
from dethodge.weights import check_weight


class ExactPoly:
    """Sparse polynomial in a fixed number of variables with arbitrary
    precision integer coefficients. Monomials are exponent tuples."""

    __slots__ = ("nvars", "_c")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        c = {}
        if coeffs:
            for mono, v in coeffs.items():
                if v:
                    mono = tuple(mono)
                    if len(mono) != nvars:
                        raise ValueError("exponent vector has wrong length")
                    c[mono] = int(v)
        self._c = c

    @classmethod
    def constant(cls, nvars: int, value: int) -> "ExactPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "ExactPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} outside 0..{nvars - 1}")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: 1})

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def total_degree(self) -> int:
        if not self._c:
            return 0
        return max(sum(mono) for mono in self._c)

    def items(self):
        return self._c.items()

    def __eq__(self, other):
        if isinstance(other, int):
            other = ExactPoly.constant(self.nvars, other)
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._c == other._c

    def __hash__(self):
        return hash((self.nvars, frozenset(self._c.items())))

    def _coerce(self, other) -> "ExactPoly":
        if isinstance(other, int):
            return ExactPoly.constant(self.nvars, other)
        if not isinstance(other, ExactPoly) or other.nvars != self.nvars:
            raise TypeError("incompatible polynomial operands")
        return other

    def __neg__(self):
        out = ExactPoly(self.nvars)
        out._c = {mono: -v for mono, v in self._c.items()}
        return out

    def __add__(self, other):
        other = self._coerce(other)
        c = dict(self._c)
        for mono, v in other._c.items():
            nv = c.get(mono, 0) + v
            if nv:
                c[mono] = nv
            elif mono in c:
                del c[mono]
        out = ExactPoly(self.nvars)
        out._c = c
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            out = ExactPoly(self.nvars)
            if other:
                out._c = {mono: v * other for mono, v in self._c.items()}
            return out
        other = self._coerce(other)
        c = {}
        for m1, v1 in self._c.items():
            for m2, v2 in other._c.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                nv = c.get(mono, 0) + v1 * v2
                if nv:
                    c[mono] = nv
                elif mono in c:
                    del c[mono]
        out = ExactPoly(self.nvars)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if power < 0:
            raise ValueError("negative powers are not supported")
        out = ExactPoly.constant(self.nvars, 1)
        base = self
        while power:
            if power & 1:
                out = out * base
            base = base * base
            power >>= 1
        return out

    def derivative(self, index: int) -> "ExactPoly":
        """Exact partial derivative with respect to one variable."""
        c = {}
        for mono, v in self._c.items():
            e = mono[index]
            if e:
                lowered = mono[:index] + (e - 1,) + mono[index + 1:]
                c[lowered] = c.get(lowered, 0) + v * e
        out = ExactPoly(self.nvars)
        out._c = {mono: v for mono, v in c.items() if v}
        return out

    def evaluate(self, values) -> int:
        """Value at an integer point (a flat sequence of length nvars)."""
        values = tuple(values)
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        total = 0
        for mono, v in self._c.items():
            term = v
            for x, e in zip(values, mono):
                if e:
                    term *= x**e
            total += term
        return total


def variable_matrix(space: MatrixSpace) -> list[list[ExactPoly]]:
    """The generic matrix of variables x_{i,j}, flattened row-major."""
    nv = space.m * space.n
    return [
        [ExactPoly.variable(nv, i * space.n + j) for j in range(space.n)]
        for i in range(space.m)
    ]


def minor(space: MatrixSpace, rows, cols) -> ExactPoly:
    """Determinant of the submatrix of variables on the given row and
    column index sets (zero-based, equal sizes, no repeats), expanded
    exactly over permutations."""
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("repeated row or column index")
    if any(not 0 <= r < space.m for r in rows):
        raise ValueError(f"row index outside 0..{space.m - 1}")
    if any(not 0 <= c < space.n for c in cols):
        raise ValueError(f"column index outside 0..{space.n - 1}")
    rows, cols = sorted(rows), sorted(cols)
    k = len(rows)
    nv = space.m * space.n
    c = {}
    for perm in permutations(range(k)):
        inversions = sum(
            1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
        )
        sign = -1 if inversions % 2 else 1
        expo = [0] * nv
        for i in range(k):
            expo[rows[i] * space.n + cols[perm[i]]] += 1
        mono = tuple(expo)
        c[mono] = c.get(mono, 0) + sign
    out = ExactPoly(nv)
    out._c = {mono: v for mono, v in c.items() if v}
    return out


def highest_weight_vector(lam, space: MatrixSpace) -> ExactPoly:
    """The highest weight vector of the isotypic component of a partition
    lam: the product of the leading principal i-by-i minors raised to the
    powers lam_i - lam_{i+1}. Total degree |lam|."""
    lam = check_weight(lam, space.n)
    if lam[-1] < 0:
        raise ValueError("highest weight vectors in the ring need a partition")
    nv = space.m * space.n
    out = ExactPoly.constant(nv, 1)
    for i in range(1, space.n + 1):
        step = lam[i - 1] - (lam[i] if i < space.n else 0)
        if step:
            out = out * minor(space, range(i), range(i)) ** step
    return out


def _flat(matrix):
    return [x for row in matrix for x in row]


def _derivatives_below_order(f: ExactPoly, order: int) -> list[ExactPoly]:
    # Distinct nonzero partials of order 0..order, deduplicated by the
    # sorted multi-index of differentiations.
    out = [f]
    level = {(): f}
    for _ in range(order):
        nxt = {}
        for midx, g in level.items():
            start = midx[-1] if midx else 0
            for v in range(start, f.nvars):
                h = g.derivative(v)
                if not h.is_zero:
                    nxt[midx + (v,)] = h
        out.extend(nxt.values())
        if not nxt:
            break
        level = nxt
    return out


def symbolic_membership(f: ExactPoly, p: int, d: int, sampler: RankConstrainedSampler, trials: int = 8) -> bool:
    """Does f vanish to order at least d along the rank p-1 locus? Decided
    by the differential criterion: every partial derivative of order
    below d must vanish there; at d = 1, f itself must vanish on the rank
    p-1 locus. A False answer is an exact certificate; True is randomized.
    The sampler entry bound must be at least max(3, deg f). d <= 0 is the
    unit ideal and returns True."""
    if d <= 0:
        return True
    if trials < 1:
        raise ValueError("need at least one trial")
    if not f.is_zero and sampler.bound < max(3, f.total_degree):
        raise ValueError("sampler entry bound below max(3, deg f)")
    derivs = _derivatives_below_order(f, d - 1)
    s = sampler.with_rank(p - 1)
    for _ in range(trials):
        point = _flat(s.sample())
        for g in derivs:
            if g.evaluate(point) != 0:
                return False
    return True
