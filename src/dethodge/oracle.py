"""Independent ground truth over the actual polynomial ring.

The combinatorial predicates upstream are cross-checked here against
exact arithmetic in the matrix entries. Minors and highest weight vectors
are expanded symbolically, and vanishing along a rank stratum is tested
by evaluation at random rank-constrained integer points.

Membership in the d-th symbolic power of the ideal of p-minors means
vanishing to order at least d along the rank p-1 locus (Zariski-Nagata:
every partial derivative of order below d vanishes there). Two routes
decide it:

* the line test (`line_vanishing_order`, behind `dcep_cross_validation`
  and the CLI). The highest weight vector of a partition lam is the
  product of the leading principal minors raised to lam_i - lam_{i+1}.
  Restricted to a line a + t*v through a sampled point a with a random
  integer direction v, each minor is a univariate integer polynomial
  M_i(t) = det(a_i + t*v_i) of degree at most i, found exactly from its
  values at t = 0..i (fraction-free determinants, then Newton
  interpolation). Orders add under products, so the order in t is
  sum_i (lam_i - lam_{i+1}) * ord_t M_i, and its minimum over the trials
  answers every d at once: lam is a member iff it is >= d.
* the derivative test (`symbolic_membership`), which builds every
  partial of order below d and evaluates it. It is the slow oracle that
  the tests hold the line test to.

Verdicts are one-sided. A nonzero evaluation is an exact certificate of
non-vanishing. The order along a line through a is at least the order
of f at a, which is at least its order at a general point of the locus,
so a line order below d is an exact certificate of non-membership. A
"vanishes" or "member" answer is randomized, with failure probability
decreasing in the number of trials and the entry bound. Nothing here is
numerical.

False-accept analysis. A sample point is A*B with independent uniform
entries in [-B, B]. A polynomial f of degree D that does not vanish
identically on the rank <= r locus pulls back to a nonzero polynomial
of degree at most 2D in the factor entries, so by the Schwartz-Zippel
bound one trial of `symbolic_membership` at d = 1 evaluates it to zero
with probability at most 2D/(2B+1). A line trial accepts a non-member,
whose order e at a general point of the locus is below d, only if the
point a is special (some partial of order e, of degree at most D, is
nonzero on the locus but vanishes at a: probability at most 2D/(2B+1))
or the lowest-order form of f at a, of degree e < d, vanishes at the
direction v (at most d/(2B+1)). So one trial errs with probability at most
(2D + d)/(2B+1), and independent trials multiply. For example, at
B = 7 and 8 trials a partition of size D = 3 checked at d = 2 is falsely
accepted with probability at most (8/15)^8 < 0.007. The bound says
nothing once 2D + d >= 2B + 1: at B = 7 (`verify oracle`) that is every
check with D = 6 and d >= 3, and at `oracle-check --lmax 8` (B = 8) every
check with D = 8, or D = 7 and d >= 3. The observed behaviour is far
better, because the accidental zero loci are thin.

Each trial draws its point and direction from a stream keyed by (seed,
rank, trial), shared by every partition: the sampler keeps each trial's
line and the orders of its minors, so a cross-validation draws and
expands each line once, however many partitions it tests. The bound per
check above is unchanged, but checks that share lines are correlated: a
special line can make several partitions err together. A check's lines
depend on nothing but (seed, rank, trial), and the seed is recorded in
every report, so any check can be replayed alone.
"""

from __future__ import annotations

import random
from itertools import permutations
from math import comb, factorial, inf

from .hodgeideals import _in_symbolic_power
from .matrixspace import MatrixSpace
from .reporting import VerificationReport
from .weights import check_weight


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

    def __str__(self):
        if not self._c:
            return "0"
        bits = []
        for mono in sorted(self._c, reverse=True):
            v = self._c[mono]
            vars_part = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono) if e
            )
            if not vars_part:
                bits.append(f"{v:+d}")
            elif abs(v) == 1:
                bits.append(("+" if v > 0 else "-") + vars_part)
            else:
                bits.append(f"{v:+d}*{vars_part}")
        text = " ".join(bits)
        return text[1:] if text.startswith("+") else text


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


class RankConstrainedSampler:
    """Random integer m-by-n matrices of rank at most `rank`, produced as
    A*B with A of shape m-by-rank and B of shape rank-by-n, entries
    uniform in [-bound, bound]. Deterministic given (seed, rank, key); the
    key names one stream of its own (see `keyed`). The line test keeps the
    lines it draws here, one per trial (see `_line`)."""

    def __init__(self, space: MatrixSpace, rank: int, bound: int = 7, seed=0, key=()):
        if not 0 <= rank <= space.n:
            raise ValueError(f"target rank {rank} outside 0..{space.n}")
        if bound < 1:
            raise ValueError("entry bound must be positive")
        self.space = space
        self.rank = rank
        self.bound = bound
        self.seed = seed
        self.key = tuple(key)
        self._rng = random.Random(f"{seed}|rank={rank}" + "".join(f"|{k}" for k in self.key))
        self._lines = {}

    def sample(self) -> tuple[tuple[int, ...], ...]:
        m, n, r, bound = self.space.m, self.space.n, self.rank, self.bound
        rng = self._rng
        left = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(r)]
        return tuple(
            tuple(sum(left[i][t] * right[t][j] for t in range(r)) for j in range(n))
            for i in range(m)
        )

    def direction(self) -> tuple[tuple[int, ...], ...]:
        """An m-by-n matrix with independent entries uniform in
        [-bound, bound], from the same stream as `sample`."""
        rng, bound = self._rng, self.bound
        return tuple(
            tuple(rng.randint(-bound, bound) for _ in range(self.space.n))
            for _ in range(self.space.m)
        )

    def keyed(self, *key) -> "RankConstrainedSampler":
        """The same sampler on a stream of its own, keyed by (seed, rank,
        key): its draws do not depend on any other draw, so the check
        that makes them can be replayed alone."""
        return RankConstrainedSampler(
            self.space, self.rank, self.bound, self.seed, self.key + key
        )

    def with_rank(self, rank: int) -> "RankConstrainedSampler":
        """The sampler with the same seed and key at another rank; at its
        own rank, the sampler itself, so its stream and lines carry on."""
        if rank == self.rank:
            return self
        return RankConstrainedSampler(self.space, rank, self.bound, self.seed, self.key)

    def reseeded(self, salt) -> "RankConstrainedSampler":
        return RankConstrainedSampler(
            self.space, self.rank, self.bound, f"{self.seed}#{salt}"
        )

    def _line(self, trial: int):
        """(point, direction, orders) of one line-test trial: a point of
        rank at most `rank` and a direction, drawn on first use from the
        stream keyed by (seed, rank, trial), and the dict from i to ord_t
        of the leading i-by-i minor on that line, filled in as orders are
        needed. Every partition tested on this sampler reads these lines."""
        line = self._lines.get(trial)
        if line is None:
            stream = self.keyed(f"trial={trial}")
            line = self._lines[trial] = (stream.sample(), stream.direction(), {})
        return line


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


def _det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination with row swaps: every division is exact."""
    a = [list(row) for row in rows]
    size = len(a)
    sign, previous = 1, 1
    for c in range(size - 1):
        if not a[c][c]:
            swap = next((r for r in range(c + 1, size) if a[r][c]), None)
            if swap is None:
                return 0
            a[c], a[swap] = a[swap], a[c]
            sign = -sign
        top = a[c]
        pivot = top[c]
        for row in a[c + 1:]:
            lead = row[c]
            for j in range(c + 1, size):
                row[j] = (pivot * row[j] - lead * top[j]) // previous
        previous = pivot
    return sign * a[-1][-1] if size else 1


def _order_at_zero(values) -> int | float:
    """The order at t = 0 of the integer polynomial of degree below
    len(values) that takes these values at t = 0, 1, 2, ...; inf for the
    zero polynomial. Newton's forward differences give its coefficients
    in the falling factorials t(t-1)...(t-k+1), expanded here into
    powers of t."""
    differences = []
    row = list(values)
    while row:
        differences.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    coeffs = []  # powers of t, constant first
    for k in range(len(differences) - 1, -1, -1):
        newton, rem = divmod(differences[k], factorial(k))
        if rem:
            raise ArithmeticError(f"values {values} are not those of an integer polynomial")
        shifted = [newton] + coeffs
        for j, c in enumerate(coeffs):
            shifted[j] -= k * c
        coeffs = shifted
    return next((k for k, c in enumerate(coeffs) if c), inf)


def _minor_order_on_line(point, direction, i) -> int | float:
    """ord_t det(point_i + t*direction_i) of the leading i-by-i blocks."""
    values = []
    for t in range(i + 1):
        value = _det(
            [[point[r][c] + t * direction[r][c] for c in range(i)] for r in range(i)]
        )
        if t == 0 and value:
            return 0
        values.append(value)
    return _order_at_zero(values)


def line_vanishing_order(
    lam, space: MatrixSpace, p: int, sampler: RankConstrainedSampler, trials: int = 8
) -> int | float:
    """The least order of vanishing of the highest weight vector of the
    partition lam along `trials` random lines a + t*v, each through a
    point a of rank <= p-1 (inf if it vanishes on every line). Each trial
    takes a and v from the stream keyed by (seed, rank, trial), shared by
    every partition: the rank p-1 sampler keeps each line and its minor
    orders, so later partitions on it reuse them. The
    highest weight vector lies in the d-th symbolic power of the ideal of
    p-minors iff this is >= d; a smaller value is an exact certificate
    that it does not, a larger one is randomized (see the module
    docstring). The sampler entry bound must be at least max(3, |lam|)."""
    lam = _line_test_partition(lam, space, sampler, trials)
    return _line_order(lam, sampler.with_rank(p - 1), trials)


def _line_test_partition(
    lam, space: MatrixSpace, sampler: RankConstrainedSampler, trials: int
) -> tuple[int, ...]:
    """lam as a tuple, checked to be a partition the line test can take."""
    lam = check_weight(lam, space.n)
    if lam[-1] < 0:
        raise ValueError("highest weight vectors in the ring need a partition")
    if trials < 1:
        raise ValueError("need at least one trial")
    if sampler.bound < max(3, sum(lam)):
        raise ValueError("sampler entry bound below max(3, deg f)")
    return lam


def _line_order(lam: tuple[int, ...], s: RankConstrainedSampler, trials: int) -> int | float:
    """`line_vanishing_order` for a validated lam, on the lines of the
    sampler s at rank p-1."""
    parts = lam + (0,)
    steps = [(i, parts[i - 1] - parts[i]) for i in range(1, len(parts)) if parts[i - 1] > parts[i]]
    best = inf
    for trial in range(trials):
        point, direction, orders = s._line(trial)
        order = 0
        for i, step in steps:
            if i not in orders:
                orders[i] = _minor_order_on_line(point, direction, i)
            order += step * orders[i]
            if order >= best:
                break  # this trial cannot lower the minimum
        best = min(best, order)
        if not best:
            break
    return best


def dcep_cross_validation(
    space: MatrixSpace,
    lambdas,
    p: int,
    d: int,
    sampler: RankConstrainedSampler,
    trials: int = 8,
) -> VerificationReport:
    """Confront the combinatorial symbolic-power predicate with the line
    test on highest weight vectors, for each partition in `lambdas`, at
    one order d. A disagreement is re-sampled once with a fresh seed
    before being reported; the report records the master seed."""
    return _cross_validate(space, lambdas, p, [d], sampler, trials)[0]


def dcep_cross_validation_upto(
    space: MatrixSpace,
    lambdas,
    p: int,
    dmax: int,
    sampler: RankConstrainedSampler,
    trials: int = 8,
) -> list[VerificationReport]:
    """`dcep_cross_validation` for d = 1..dmax, one report per d, from
    one expansion of each line, shared by every partition."""
    return _cross_validate(space, lambdas, p, range(1, dmax + 1), sampler, trials)


def _cross_validate(space, lambdas, p, ds, sampler, trials) -> list[VerificationReport]:
    if not space.is_square:
        raise ValueError("the weight-set membership criterion is stated for m = n")
    reports = [
        VerificationReport(
            "symbolic-power-cross-validation",
            {"n": space.n, "p": p, "d": d, "trials": trials},
            seed=sampler.seed,
        )
        for d in ds
    ]
    if not reports:
        return reports
    if not 1 <= p <= space.n:
        raise ValueError(f"minor size p={p} outside 1..{space.n}")
    # One sampler at rank p-1 for every partition, so all read its lines.
    s = sampler.with_rank(p - 1)
    for lam in lambdas:
        # Validated once here; the predicate and the line test take it as it is.
        lam = _line_test_partition(lam, space, s, trials)
        order = _line_order(lam, s, trials)
        for report, d in zip(reports, ds):
            member = _in_symbolic_power(lam, p, d)
            got = order >= d
            report.checks += 1
            if got != member:
                fresh = s.reseeded(f"retry:{lam}:{p}:{d}")
                got = _line_order(lam, fresh, trials) >= d
                if got != member:
                    report.add_failure(weight=lam, combinatorial=member, differential=got)
            report.details.append(
                {"weight": lam, "d": d, "member": member, "agrees": got == member}
            )
    return reports


def ideal_power_hilbert(space: MatrixSpace, k: int, dmax: int) -> dict[int, int]:
    """Ground truth for 2x2 matrices, where the k-th Hodge ideal is the
    (k-1)-st power of the irrelevant maximal ideal in 4 variables: the
    degree-d piece has dimension comb(d+3, 3) for d >= k-1 and is zero
    below."""
    if space.m != 2 or space.n != 2:
        raise ValueError("closed-form ideal powers are implemented for m = n = 2")
    if k < 0:
        raise ValueError("ideal index k must be nonnegative")
    if dmax > 16:
        raise ValueError("desk-scale cap: dmax <= 16")
    return {d: (comb(d + 3, 3) if d >= k - 1 else 0) for d in range(dmax + 1)}
