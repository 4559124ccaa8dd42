"""Independent ground truth over the actual polynomial ring.

The combinatorial symbolic-power predicate upstream is cross-checked
here against exact integer arithmetic in the matrix entries, at random
rank-constrained integer points. Membership in the d-th symbolic power
of the ideal of p-minors means vanishing to order at least d along the
rank p-1 locus (Zariski-Nagata: every partial derivative of order below
d vanishes there).

The line test (`line_vanishing_order`, behind `dcep_cross_validation_upto`
and the CLI) decides it. The highest weight vector of a partition lam is
the product of the leading principal minors raised to lam_i - lam_{i+1}.
Restricted to a line a + t*v through a sampled point a with a random
integer direction v, each minor is a univariate integer polynomial
M_i(t) = det(a_i + t*v_i) of degree at most i, found exactly from its
values at t = 0..i (fraction-free determinants, then Newton
interpolation). Orders add under products, so the order in t is
sum_i (lam_i - lam_{i+1}) * ord_t M_i, and its minimum over the trials
answers every d at once: lam is a member iff it is >= d.

Verdicts are one-sided. The order along a line through a is at least the
order of f at a, which is at least its order at a general point of the
locus, so a line order below d is an exact certificate of
non-membership. A "member" answer is randomized, with failure
probability decreasing in the number of trials and the entry bound.
Nothing here is numerical.

False-accept analysis. A sample point is A*B with independent uniform
entries in [-B, B]. A polynomial f of degree D that does not vanish
identically on the rank <= r locus pulls back to a nonzero polynomial
of degree at most 2D in the factor entries. A line trial accepts a
non-member, whose order e at a general point of the locus is below d,
only if the point a is special (some partial of order e, of degree at
most D, is nonzero on the locus but vanishes at a: by the
Schwartz-Zippel bound, probability at most 2D/(2B+1))
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
from math import comb, factorial, inf

from .matrixspace import MatrixSpace, _check_int, _check_space, _check_stratum
from .reporting import VerificationReport
from .repsets import _in_symbolic_power
from .weights import check_weight


class RankConstrainedSampler:
    """Random integer m-by-n matrices of rank at most `rank`, produced as
    A*B with A of shape m-by-rank and B of shape rank-by-n, entries
    uniform in [-bound, bound]. Deterministic given (seed, rank, key); the
    key names one stream of its own (see `keyed`). The line test keeps the
    lines it draws here, one per trial (see `_line`)."""

    def __init__(self, space: MatrixSpace, rank: int, bound: int = 7, seed=0, key=()):
        _check_stratum(space, rank, "rank")
        _check_int("bound", bound)
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
    docstring). The sampler must draw matrices of `space`, with entry
    bound at least max(3, |lam|)."""
    s = _line_sampler(space, p, sampler, trials)
    return _line_order(_line_test_partition(lam, space, s), s, trials)


def _line_sampler(
    space: MatrixSpace, p: int, sampler: RankConstrainedSampler, trials: int
) -> RankConstrainedSampler:
    """The sampler at rank p-1 whose lines test highest weight vectors
    against the p-minors of `space`, once p, the sampler's space and the
    number of trials are checked."""
    _check_int("p", p)
    if not 1 <= p <= space.n:
        raise ValueError(f"minor size p={p} outside 1..{space.n}")
    if sampler.space != space:
        raise ValueError(f"sampler draws {sampler.space} matrices, not {space}")
    if trials < 1:
        raise ValueError("need at least one trial")
    return sampler.with_rank(p - 1)


def _line_test_partition(
    lam, space: MatrixSpace, sampler: RankConstrainedSampler
) -> tuple[int, ...]:
    """lam as a tuple, checked to be a partition the line test can take."""
    lam = check_weight(lam, space.n)
    if lam[-1] < 0:
        raise ValueError("highest weight vectors in the ring need a partition")
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


def dcep_cross_validation_upto(
    space: MatrixSpace,
    lambdas,
    p: int,
    dmax: int,
    sampler: RankConstrainedSampler,
    trials: int = 8,
) -> list[VerificationReport]:
    """Confront the combinatorial symbolic-power predicate with the line
    test on highest weight vectors, for each partition in `lambdas`: one
    report per order d = 1..dmax, from one expansion of each line, shared
    by every partition. A disagreement is re-sampled once with a fresh
    seed before being reported; each report records the master seed."""
    if not space.is_square:
        raise ValueError("the weight-set membership criterion is stated for m = n")
    # One sampler at rank p-1 for every partition, so all read its lines.
    s = _line_sampler(space, p, sampler, trials)
    ds = range(1, dmax + 1)
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
    for lam in lambdas:
        # Validated once here; the predicate and the line test take it as it is.
        lam = _line_test_partition(lam, space, s)
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
    _check_space(space)
    _check_int("k", k)
    _check_int("dmax", dmax)
    if space.m != 2 or space.n != 2:
        raise ValueError("closed-form ideal powers are implemented for m = n = 2")
    if k < 0:
        raise ValueError("ideal index k must be nonnegative")
    if dmax > 16:
        raise ValueError("desk-scale cap: dmax <= 16")
    return {d: (comb(d + 3, 3) if d >= k - 1 else 0) for d in range(dmax + 1)}
