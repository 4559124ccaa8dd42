"""Dimension and multiplicity arithmetic for GL representations.

Dimensions come from the standard product formula over positive roots,
tensor products from one walk over their Littlewood-Richardson tableaux
that emits every constituent with its multiplicity (desk scale, with a
hard size cap), and graded dimensions of weight-set modules from one
walk over the members of a set: `hilbert_series` walks the rows of a
set's pieces once over the interval of totals 0..dmax, as runs
head + (x,) of the last entry, and adds each member's squared dimension
to its degree (every set summed is on a square space). Along a run the
dimension is dim(head), one GL_{n-1} product per head, times the n-1
factors that pair the last entry with the others. The product `_dim`
takes no check of its own: the sums call it on the heads their walks
produce, which are dominant by construction. A Cauchy-type identity
against a plain binomial count keeps the dimension formula honest.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, factorial

from .matrixspace import MatrixSpace, _check_int, _check_space, _check_stratum, codim_stratum
from .reporting import VerificationReport
from .repsets import WeightSet, compose_weight, lambda_p_mu
from .weights import is_partition, pad, partitions_of, strip_zeros

LR_SIZE_CAP = 20


def _dim(lam: tuple[int, ...]) -> int:
    """Dimension of the irreducible GL_N representation with highest
    weight lam, a dominant tuple of length N, by the product formula

        prod_{i<j} (lam_i - lam_j + j - i) / (j - i).

    Invariant under adding a constant to every entry (determinant twist).
    Pairs with lam_i = lam_j contribute 1 and are skipped, so the work
    grows with the pairs of unequal entries, not with N^2."""
    N = len(lam)
    num = 1
    den = 1
    run_end = N  # the first index after the run of entries equal to lam[i]
    for i in range(N - 2, -1, -1):
        if lam[i] != lam[i + 1]:
            run_end = i + 1
        shifted = lam[i] - i
        for j in range(run_end, N):
            num *= shifted - lam[j] + j
            den *= j - i
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"product formula for {lam} left remainder {rem}")
    return value


def _as_partition(entries) -> tuple[int, ...]:
    v = strip_zeros(tuple(entries))
    if v and not is_partition(v):
        raise ValueError(f"{tuple(entries)} is not a partition")
    return v


def tensor_expansion(nu, gamma, max_parts: int) -> dict[tuple[int, ...], int]:
    """Decomposition of the tensor product of the irreps indexed by the
    partitions nu and gamma in GL with at most max_parts rows, as a map
    constituent -> multiplicity (constituents zero-padded to max_parts, in
    decreasing lexicographic order). |nu| + |gamma| is capped at 20.

    One depth-first walk over the LR tableaux of content gamma on nu
    (Fulton, Young Tableaux, ch. 5): letter i fills a horizontal strip of
    gamma_i boxes row by row, and in every row the i's placed so far never
    outnumber the (i-1)'s in the rows above it. A partial strip is cut when
    the rows below can no longer hold the boxes left. Each finished filling
    adds 1 to the multiplicity of its shape."""
    nu = _as_partition(nu)
    gamma = _as_partition(gamma)
    _check_int("max_parts", max_parts)
    if max_parts < 0:
        raise ValueError(f"max_parts must be nonnegative, got {max_parts}")
    total = sum(nu) + sum(gamma)
    if total > LR_SIZE_CAP:
        raise ValueError(f"|nu| + |gamma| = {total} exceeds the desk-scale cap {LR_SIZE_CAP}")
    n = max_parts
    if len(nu) > n or len(gamma) > n:
        return {}
    if not gamma:
        return {pad(nu, n): 1}
    expansion: dict[tuple[int, ...], int] = {}
    # A frame: the letter i being placed, the shape so far (its rows above
    # the strip's next row already hold their i's), the strip's boxes per
    # row so far, the i's still to place, and the number of (i-1)'s above
    # each row (never binding for the first letter).
    stack = [(0, pad(nu, n), (), gamma[0], (gamma[0],) * n)]
    while stack:
        i, shape, strip, left, above = stack.pop()
        r = len(strip)
        if r == n:
            # The cut leaves no box over at the last row: the strip is done.
            if i + 1 == len(gamma):
                expansion[shape] = expansion.get(shape, 0) + 1
            else:
                above = tuple(accumulate(strip, initial=0))
                stack.append((i + 1, shape, (), gamma[i + 1], above))
            continue
        row = shape[r]
        # Above row 0 there is no row to cap the strip; the rows below hold
        # shape[r] - shape[-1] boxes of a strip at most.
        hi = left if r == 0 else min(left, shape[r - 1] - strip[r - 1] - row)
        hi = min(hi, above[r] - (gamma[i] - left))
        for a in range(max(0, left - row + shape[-1]), hi + 1):
            grown = shape[:r] + (row + a,) + shape[r + 1:]
            stack.append((i, grown, strip + (a,), left - a, above))
    return dict(sorted(expansion.items(), reverse=True))


def tensor_decomposition_check(gamma, p: int, mu, space: MatrixSpace) -> VerificationReport:
    """Verify the tensor step that builds a layer of the rank-p support
    out of its minimal elements: the product of the irrep of gamma (at
    most p parts) with the irrep of the minimal element attached to mu
    contains their sum with multiplicity one, and every other constituent
    beta dominates the minimal element with tail sum strictly above
    -|mu| - c_p. Non-partition weights are shifted to partitions before
    the LR computation; a uniform shift does not change multiplicities."""
    _check_stratum(space, p)
    if not space.is_square:
        raise ValueError("the tensor-step check is stated for square spaces")
    n = space.n
    gamma = _as_partition(gamma)
    mu = _as_partition(mu)
    if len(gamma) > p:
        raise ValueError(f"gamma must have at most p={p} parts")
    d = sum(mu)
    nu = lambda_p_mu(p, mu, space)
    target = compose_weight(mu, gamma, p, space)
    c_p = codim_stratum(space, p)

    shift = -nu[-1]
    nu_shifted = tuple(x + shift for x in nu)
    expansion = tensor_expansion(nu_shifted, gamma, n)

    report = VerificationReport(
        "tensor-step",
        {"n": n, "p": p, "mu": mu, "gamma": gamma},
    )
    designated = tuple(x + shift for x in target)
    report.checks += 1
    if expansion.get(designated, 0) != 1:
        report.add_failure(
            check="designated-multiplicity",
            weight=target,
            multiplicity=expansion.get(designated, 0),
        )
    for beta_shifted, mult in expansion.items():
        if beta_shifted == designated:
            continue
        beta = tuple(x - shift for x in beta_shifted)
        report.checks += 1
        if any(beta[i] < nu[i] for i in range(n)):
            report.add_failure(check="dominates-minimal", weight=beta, mult=mult)
        report.checks += 1
        if sum(beta[p:]) <= -d - c_p:
            report.add_failure(check="tail-sum", weight=beta, tail=sum(beta[p:]))
    return report


def cauchy_check(space: MatrixSpace, d: int) -> bool:
    """Degree-d instance of the Cauchy identity: the dimensions of the
    irreducible blocks of the degree-d polynomials on matrix space add up
    to the monomial count comb(mn + d - 1, d)."""
    _check_space(space)
    _check_int("d", d)
    if d < 0:
        raise ValueError("degree must be nonnegative")
    m, n = space.m, space.n
    total = 0
    for lam in partitions_of(d, n):
        total += _dim(pad(lam, m)) * _dim(lam)
    return total == comb(m * n + d - 1, d)


def hilbert_series(weight_set, dmax: int, box: int | None = None) -> list[int]:
    """Dimensions of the graded pieces of degree d = 0..dmax of the module
    whose weight set is given, on the weight set's own space: entry d is
    the sum of dim(V_lam^(m)) * dim(V_lam^(n)) over members lam of total
    size d. One walk over the members of size 0..dmax gives every degree.

    Sets consisting of partitions are summed exactly and refuse a box.
    Sets containing weights with negative entries are infinite in each
    degree direction, so an explicit box bound is required and the result
    is truncated to entries in [-box, box] (square spaces only).
    """
    _check_int("dmax", dmax)
    return _graded_dims(weight_set, 0, dmax, box)


def hilbert_function(weight_set, d: int, box: int | None = None) -> int:
    """Entry d of `hilbert_series`, from a walk over the members of size d
    alone. A set with negative entries also answers for d < 0; a set of
    partitions refuses it."""
    _check_int("d", d)
    return _graded_dims(weight_set, d, d, box)[0]


def _graded_dims(weight_set, d_lo: int, d_hi: int, box: int | None) -> list[int]:
    # The graded dimensions in degrees d_lo..d_hi, from one walk over the
    # runs of members of those sizes. Every set that gets here is on a
    # square space (sets of partitions are defined on square spaces only),
    # so the summand is dim(V_lam)^2. Along a run head + (x,), dim is
    # dim(head), a GL_{n-1} dimension, times the pairs (i, n) of the
    # product formula, prod_{i<n} (lam_i - x + n - i) / (n - i).
    if not isinstance(weight_set, WeightSet):
        raise TypeError(f"weight_set must be a WeightSet, got {weight_set!r}")
    if box is not None:
        _check_int("box", box)
    space = weight_set.space
    if weight_set.partitions_only:
        if box is not None:
            raise ValueError(
                f"--box does not apply to {weight_set.descriptor()}: "
                "a set of partitions is summed exactly, without truncation"
            )
        if d_lo < 0:
            raise ValueError("graded pieces of ideals sit in degrees d >= 0")
    elif box is None:
        raise ValueError(
            "weight sets with negative entries need an explicit box bound "
            "(the result is truncated)"
        )
    elif not space.is_square:
        raise ValueError("box-truncated graded dimensions need a square space")
    dims = [0] * (d_hi - d_lo + 1)
    n = space.n
    scale = factorial(n - 1)
    # A partition of size at most d_hi has entries in [0, d_hi].
    bound = max(d_hi, 0) if box is None else box
    for walk in weight_set._walks(bound, (d_lo, d_hi)):
        for head, low, high in walk:
            head_dim = _dim(head)
            shifted = [x + n - 1 - i for i, x in enumerate(head)]
            start = sum(head) - d_lo
            for x in range(low, high + 1):
                num = head_dim
                for y in shifted:
                    num *= y - x
                value, rem = divmod(num, scale)
                if rem:
                    raise ArithmeticError(f"product formula for {head + (x,)} left remainder {rem}")
                dims[start + x] += value * value
    return dims
