"""Dimension and multiplicity arithmetic for GL representations.

Dimensions come from the standard product formula over positive roots,
tensor product multiplicities from direct enumeration of
Littlewood-Richardson skew tableaux (desk scale, with a hard size cap),
and graded dimensions of weight-set modules from one walk over the
members of a set: `hilbert_series` walks the rows of a set's pieces once
over the interval of totals 0..dmax, as runs head + (x,) of the last
entry, and adds each member's squared dimension to its degree (every set
summed is on a square space). Along a run the dimension is dim(head), one
GL_{n-1} product per head, times the n-1 factors that pair the last
entry with the others. `dim_irrep` checks its weight and hands it to the
unchecked product `_dim`, which the sums call directly on the heads their
walks produce. A Cauchy-type identity against a plain binomial count
keeps the dimension formula honest.
"""

from __future__ import annotations

from math import comb, factorial

from .matrixspace import MatrixSpace, _check_int, _check_space, codim_stratum
from .reporting import VerificationReport
from .repsets import WeightSet, compose_weight, lambda_p_mu
from .weights import check_weight, is_partition, pad, partitions_of, strip_zeros

LR_SIZE_CAP = 20


def dim_irrep(lam, N: int) -> int:
    """Dimension of the irreducible GL_N representation with highest
    weight lam, by the product formula

        prod_{i<j} (lam_i - lam_j + j - i) / (j - i).

    Invariant under adding a constant to every entry (determinant twist).
    Pairs with lam_i = lam_j contribute 1 and are skipped, so the work
    grows with the pairs of unequal entries, not with N^2.
    """
    return _dim(check_weight(lam, N))


def _dim(lam: tuple[int, ...]) -> int:
    # dim_irrep for a tuple already known to be dominant, of length N.
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


def lr_coefficient(gamma, beta, lam) -> int:
    """Littlewood-Richardson coefficient: the multiplicity of the irrep of
    highest weight lam inside the tensor product indexed by gamma and
    beta, computed by counting LR skew tableaux of shape lam/gamma and
    content beta. Symmetric in gamma and beta; zero when the sizes do not
    add up. Inputs are capped at |lam| <= 20."""
    g = _as_partition(gamma)
    b = _as_partition(beta)
    l = _as_partition(lam)
    if sum(l) > LR_SIZE_CAP:
        raise ValueError(f"|lam| = {sum(l)} exceeds the desk-scale cap {LR_SIZE_CAP}")
    if sum(g) + sum(b) != sum(l):
        return 0
    if len(g) > len(l) or any(g[i] > l[i] for i in range(len(g))):
        return 0
    if not b:
        return 1 if g == l else 0

    # Cells of the skew shape in reverse reading order (each row right to
    # left); filling in this order lets the lattice-word condition be
    # enforced on prefixes as we go.
    inner = g + (0,) * (len(l) - len(g))
    cells = []
    for r in range(len(l)):
        cells.extend((r, c) for c in range(l[r] - 1, inner[r] - 1, -1))

    nvals = len(b)
    counts = [0] * (nvals + 1)
    filled: dict[tuple[int, int], int] = {}

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        above = filled.get((r - 1, c))
        right = filled.get((r, c + 1))
        lo = 1 if above is None else above + 1
        hi = nvals if right is None else right
        total = 0
        for v in range(lo, hi + 1):
            if counts[v] >= b[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            counts[v] += 1
            filled[(r, c)] = v
            total += place(idx + 1)
            counts[v] -= 1
            del filled[(r, c)]
        return total

    return place(0)


def tensor_expansion(nu, gamma, max_parts: int) -> dict[tuple[int, ...], int]:
    """Decomposition of the tensor product of the irreps indexed by the
    partitions nu and gamma in GL with at most max_parts rows, as a map
    constituent -> multiplicity (constituents zero-padded to max_parts)."""
    nu = _as_partition(nu)
    gamma = _as_partition(gamma)
    total = sum(nu) + sum(gamma)
    out: dict[tuple[int, ...], int] = {}
    for lam in partitions_of(total, max_parts):
        c = lr_coefficient(nu, gamma, lam)
        if c:
            out[lam] = c
    return out


def tensor_decomposition_check(gamma, p: int, mu, space: MatrixSpace) -> VerificationReport:
    """Verify the tensor step that builds a layer of the rank-p support
    out of its minimal elements: the product of the irrep of gamma (at
    most p parts) with the irrep of the minimal element attached to mu
    contains their sum with multiplicity one, and every other constituent
    beta dominates the minimal element with tail sum strictly above
    -|mu| - c_p. Non-partition weights are shifted to partitions before
    the LR computation; a uniform shift does not change multiplicities."""
    _check_space(space)
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
