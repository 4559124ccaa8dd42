"""Weight and Tate-twist ledger for the pure modules on matrix space.

One invariant drives everything here: a pure module supported on the
rank-p locus with Tate twist k has weight d_p - 2k, and its Hodge
filtration starts in level c_p + k. The twist is stated once, in
`_twist`, for the weight-graded layers of the localization at the
determinant (m = n) and the local cohomology modules (m > n); the
functions below read it per stratum, and the consistency checks record
a failure where the ledger and the closed forms of the weights differ.
"""

from __future__ import annotations

from math import comb

from .matrixspace import (
    MatrixSpace,
    _check_int,
    _check_space,
    codim_stratum,
    dim_stratum,
    local_cohomology_degree,
)
from .reporting import VerificationReport
from .repsets import _parameter_interval, _rows
from .weights import delta_p


def start_level(space: MatrixSpace, p: int, k: int) -> int:
    """First nonzero level c_p + k of the Hodge filtration on the rank-p
    simple module with Tate twist k."""
    _check_int("k", k)
    return codim_stratum(space, p) + k


def _twist(space: MatrixSpace, p: int) -> int:
    """The Tate twist -comb(n-p+1, 2) - (n-p)(m-n) of the pure module on
    the rank-p stratum: at m = n the determinant localization's weight
    layer's, for m > n the local cohomology module's (Raicu-Weyman)."""
    n = space.n
    return -comb(n - p + 1, 2) - (n - p) * (space.m - n)


def square_start_levels_consistency(space: MatrixSpace) -> VerificationReport:
    """Numerical sanity of the square weight ledger: w_p strictly drops by
    exactly 1 with p, the start levels l_p = comb(n-p, 2) satisfy
    l_{p+1} + (n-p-1) <= l_p with equality, and d_p - w_p is even."""
    _check_space(space)
    if not space.is_square:
        raise ValueError("this consistency check needs m = n")
    n = space.n
    report = VerificationReport("square-weight-ledger", {"n": n})
    rows = weight_ledger(space)[::-1]
    for p, row in enumerate(rows):
        report.checks += 1
        if row["start_level"] != comb(n - p, 2):
            report.add_failure(check="start-level", p=p, level=row["start_level"])
        report.checks += 1
        if (row["dim"] - row["weight"]) % 2:
            report.add_failure(check="parity", p=p, weight=row["weight"])
    for p, (row, after) in enumerate(zip(rows, rows[1:])):
        w, w_next = row["weight"], after["weight"]
        report.checks += 1
        if w - w_next != 1:
            report.add_failure(check="weight-step", p=p, w=w, w_next=w_next)
        level, l_next = row["start_level"], after["start_level"]
        report.checks += 1
        if l_next + (n - p - 1) != level:
            report.add_failure(check="level-step", p=p, l=level, l_next=l_next)
    return report


def local_cohomology_weight(space: MatrixSpace, p: int) -> tuple[int, int]:
    """(w'_p, k'_p) = (d_p - 2k'_p, `_twist`) for the local cohomology
    module supported in the singular locus whose underlying simple module
    sits on the rank-p stratum (m > n); in closed form
    w'_p = mn + (n-p)*(m-n+1). The degenerate case p = n is admitted as
    the localization layer in cohomological degree 0: w' = mn, k' = 0."""
    d_p = dim_stratum(space, p)
    if space.m <= space.n:
        raise ValueError("local cohomology weights need m > n")
    k = _twist(space, p)
    return d_p - 2 * k, k


def filtration_support_check(space: MatrixSpace, kmax: int, box: int) -> VerificationReport:
    """The level-k piece of the Hodge filtration on the rank-p simple
    module (square spaces) is nonzero exactly when k >= (n-p)^2, i.e. the
    support set U^p_{k - comb(n-p+1, 2)} is nonempty exactly then.

    Every level is decided by one witness, the distinguished weight
    delta^p = ((p-n)^n), whose U^p level (the least k with delta^p in
    U^p_k) is read once per stratum and compared with every k. Membership
    in W^p bounds every tail entry lam_{p+1}, ..., lam_n by p-n, so every
    tail sum is at most -(n-p)^2, and delta^p attains that bound. U^p_k
    asks only for a tail sum of at least -comb(n-p+1, 2) - k, so it is an
    up-set in the tail: raising a member's tail entries to p-n keeps it a
    member. Hence U^p_k is nonempty exactly when it contains delta^p.
    Membership constrains the head only through lam_p >= p-n, which the
    constant head p-n satisfies, so the same holds inside any box with
    bound >= n, which contains delta^p: the box is validated and
    recorded, but not walked.
    """
    _check_space(space)
    _check_int("kmax", kmax)
    _check_int("box", box)
    if not space.is_square:
        raise ValueError("the filtration support check needs m = n")
    n = space.n
    if box < n:
        raise ValueError("box bound must be at least n to contain the witnesses")
    report = VerificationReport(
        "filtration-support", {"n": n, "kmax": kmax, "box": box}
    )
    for p in range(n + 1):
        threshold = (n - p) ** 2
        rows = _rows("Ukp", space, p)
        level = _parameter_interval(rows, delta_p(p, space))[0] - _twist(space, p)
        for k in range(kmax + 1):
            expected = k >= threshold
            observed = k >= level
            report.checks += 1
            if observed != expected:
                report.add_failure(p=p, k=k, expected=expected, observed=observed)
    return report


def local_weight_ledger_check(mmax: int) -> VerificationReport:
    """Arithmetic consistency of the local cohomology weights for all
    spaces with m <= mmax: the weight matches d_p - 2k' and the degree
    identity w' = (n-p)(m-n) + mn + n - p."""
    _check_int("mmax", mmax)
    report = VerificationReport("local-cohomology-weights", {"mmax": mmax})
    for m in range(2, mmax + 1):
        for n in range(1, m):
            for row in weight_ledger(MatrixSpace(m, n)):
                p, w, k = row["p"], row["weight"], row["twist"]
                report.checks += 1
                if w != row["dim"] - 2 * k:
                    report.add_failure(check="weight-twist", m=m, n=n, p=p, w=w, k=k)
                report.checks += 1
                if w != (n - p) * (m - n) + (m * n + n - p):
                    report.add_failure(check="degree-identity", m=m, n=n, p=p, w=w)
    return report


def weight_ledger(space: MatrixSpace) -> list[dict]:
    """The per-stratum ledger, p = n down to 0: one row per stratum with
    its dimension d_p, codimension c_p, weight, Tate twist and start level.
    The twist is the weight layer's for square spaces, and the row's
    "layer" is its weight; for m > n the twist is the local cohomology
    module's, and the row's "degree" is its cohomological degree (None at
    p = n, the localization itself)."""
    _check_space(space)
    rows = []
    for p in range(space.n, -1, -1):
        d_p, k = dim_stratum(space, p), _twist(space, p)
        row = {"p": p, "dim": d_p, "codim": codim_stratum(space, p)}
        row.update(weight=d_p - 2 * k, twist=k, start_level=start_level(space, p, k))
        if space.is_square:
            row["layer"] = row["weight"]
        else:
            row["degree"] = local_cohomology_degree(space, p) if p < space.n else None
        rows.append(row)
    return rows


def generation_level_Sdet(space: MatrixSpace) -> int:
    """Generation level comb(n, 2) of the Hodge filtration on the
    localization at the determinant: the largest start level in
    `weight_ledger`, comb(n-p, 2) at p = 0."""
    _check_space(space)
    if not space.is_square:
        raise ValueError("the determinant localization needs m = n")
    return max(row["start_level"] for row in weight_ledger(space))
