"""The verification suites behind `dethodge verify`, and the one place that
defines their grids.

Each suite returns its list of reports and takes only what it uses: the
oracle suite its seed, the decomposition suite its spaces. `run` runs one
suite, or all of them, by name. The acceptance tests run these same
suites. `oracle_check` is the one oracle grid: the oracle suite runs it
at fixed sizes and `dethodge oracle-check` at the sizes it is given.
"""

from __future__ import annotations

from .hodgeideals import verify_equivalence
from .matrixspace import MatrixSpace
from .mhmweights import (
    filtration_support_check,
    local_weight_ledger_check,
    square_start_levels_consistency,
)
from .oracle import RankConstrainedSampler, dcep_cross_validation_upto
from .qseries import (
    closed_form_OYp,
    pushforward_structure_checks,
    qbinomial_identity_verdicts,
    solve_pushforward_OYp,
)
from .reporting import VerificationReport
from .weights import partitions_of

# n -> box bound of the weights walked, for every k in 0..5.
EQUIVALENCE_GRID = {1: 12, 2: 12, 3: 10, 4: 8}

# Every space with m <= 6 and n <= 4.
DESK_SPACES = tuple(
    MatrixSpace(m, n) for m in range(1, 7) for n in range(1, min(m, 4) + 1)
)


def equivalence() -> list[VerificationReport]:
    return [
        report
        for n, box in EQUIVALENCE_GRID.items()
        for report in verify_equivalence(MatrixSpace(n, n), range(6), box)
    ]


def qidentity() -> list[VerificationReport]:
    cap = 12
    report = VerificationReport("q-binomial-identity", {"max": cap})
    for a in range(cap + 1):
        for b in range(cap + 1):
            for c, holds in enumerate(qbinomial_identity_verdicts(a, b, cap)):
                report.checks += 1
                if not holds:
                    report.add_failure(a=a, b=b, c=c)
    return [report]


def decomposition(spaces) -> list[VerificationReport]:
    """The solver against the closed form, as one report, then the
    structure checks of every table."""
    reports = []
    solver_report = VerificationReport("solver-vs-closed-form", {})
    for space in spaces:
        for p in range(space.n + 1):
            solver_report.checks += 1
            if solve_pushforward_OYp(space, p) != closed_form_OYp(space, p):
                solver_report.add_failure(m=space.m, n=space.n, p=p)
            reports.append(pushforward_structure_checks(space, p))
    return [solver_report] + reports


def oracle_check(space, p, lmax, dmax, trials, seed) -> list[VerificationReport]:
    """The line test against the weight predicate on the rank-p stratum,
    for every partition of size at most lmax and d = 1..dmax: one report
    per d. Lines through rank p-1 points have entries bounded by
    B = max(7, lmax), here and nowhere else."""
    lambdas = [lam for size in range(lmax + 1) for lam in partitions_of(size, space.n)]
    sampler = RankConstrainedSampler(space, p - 1, max(7, lmax), seed)
    return dcep_cross_validation_upto(space, lambdas, p, dmax, sampler, trials)


def oracle(seed) -> list[VerificationReport]:
    return [
        report
        for n in (2, 3)
        for p in range(1, n + 1)
        for report in oracle_check(MatrixSpace(n, n), p, 6, 4, 8, seed)
    ]


def weights() -> list[VerificationReport]:
    reports = [square_start_levels_consistency(MatrixSpace(n, n)) for n in range(1, 9)]
    reports.append(local_weight_ledger_check(8))
    for n in range(1, 7):
        reports.append(
            filtration_support_check(MatrixSpace(n, n), 2 * n * n, 3 * n)
        )
    return reports


SUITES = {
    "equivalence": equivalence,
    "qidentity": qidentity,
    "decomposition": decomposition,
    "oracle": oracle,
    "weights": weights,
}


def run(name: str, seed, spaces) -> list[VerificationReport]:
    """The reports of the named suite, or of every suite in turn for "all".
    Only the oracle suite uses the seed, and only the decomposition suite
    the spaces."""
    inputs = {"decomposition": (spaces,), "oracle": (seed,)}
    names = list(SUITES) if name == "all" else [name]
    return [report for n in names for report in SUITES[n](*inputs.get(n, ()))]
