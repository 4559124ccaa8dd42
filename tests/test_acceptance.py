"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every check is exact except the sampled oracle agreement, which is
one-sided with a fixed seed and a single re-sample on disagreement.
"""

import time
from math import comb

from dethodge import suites
from dethodge.characters import (
    cauchy_check,
    hilbert_function,
    tensor_decomposition_check,
)
from dethodge.hodgeideals import in_hodge_ideal, in_symbolic_power
from dethodge.matrixspace import MatrixSpace
from dethodge.mhmweights import (
    generation_level_Sdet,
    local_cohomology_weight,
    square_start_levels_consistency,
    start_level,
    weight_ledger,
)
from dethodge.oracle import ideal_power_hilbert
from dethodge.qseries import LaurentPoly, pushforward_DpY
from dethodge.repsets import (
    WeightSet,
    classify,
    compose_weight,
    decompose_weight,
    minimal_elements,
)
from dethodge.weights import dominant_tuples, leq, partitions_of

SEED = 1729


def _passed(num, text):
    print(f"[criterion {num:02d}] PASS - {text}")


def test_criterion_01_filtration_ideal_equivalence():
    start = time.perf_counter()
    reports = suites.equivalence()
    assert {r.params["n"] for r in reports} >= {1, 2, 3, 4}
    for report in reports:
        assert report.ok, (report.params, report.failures[:3])
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"equivalence sweep took {elapsed:.1f}s"
    _passed(1, f"Hodge ideal / filtration equivalence, n<=4 ({elapsed:.1f}s)")


def test_criterion_02_low_hodge_ideals():
    for n in range(1, 6):
        space = MatrixSpace(n, n)
        partitions = [lam for lam in dominant_tuples(n, -6, 6) if lam[-1] >= 0]
        for mu in partitions:
            assert in_hodge_ideal(mu, 0, space)
            assert in_hodge_ideal(mu, 1, space)
            if n >= 2:
                assert in_hodge_ideal(mu, 2, space) == in_symbolic_power(
                    mu, n - 1, 1, space
                )
    _passed(2, "I_0 = I_1 = S and I_2 = J_(n-1) as predicates, n<=5")


def test_criterion_03_qbinomial_identity():
    start = time.perf_counter()
    [report] = suites.qidentity()
    assert report.params["max"] >= 12 and report.checks == (report.params["max"] + 1) ** 3
    assert report.ok, report.failures[:3]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"identity sweep took {elapsed:.1f}s"
    _passed(3, f"q-binomial convolution identity, a,b,c<=12 ({elapsed:.1f}s)")


def test_criterion_04_solver_equals_closed_form():
    solver_report = suites.decomposition(suites.DESK_SPACES)[0]
    assert solver_report.name == "solver-vs-closed-form"
    assert solver_report.checks == sum(space.n + 1 for space in suites.DESK_SPACES)
    assert solver_report.ok, solver_report.failures
    _passed(4, "triangular solver matches the closed form, m<=6, n<=4")


def test_criterion_05_pushforward_sanity_cases():
    one = LaurentPoly({0: 1})
    for n in range(1, 6):
        table = pushforward_DpY(MatrixSpace(n + 1, n), n)
        assert table.entries == {n: one, n - 1: one}
    blow_up = pushforward_DpY(MatrixSpace(2, 1), 1)
    assert blow_up.entries == {1: one, 0: one}
    _passed(5, "adjacent-size and blow-up pushforwards are two summands in degree 0")


def test_criterion_06_pushforward_structure():
    for report in suites.decomposition(suites.DESK_SPACES)[1:]:
        assert report.ok, (report.params, report.failures)
    _passed(6, "summand range, top degree, and middle degree checks, m<=6, n<=4")


def test_criterion_07_weight_ledger():
    for n in range(1, 9):
        space = MatrixSpace(n, n)
        rows = weight_ledger(space)
        for row in rows:
            p, w, k = row["p"], row["layer"], row["twist"]
            assert w == n * n + n - p
            assert k == -comb(n - p + 1, 2)
            assert w == p * (2 * n - p) - 2 * k
            assert start_level(space, p, k) == comb(n - p, 2)
        for row, after in zip(rows, rows[1:]):
            assert after["layer"] - row["layer"] == 1
        assert generation_level_Sdet(space) == comb(n, 2)
        assert square_start_levels_consistency(space).ok
    for m in range(2, 9):
        for n in range(1, m):
            space = MatrixSpace(m, n)
            for p in range(n + 1):
                w, k = local_cohomology_weight(space, p)
                assert w == m * n + (n - p) * (m - n + 1)
                assert w == p * (m + n - p) - 2 * k
                assert w == (n - p) * (m - n) + m * n + n - p
    _passed(7, "square and local-cohomology weight ledgers, sizes <= 8")


def test_criterion_08_filtration_start_levels():
    reports = suites.weights()
    support = [r for r in reports if r.name == "filtration-support"]
    assert {r.params["n"] for r in support} >= set(range(1, 7))
    for report in reports:
        assert report.ok, (report.name, report.params, report.failures[:5])
    _passed(8, "level-k support nonempty iff k >= (n-p)^2, n<=6, box 3n")


def test_criterion_09_oracle_agreement():
    start = time.perf_counter()
    reports = suites.oracle(SEED)
    covered = {(r.params["n"], r.params["p"], r.params["d"]) for r in reports}
    assert covered >= {(n, p, d) for n in (2, 3) for p in range(1, n + 1) for d in range(1, 5)}
    for report in reports:
        assert report.seed == SEED
        assert report.ok, (report.params, report.failures)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _passed(9, f"differential oracle agrees with the weight predicate ({elapsed:.1f}s)")


def test_criterion_10_hilbert_oracle():
    space = MatrixSpace(2, 2)
    for k in range(7):
        ideal = WeightSet(space, "HodgeIdeal", param=k)
        truth = ideal_power_hilbert(space, k, 12)
        for d in range(13):
            assert hilbert_function(ideal, d) == truth[d], (k, d)
    for m in range(1, 4):
        for n in range(1, m + 1):
            for d in range(11):
                assert cauchy_check(MatrixSpace(m, n), d)
    _passed(10, "graded dimensions match ideal powers (n=2) and the Cauchy count")


def test_criterion_11_minimal_elements():
    for n in (1, 2, 3):
        space = MatrixSpace(n, n)
        box = list(dominant_tuples(n, -8, 8))
        for p in range(n + 1):
            for d in range(5):
                mins = minimal_elements(p, d, space)
                for a in mins:
                    for b in mins:
                        assert a == b or not leq(a, b)
                members = [
                    lam
                    for lam in box
                    if classify(lam, space) == p
                    and sum(lam[p:]) == -d - (n - p) ** 2
                ]
                for lam in members:
                    assert any(leq(mn, lam) for mn in mins), (p, d, lam)
                    mu, gamma = decompose_weight(lam, p, space)
                    assert compose_weight(mu, gamma, p, space) == lam
    _passed(11, "layer minimal elements: covering, incomparability, round-trip")


def test_criterion_12_tensor_step():
    for n in (1, 2, 3):
        space = MatrixSpace(n, n)
        for p in range(n + 1):
            gammas = [g for size in range(4) for g in partitions_of(size, p)]
            mus = [mu for size in range(4) for mu in partitions_of(size, n - p)]
            for gamma in gammas:
                for mu in mus:
                    report = tensor_decomposition_check(gamma, p, mu, space)
                    assert report.ok, (n, p, gamma, mu, report.failures)
    _passed(12, "tensor products of layer generators decompose as required")
