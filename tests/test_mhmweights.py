import json
from math import comb

import pytest

from dethodge.cli import main
from dethodge.matrixspace import MatrixSpace, codim_stratum, dim_stratum
from dethodge.mhmweights import (
    _twist,
    filtration_support_check,
    generation_level_Sdet,
    local_cohomology_weight,
    local_weight_ledger_check,
    square_start_levels_consistency,
    start_level,
    weight_ledger,
)
from dethodge.repsets import WeightSet
from dethodge.weights import delta_p, dominant_tuples


def layers(space):
    """(layer, twist) of each row of the square ledger, p = n down to 0."""
    return [(row["layer"], row["twist"]) for row in weight_ledger(space)]


def test_square_weight_layer_values():
    assert layers(MatrixSpace(2, 2)) == [(4, 0), (5, -1), (6, -3)]
    for n in range(1, 9):
        assert layers(MatrixSpace(n, n))[0] == (n * n, 0)


def test_square_weight_layer_consistency():
    for n in range(1, 9):
        space = MatrixSpace(n, n)
        for p, (w, k) in zip(range(n, -1, -1), layers(space)):
            assert w == n * n + n - p
            assert k == -comb(n - p + 1, 2)
            assert w == dim_stratum(space, p) - 2 * k


def test_start_level():
    space = MatrixSpace(3, 3)
    for p in range(4):
        assert start_level(space, p, _twist(space, p)) == comb(3 - p, 2)
        assert start_level(space, p, 0) == codim_stratum(space, p)
    assert start_level(space, 3, 0) == 0


@pytest.mark.parametrize("k", [1.5, 2.0, True, None, "2"], ids=repr)
def test_start_level_refuses_a_twist_that_is_not_an_int(k):
    with pytest.raises(TypeError, match=f"^k must be an int, got {k!r}"):
        start_level(MatrixSpace(3, 3), 1, k)


def test_square_ledger_report():
    for n in range(1, 9):
        report = square_start_levels_consistency(MatrixSpace(n, n))
        assert report.ok, report.failures
    assert [w for w, _ in layers(MatrixSpace(1, 1))] == [1, 2]


@pytest.mark.parametrize("m,n", [(8, 8), (10, 8)])
def test_weight_ledger_beyond_the_golden_grid(m, n):
    # The golden files pin weights-table up to 5x5 and 7x5; these shapes
    # are checked against the closed forms instead.
    rows = weight_ledger(MatrixSpace(m, n))
    assert [row["p"] for row in rows] == list(range(n, -1, -1))
    last = "layer" if m == n else "degree"
    for row in rows:
        p, w, k = row["p"], row["weight"], row["twist"]
        assert list(row) == ["p", "dim", "codim", "weight", "twist", "start_level", last]
        d_p, c_p = p * (m + n - p), (m - p) * (n - p)
        assert (row["dim"], row["codim"]) == (d_p, c_p)
        assert w == d_p - 2 * k
        assert row["start_level"] == c_p + k
        if m == n:
            assert row["layer"] == w
        elif p == n:
            assert row["degree"] is None
        else:
            assert row["degree"] == 1 + (n - p) * (m - n)


def test_local_cohomology_weight_values():
    space = MatrixSpace(3, 2)
    assert local_cohomology_weight(space, 1) == (8, -2)
    assert local_cohomology_weight(space, 0) == (10, -5)
    assert local_cohomology_weight(space, 2) == (6, 0)
    with pytest.raises(ValueError):
        local_cohomology_weight(MatrixSpace(2, 2), 0)


def test_local_weight_ledger():
    report = local_weight_ledger_check(8)
    assert report.ok, report.failures
    assert report.checks > 0


def test_generation_level():
    assert generation_level_Sdet(MatrixSpace(2, 2)) == 1
    assert generation_level_Sdet(MatrixSpace(1, 1)) == 0
    assert generation_level_Sdet(MatrixSpace(5, 5)) == 10


def test_start_level_matches_weight():
    # mn + c_p - 2*(c_p + k) and d_p - 2k are the same number
    for n in range(1, 7):
        for m in range(n, 7):
            space = MatrixSpace(m, n)
            for p in range(n + 1):
                for k in range(-4, 5):
                    lhs = m * n + codim_stratum(space, p) - 2 * start_level(
                        space, p, k
                    )
                    assert lhs == dim_stratum(space, p) - 2 * k


def test_filtration_support_small():
    for n in range(1, 5):
        report = filtration_support_check(MatrixSpace(n, n), 2 * n * n, 3 * n)
        assert report.ok, report.failures[:5]
    with pytest.raises(ValueError):
        filtration_support_check(MatrixSpace(3, 2), 4, 9)
    with pytest.raises(ValueError):
        filtration_support_check(MatrixSpace(3, 3), 4, 2)


def scan_support_failures(space, kmax, box):
    # Slow reference for filtration_support_check: below the threshold,
    # every box tail is tested against every level k.
    n = space.n
    failures = []
    for p in range(n + 1):
        threshold = (n - p) ** 2
        tail_sums = [sum(t) for t in dominant_tuples(n - p, -box, p - n)]
        witness = delta_p(p, space)
        for k in range(kmax + 1):
            expected = k >= threshold
            if expected:
                observed = WeightSet(space, "Ukp", p, k - comb(n - p + 1, 2)).contains(witness)
            else:
                observed = not all(s < -k for s in tail_sums)
            if observed != expected:
                failures.append({"p": p, "k": k, "expected": expected, "observed": observed})
    return failures


def test_filtration_support_matches_the_per_k_scan():
    for n in range(1, 7):
        space, kmax, box = MatrixSpace(n, n), 2 * n * n, 3 * n
        report = filtration_support_check(space, kmax, box)
        assert report.failures == scan_support_failures(space, kmax, box) == []
        assert report.checks == (n + 1) * (kmax + 1)


@pytest.mark.parametrize("shift", [1, -1], ids=["strict-core", "loose-core"])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_filtration_support_fails_at_the_boundary_of_a_shifted_core(shift_rows, shift, n):
    # U^p_k rows whose levels sit one too high (their tail constant moved
    # up by one) reject the witness at the threshold k = (n-p)^2; one too
    # low admits it at k = (n-p)^2 - 1, which exists for p < n. Every
    # other level agrees.
    shift_rows("Ukp", shift)
    kmax = 2 * n * n
    report = filtration_support_check(MatrixSpace(n, n), kmax, 3 * n)
    boundary = [(p, (n - p) ** 2 - (shift < 0)) for p in range(n + 1)]
    expected = [
        {"p": p, "k": k, "expected": shift > 0, "observed": shift < 0}
        for p, k in boundary
        if 0 <= k <= kmax
    ]
    assert expected
    assert report.failures == expected
    assert report.checks == (n + 1) * (kmax + 1)


def test_twist_matches_the_closed_forms():
    # The twist, and the weight d_p - 2k it gives, against the paper's
    # closed forms: k_p, w_p for square spaces and k'_p, w'_p for m > n.
    for m in range(1, 13):
        for n in range(1, m + 1):
            space = MatrixSpace(m, n)
            for p in range(n + 1):
                k = _twist(space, p)
                w = dim_stratum(space, p) - 2 * k
                if m == n:
                    assert (k, w) == (-comb(n - p + 1, 2), n * n + n - p)
                    assert weight_ledger(space)[n - p]["layer"] == w
                else:
                    assert k == -comb(n - p + 1, 2) - (n - p) * (m - n)
                    assert w == m * n + (n - p) * (m - n + 1)
                    assert local_cohomology_weight(space, p) == (w, k)


def test_a_broken_stratum_dimension_fails_the_weights_suite(monkeypatch, capsys):
    # The ledger's identities are checks the suite records, not raises: a
    # wrong stratum dimension makes `verify weights` exit 1 with the
    # square ledgers and the local ledger failed, and no traceback.
    import dethodge.mhmweights as mhm

    monkeypatch.setattr(mhm, "dim_stratum", lambda space, p: -1)
    code = main(["verify", "weights", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out)
    assert payload["ok"] is False
    failed = [report for report in payload["reports"] if not report["ok"]]
    assert [report["name"] for report in failed] == [
        "square-weight-ledger"
    ] * 8 + ["local-cohomology-weights"]
    for report in failed[:8]:
        assert {f["check"] for f in report["failures"]} == {"weight-step"}
    assert {f["check"] for f in failed[8]["failures"]} == {"degree-identity"}
