from math import comb

import pytest

from dethodge.matrixspace import MatrixSpace, Stratum, codim_stratum, dim_stratum
from dethodge.mhmweights import (
    filtration_support_check,
    generation_level_Sdet,
    local_cohomology_weight,
    local_weight_ledger_check,
    square_start_levels_consistency,
    square_weight_layer,
    start_level,
    weight_ledger,
)
from dethodge.repsets import in_Ukp
from dethodge.weights import delta_p, dominant_tuples


def test_square_weight_layer_values():
    space = MatrixSpace(2, 2)
    assert [square_weight_layer(space, p) for p in (2, 1, 0)] == [
        (4, 0),
        (5, -1),
        (6, -3),
    ]
    for n in range(1, 9):
        w_n, k_n = square_weight_layer(MatrixSpace(n, n), n)
        assert (w_n, k_n) == (n * n, 0)
    with pytest.raises(ValueError):
        square_weight_layer(MatrixSpace(3, 2), 1)


def test_square_weight_layer_consistency():
    for n in range(1, 9):
        space = MatrixSpace(n, n)
        for p in range(n + 1):
            w, k = square_weight_layer(space, p)
            assert w == n * n + n - p
            assert k == -comb(n - p + 1, 2)
            assert w == dim_stratum(Stratum(space, p)) - 2 * k


def test_start_level():
    space = MatrixSpace(3, 3)
    for p in range(4):
        _, k_p = square_weight_layer(space, p)
        assert start_level(space, p, k_p) == comb(3 - p, 2)
        assert start_level(space, p, 0) == codim_stratum(Stratum(space, p))
    assert start_level(space, 3, 0) == 0


def test_square_ledger_report():
    for n in range(1, 9):
        report = square_start_levels_consistency(MatrixSpace(n, n))
        assert report.ok, report.failures
    ws = [square_weight_layer(MatrixSpace(1, 1), p)[0] for p in (0, 1)]
    assert ws == [2, 1]


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
                    lhs = m * n + codim_stratum(Stratum(space, p)) - 2 * start_level(
                        space, p, k
                    )
                    assert lhs == dim_stratum(Stratum(space, p)) - 2 * k


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
                observed = in_Ukp(witness, p, k - comb(n - p + 1, 2), space)
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
def test_filtration_support_fails_at_the_boundary_of_a_shifted_core(monkeypatch, shift, n):
    # A U^p_k core whose levels sit one too high rejects the witness at the
    # threshold k = (n-p)^2; one whose levels sit one too low admits it at
    # k = (n-p)^2 - 1, which exists for p < n. Every other level agrees.
    import dethodge.repsets as repsets

    core = repsets._Ukp_level
    monkeypatch.setattr(
        repsets, "_Ukp_level", lambda lam, p, space: core(lam, p, space) + shift
    )
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


def test_ledger_invariants_raise_when_broken(monkeypatch):
    # The identities are checked with explicit raises, which `python -O`
    # keeps; a wrong stratum dimension must trip them.
    import dethodge.mhmweights as mhm

    monkeypatch.setattr(mhm, "dim_stratum", lambda stratum: -1)
    with pytest.raises(RuntimeError):
        square_weight_layer(MatrixSpace(3, 3), 1)
    with pytest.raises(RuntimeError):
        local_cohomology_weight(MatrixSpace(4, 2), 1)
    monkeypatch.setattr(mhm, "comb", lambda a, b: -a)
    with pytest.raises(RuntimeError):
        generation_level_Sdet(MatrixSpace(3, 3))
