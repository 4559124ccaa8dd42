import json
import random
from fractions import Fraction
from math import inf

import pytest

from dethodge import oracle
from dethodge.hodgeideals import in_symbolic_power
from dethodge.matrixspace import MatrixSpace
from dethodge.oracle import (
    RankConstrainedSampler,
    dcep_cross_validation_upto,
    ideal_power_hilbert,
    line_vanishing_order,
)
from dethodge.weights import partitions_of

from derivative_reference import (
    ExactPoly,
    highest_weight_vector,
    minor,
    symbolic_membership,
    variable_matrix,
)

S22 = MatrixSpace(2, 2)
S33 = MatrixSpace(3, 3)


def matrix_rank(rows):
    """Independent rank computation over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][c]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                factor = mat[r][c] * inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def numeric_det(rows):
    """Fraction-free determinant oracle for small integer matrices."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * numeric_det(sub)
    return total


def test_exactpoly_arithmetic():
    x = ExactPoly.variable(2, 0)
    y = ExactPoly.variable(2, 1)
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert f.evaluate((3, 2)) == 5
    assert (x * y).total_degree == 2
    assert ((x + 1) ** 3).evaluate((2, 0)) == 27
    assert x.derivative(0) == ExactPoly.constant(2, 1)
    assert x.derivative(1).is_zero
    assert ((x**3).derivative(0)).evaluate((2, 0)) == 12


def test_minor_examples():
    one_by_one = minor(S22, (0,), (1,))
    assert one_by_one == variable_matrix(S22)[0][1]
    det2 = minor(S22, (0, 1), (0, 1))
    xs = variable_matrix(S22)
    assert det2 == xs[0][0] * xs[1][1] - xs[0][1] * xs[1][0]
    det3 = minor(S33, (0, 1, 2), (0, 1, 2))
    assert len(det3._c) == 6
    assert all(v in (-1, 1) for v in det3._c.values())


def test_minor_validation():
    with pytest.raises(ValueError):
        minor(S22, (0, 1), (0,))
    with pytest.raises(ValueError):
        minor(S22, (0, 0), (0, 1))
    with pytest.raises(ValueError):
        minor(S22, (0, 2), (0, 1))


def test_minor_matches_numeric_determinant():
    sampler = RankConstrainedSampler(S33, 3, bound=5, seed=11)
    det3 = minor(S33, (0, 1, 2), (0, 1, 2))
    for _ in range(5):
        mat = sampler.sample()
        flat = [x for row in mat for x in row]
        assert det3.evaluate(flat) == numeric_det([list(r) for r in mat])


def test_det_at_identity_and_singular_points():
    det2 = minor(S22, (0, 1), (0, 1))
    assert det2.evaluate((1, 0, 0, 1)) == 1
    sampler = RankConstrainedSampler(S22, 1, bound=6, seed=3)
    for _ in range(8):
        flat = [x for row in sampler.sample() for x in row]
        assert det2.evaluate(flat) == 0


def test_highest_weight_vector_examples():
    xs = variable_matrix(S22)
    assert highest_weight_vector((1, 1), S22) == minor(S22, (0, 1), (0, 1))
    assert highest_weight_vector((2, 0), S22) == xs[0][0] ** 2
    assert highest_weight_vector((2, 1), S22) == xs[0][0] * minor(S22, (0, 1), (0, 1))
    assert highest_weight_vector((3, 1), S22).total_degree == 4
    with pytest.raises(ValueError):
        highest_weight_vector((1, -1), S22)


def test_sampler_rank_and_determinism():
    space = MatrixSpace(4, 3)
    for rank in range(4):
        sampler = RankConstrainedSampler(space, rank, bound=7, seed=42)
        twin = RankConstrainedSampler(space, rank, bound=7, seed=42)
        for _ in range(6):
            mat = sampler.sample()
            assert matrix_rank(mat) <= rank
            assert mat == twin.sample()
    other = RankConstrainedSampler(space, 2, bound=7, seed=43)
    assert other.sample() != RankConstrainedSampler(space, 2, 7, 42).sample()


def test_sampler_validation():
    with pytest.raises(ValueError):
        RankConstrainedSampler(S22, 3, 7, 0)
    with pytest.raises(ValueError):
        RankConstrainedSampler(S22, 1, 0, 0)


DET2 = minor(S22, (0, 1), (0, 1))
M2 = minor(S33, (0, 1), (0, 1))
MIXED = variable_matrix(S33)[0][0] * M2


@pytest.mark.parametrize(
    "f,p,d,sampler,member",
    [
        (DET2, 1, 2, RankConstrainedSampler(S22, 0, 7, 9), True),
        (DET2, 1, 3, RankConstrainedSampler(S22, 0, 7, 9), False),
        (minor(S33, (0, 1, 2), (0, 1, 2)), 2, 2, RankConstrainedSampler(S33, 1, 7, 9), True),
        (MIXED, 2, 2, RankConstrainedSampler(S33, 1, 7, 9), False),
        (MIXED, 2, 0, RankConstrainedSampler(S33, 1, 7, 9), True),
        (MIXED, 2, -1, RankConstrainedSampler(S33, 1, 7, 9), True),
        # At d = 1: does f vanish on the rank p-1 locus? The 2x2 minors
        # vanish on rank <= 1 but not on rank <= 2; x00 on neither.
        (DET2, 2, 1, RankConstrainedSampler(S22, 1, 7, 5), True),
        (variable_matrix(S22)[0][0], 2, 1, RankConstrainedSampler(S22, 1, 7, 5), False),
        (M2, 2, 1, RankConstrainedSampler(S33, 1, 7, 5), True),
        (M2, 3, 1, RankConstrainedSampler(S33, 2, 7, 5), False),
    ],
    ids=[
        "det2-p1-d2", "det2-p1-d3", "det3-p2-d2", "mixed-p2-d2", "mixed-p2-d0",
        "mixed-p2-d-1", "det2-p2-d1", "x00-p2-d1", "m2-p2-d1", "m2-p3-d1",
    ],
)
def test_symbolic_membership_examples(f, p, d, sampler, member):
    assert symbolic_membership(f, p, d, sampler) == member


def test_symbolic_membership_bound_guard():
    f = DET2**4  # degree 8 beyond the default bound
    with pytest.raises(ValueError):
        symbolic_membership(f, 2, 1, RankConstrainedSampler(S22, 1, bound=7, seed=0))
    assert symbolic_membership(f, 2, 1, RankConstrainedSampler(S22, 1, bound=8, seed=0))


def test_symbolic_membership_monotone_in_d():
    sampler = RankConstrainedSampler(S33, 1, bound=7, seed=13)
    for lam in [(2, 2, 0), (2, 1, 1), (3, 2, 1)]:
        f = highest_weight_vector(lam, S33)
        for d in range(4, 1, -1):
            if symbolic_membership(f, 2, d, sampler):
                assert symbolic_membership(f, 2, d - 1, sampler)


def test_dcep_cross_validation_small():
    for n, p_range in ((2, (1, 2)), (3, (1, 2, 3))):
        space = MatrixSpace(n, n)
        lambdas = [lam for size in range(5) for lam in partitions_of(size, n)]
        for p in p_range:
            sampler = RankConstrainedSampler(space, p - 1, bound=7, seed=1729)
            reports = dcep_cross_validation_upto(space, lambdas, p, 3, sampler)
            assert [r.params["d"] for r in reports] == [1, 2, 3]
            for report in reports:
                assert report.ok, report.failures
                assert report.seed == 1729
                assert len(report.details) == len(lambdas)


def test_dcep_named_cases():
    space = MatrixSpace(3, 3)
    lambdas = [(1, 1, 0), (1, 1, 1), (2, 1, 1), (2, 2, 0)]
    sampler = RankConstrainedSampler(space, 1, bound=7, seed=8)
    reports = dcep_cross_validation_upto(space, lambdas, 2, 3, sampler)
    assert len(reports) == 3 and all(r.ok for r in reports)


def test_ideal_power_hilbert():
    table = ideal_power_hilbert(S22, 2, 6)
    assert table[2] == 10
    assert table[0] == 0
    for k in (0, 1):
        table = ideal_power_hilbert(S22, k, 6)
        from math import comb

        assert all(table[d] == comb(d + 3, 3) for d in range(7))
    assert ideal_power_hilbert(S22, 4, 4)[2] == 0
    with pytest.raises(ValueError):
        ideal_power_hilbert(MatrixSpace(3, 3), 2, 6)
    with pytest.raises(ValueError):
        ideal_power_hilbert(S22, 2, 17)


def test_det_matches_the_cofactor_expansion():
    for size in range(1, 6):
        for rank in range(size + 1):
            s = RankConstrainedSampler(MatrixSpace(size, size), rank, bound=4, seed=size)
            for _ in range(4):
                rows = [list(r) for r in s.sample()]
                assert oracle._det(rows) == numeric_det(rows)
    # a zero leading entry forces a row swap
    rows = [[0, 2, 1], [3, 0, 5], [1, 1, 0]]
    assert oracle._det(rows) == numeric_det(rows)
    assert oracle._det([]) == 1


@pytest.mark.parametrize(
    "coeffs",
    [(0,), (5,), (0, 3), (2, -1), (0, 0, 7), (0, 0, 0, -2, 1), (4, 0, 0, 0, 0, 1), (0, 6, -6, 1)],
)
def test_order_at_zero_reads_the_lowest_coefficient(coeffs):
    degree = len(coeffs) - 1
    values = [sum(c * t**k for k, c in enumerate(coeffs)) for t in range(degree + 1)]
    expected = next((k for k, c in enumerate(coeffs) if c), inf)
    assert oracle._order_at_zero(values) == expected


def test_order_at_zero_refuses_non_polynomial_values():
    # 0, 0, 1 at t = 0, 1, 2 is t(t-1)/2, which has no integer coefficients
    with pytest.raises(ArithmeticError):
        oracle._order_at_zero([0, 0, 1])


def test_keyed_streams_do_not_depend_on_other_draws():
    sampler = RankConstrainedSampler(S33, 1, bound=7, seed=5)
    first = sampler.keyed("lam=(2, 1, 0)", "trial=3")
    point, direction = first.sample(), first.direction()
    for _ in range(3):
        sampler.sample()
    sampler.keyed("lam=(1, 0, 0)", "trial=3").sample()
    again = sampler.keyed("lam=(2, 1, 0)", "trial=3")
    assert (again.sample(), again.direction()) == (point, direction)
    assert matrix_rank(point) <= 1
    assert all(abs(x) <= 7 for row in direction for x in row)
    assert sampler.keyed("lam=(2, 1, 0)", "trial=4").sample() != point
    assert sampler.keyed("a").keyed("b").key == ("a", "b")


def test_line_trials_draw_from_streams_keyed_by_trial_alone(monkeypatch):
    keys = []
    keyed = RankConstrainedSampler.keyed

    def spy(self, *key):
        keys.append((self.seed, self.rank, *key))
        return keyed(self, *key)

    monkeypatch.setattr(RankConstrainedSampler, "keyed", spy)
    sampler = RankConstrainedSampler(S33, 1, bound=7, seed=5)
    assert line_vanishing_order((2, 1, 0), S33, 2, sampler, trials=3) == 1
    assert keys == [(5, 1, f"trial={t}") for t in range(3)]
    # a second partition reads the lines the first one drew
    assert line_vanishing_order((1, 1, 1), S33, 2, sampler, trials=3) == 2
    assert keys == [(5, 1, f"trial={t}") for t in range(3)]
    # a sampler at another rank draws the same lines afresh
    keys.clear()
    other_rank = RankConstrainedSampler(S33, 0, bound=7, seed=5)
    assert line_vanishing_order((2, 1, 0), S33, 2, other_rank, trials=3) == 1
    assert keys == [(5, 1, f"trial={t}") for t in range(3)]


def test_with_rank_keeps_the_key_and_reseeded_drops_it():
    sampler = RankConstrainedSampler(S33, 0, 7, 5).keyed("x")
    moved = sampler.with_rank(1)
    assert (moved.rank, moved.seed, moved.key) == (1, 5, ("x",))
    assert moved.sample() == RankConstrainedSampler(S33, 1, 7, 5).keyed("x").sample()
    assert RankConstrainedSampler(S33, 1, 7, 5).keyed("x").sample() != (
        RankConstrainedSampler(S33, 1, 7, 5).sample()
    )
    assert moved.with_rank(1) is moved
    fresh = sampler.reseeded("retry")
    assert (fresh.rank, fresh.seed, fresh.key) == (0, "5#retry", ())


def line_order_without_memo(lam, space, p, sampler, trials=8):
    """The line test drawn afresh: every trial re-draws its line from the
    stream keyed by its index and expands every minor the partition
    needs, with nothing kept between calls."""
    s = RankConstrainedSampler(space, p - 1, sampler.bound, sampler.seed, sampler.key)
    parts = tuple(lam) + (0,)
    best = inf
    for trial in range(trials):
        stream = s.keyed(f"trial={trial}")
        point, direction = stream.sample(), stream.direction()
        best = min(best, sum(
            (parts[i - 1] - parts[i]) * oracle._minor_order_on_line(point, direction, i)
            for i in range(1, space.n + 1)
            if parts[i - 1] > parts[i]
        ))
    return best


@pytest.mark.parametrize("seed", [1729, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_shared_lines_give_the_orders_of_lines_drawn_afresh(n, seed):
    space = MatrixSpace(n, n)
    lambdas = [lam for size in range(7) for lam in partitions_of(size, n)]
    for p in range(1, n + 1):
        expected = {
            lam: line_order_without_memo(lam, space, p, RankConstrainedSampler(space, p - 1, 7, seed))
            for lam in lambdas
        }
        shared = RankConstrainedSampler(space, p - 1, bound=7, seed=seed)
        shuffled = list(lambdas)
        random.Random(seed + p).shuffle(shuffled)
        for lam in shuffled:
            assert line_vanishing_order(lam, space, p, shared) == expected[lam], (lam, p)
        for lam in lambdas:
            alone = RankConstrainedSampler(space, p - 1, bound=7, seed=seed)
            assert line_vanishing_order(lam, space, p, alone) == expected[lam], (lam, p)


def test_a_cross_validation_expands_each_minor_once_per_trial(monkeypatch):
    calls = []
    true_order = oracle._minor_order_on_line

    def counted(point, direction, i):
        calls.append(i)
        return true_order(point, direction, i)

    monkeypatch.setattr(oracle, "_minor_order_on_line", counted)
    trials = 8
    for n in (2, 3, 4):
        space = MatrixSpace(n, n)
        lambdas = [lam for size in range(7) for lam in partitions_of(size, n)]
        for p in range(1, n + 1):
            calls.clear()
            sampler = RankConstrainedSampler(space, 0, bound=7, seed=1729)
            reports = dcep_cross_validation_upto(space, lambdas, p, 4, sampler, trials)
            assert all(r.ok for r in reports)
            assert 0 < len(calls) <= trials * n, (n, p, len(calls))


def test_line_order_is_the_tail_sum():
    # On a general line through a general rank p-1 point, the order of the
    # highest weight vector is lam_p + ... + lam_n.
    for n in (2, 3, 4):
        space = MatrixSpace(n, n)
        for p in range(1, n + 1):
            sampler = RankConstrainedSampler(space, p - 1, bound=7, seed=3)
            for size in range(6):
                for lam in partitions_of(size, n):
                    assert line_vanishing_order(lam, space, p, sampler) == sum(lam[p - 1:])


def test_line_order_validation():
    sampler = RankConstrainedSampler(S22, 0, bound=7, seed=0)
    with pytest.raises(ValueError, match="length 2"):
        line_vanishing_order((1, 0, 0), S22, 1, sampler)
    with pytest.raises(ValueError, match="not weakly decreasing"):
        line_vanishing_order((0, 1), S22, 1, sampler)
    with pytest.raises(ValueError, match="need a partition"):
        line_vanishing_order((1, -1), S22, 1, sampler)
    with pytest.raises(ValueError, match="at least one trial"):
        line_vanishing_order((1, 0), S22, 1, sampler, trials=0)
    with pytest.raises(ValueError, match="bound below"):
        line_vanishing_order((8, 0), S22, 1, sampler)
    assert line_vanishing_order((8, 0), S22, 1, RankConstrainedSampler(S22, 0, 8, 0)) == 8
    # p is checked itself, not through the rank p-1 it asks the sampler for
    for p in (0, 3):
        with pytest.raises(ValueError, match=f"minor size p={p} outside 1..2"):
            line_vanishing_order((1, 0), S22, p, sampler)
    # at dmax = 0 there is nothing to check, but p is still refused
    with pytest.raises(ValueError, match="minor size p=99 outside 1..2"):
        dcep_cross_validation_upto(S22, [(1, 0)], 99, 0, sampler)
    assert dcep_cross_validation_upto(S22, [(1, 0)], 1, 0, sampler) == []


@pytest.mark.parametrize("p", [1.5, 1.0, True, None, "1"], ids=repr)
def test_line_test_refuses_a_minor_size_that_is_not_an_int(p):
    # True would otherwise pass as p = 1 and ask for a rank-0 sampler.
    sampler = RankConstrainedSampler(S22, 0, bound=7, seed=0)
    with pytest.raises(TypeError, match=f"^p must be an int, got {p!r}"):
        line_vanishing_order((1, 0), S22, p, sampler)
    with pytest.raises(TypeError, match=f"^p must be an int, got {p!r}"):
        dcep_cross_validation_upto(S22, [(1, 0)], p, 1, sampler)


@pytest.mark.parametrize(
    "space,sampler_space,lam",
    [(S33, S22, (1, 1, 1)), (S22, S33, (1, 1))],
    ids=["3x3-weight-on-2x2-lines", "2x2-weight-on-3x3-lines"],
)
def test_line_test_refuses_a_sampler_on_another_space(space, sampler_space, lam):
    sampler = RankConstrainedSampler(sampler_space, 1, bound=7, seed=1)
    message = f"sampler draws {sampler_space} matrices, not {space}"
    with pytest.raises(ValueError, match=message):
        line_vanishing_order(lam, space, 2, sampler)
    with pytest.raises(ValueError, match=message):
        dcep_cross_validation_upto(space, [lam], 2, 2, sampler)


def test_cross_validation_refuses_a_non_square_space():
    sampler = RankConstrainedSampler(MatrixSpace(3, 2), 0, bound=7, seed=0)
    for dmax in (0, 1, 2):
        with pytest.raises(ValueError, match="m = n"):
            dcep_cross_validation_upto(MatrixSpace(3, 2), [(1, 0)], 1, dmax, sampler)


@pytest.mark.parametrize("seed", [1729, 7])
@pytest.mark.parametrize("n,max_size", [(2, 6), (3, 6), (4, 4)])
def test_line_test_agrees_with_the_derivative_test(n, max_size, seed):
    space = MatrixSpace(n, n)
    lambdas = [lam for size in range(max_size + 1) for lam in partitions_of(size, n)]
    for p in range(1, n + 1):
        sampler = RankConstrainedSampler(space, p - 1, bound=7, seed=seed)
        reports = dcep_cross_validation_upto(space, lambdas, p, 4, sampler)
        assert [r.params["d"] for r in reports] == [1, 2, 3, 4]
        for lam in lambdas:
            order = line_vanishing_order(lam, space, p, sampler)
            vector = highest_weight_vector(lam, space)
            for report in reports:
                d = report.params["d"]
                derivative = symbolic_membership(vector, p, d, sampler)
                predicate = in_symbolic_power(lam, p, d, space)
                assert (order >= d) == derivative == predicate, (lam, p, d, order)
        for report in reports:
            assert report.ok and report.checks == len(lambdas)
            assert [x["weight"] for x in report.details] == lambdas


def test_cross_validation_validates_each_partition_once(monkeypatch):
    from dethodge import hodgeideals

    calls = []
    original = oracle.check_weight

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(oracle, "check_weight", counted)
    monkeypatch.setattr(hodgeideals, "check_weight", counted)
    lambdas = [lam for size in range(6) for lam in partitions_of(size, 3)]
    sampler = RankConstrainedSampler(S33, 1, bound=7, seed=3)
    reports = dcep_cross_validation_upto(S33, lambdas, 2, 4, sampler)
    assert all(r.ok and r.checks == len(lambdas) for r in reports)
    assert calls == lambdas
    with pytest.raises(ValueError, match="minor size p=4 outside 1..3"):
        dcep_cross_validation_upto(S33, lambdas, 4, 1, sampler)


def test_raised_line_orders_make_the_suite_fail(monkeypatch, capsys):
    # The line test's core, behind line_vanishing_order and the cross-validation.
    true_order = oracle._line_order

    def raised(*args, **kwargs):
        return true_order(*args, **kwargs) + 1

    monkeypatch.setattr(oracle, "_line_order", raised)
    sampler = RankConstrainedSampler(S22, 1, bound=7, seed=0)
    [report] = dcep_cross_validation_upto(S22, [(1, 0), (1, 1)], 2, 1, sampler)
    # (1, 0) has order 0 along the rank-1 locus; raised, it passes for d = 1
    assert report.failures == [{"weight": (1, 0), "combinatorial": False, "differential": True}]

    from dethodge.cli import main

    assert main(["verify", "oracle", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    failed = [r for r in payload["reports"] if not r["ok"]]
    assert failed
    for r in failed:
        assert all(f["differential"] and not f["combinatorial"] for f in r["failures"])
    assert main(["oracle-check", "--n", "3", "--p", "2", "--dmax", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out
