import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dethodge import characters, cli, hodgeideals, oracle, repsets, weights
from dethodge.characters import (
    cauchy_check,
    hilbert_function,
    hilbert_series,
    tensor_decomposition_check,
    tensor_expansion,
)
from dethodge.repsets import WeightSet, parse_weight_set
from dethodge.matrixspace import MatrixSpace
from dethodge.weights import check_weight, dominant_tuples, pad, partitions_of
from lr_reference import expansion_by_coefficients, lr_coefficient


def dim_irrep(lam, N):
    """The tests' dimension oracle: the weight checked to be dominant of
    length N, then the package's product formula."""
    return characters._dim(check_weight(lam, N))


def ssyt_count(lam, N):
    """Independent oracle: count semistandard tableaux of shape lam with
    entries in 1..N (rows weakly increase, columns strictly increase)."""
    shape = [x for x in lam if x > 0]
    if not shape:
        return 1
    if len(shape) > N:
        return 0
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    filled = {}

    def place(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = filled.get((r, c - 1), 1)
        above = filled.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        total = 0
        for v in range(lo, N + 1):
            filled[(r, c)] = v
            total += place(idx + 1)
            del filled[(r, c)]
        return total

    return place(0)


def test_dim_irrep_examples():
    assert dim_irrep((1, 0), 2) == 2
    assert dim_irrep((1, 1, 0), 3) == 3
    assert dim_irrep((0, -1), 2) == 2
    assert dim_irrep((2, 0), 2) == 3
    assert dim_irrep((2, 1, 0), 3) == 8


def test_dim_irrep_matches_tableau_count():
    for N in (1, 2, 3, 4):
        for size in range(7):
            for lam in partitions_of(size, N):
                assert dim_irrep(lam, N) == ssyt_count(lam, N), (lam, N)


def test_dim_irrep_translation_invariance():
    for c in range(-3, 4):
        for lam in partitions_of(5, 3):
            shifted = tuple(x + c for x in lam)
            assert dim_irrep(shifted, 3) == dim_irrep(lam, 3)


def test_dim_irrep_validation():
    with pytest.raises(ValueError):
        dim_irrep((0, 1), 2)
    with pytest.raises(ValueError):
        dim_irrep((1, 0), 3)


def test_lr_pieri():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0


def test_lr_classic_multiplicity_two():
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


def test_lr_size_mismatch_and_containment():
    assert lr_coefficient((2,), (1,), (2,)) == 0
    assert lr_coefficient((3,), (1,), (2, 2)) == 0


def test_lr_cap():
    with pytest.raises(ValueError):
        lr_coefficient((10, 5), (6,), (12, 6, 3))


def test_lr_symmetry():
    rng = random.Random(7)
    pool = [lam for size in range(7) for lam in partitions_of(size, 3)]
    for _ in range(60):
        g = rng.choice(pool)
        b = rng.choice(pool)
        total = sum(g) + sum(b)
        if total > 12:
            continue
        for lam in partitions_of(total, 4):
            assert lr_coefficient(g, b, lam) == lr_coefficient(b, g, lam)


def test_lr_dimension_sum_oracle():
    # dim is multiplicative across the expansion of a tensor product
    for N in (2, 3):
        for g in partitions_of(3, 2):
            for b in partitions_of(2, 2):
                expansion = tensor_expansion(g, b, N)
                total = sum(
                    mult * dim_irrep(lam, N) for lam, mult in expansion.items()
                )
                gp = g + (0,) * (N - len(g))
                bp = b + (0,) * (N - len(b))
                assert total == dim_irrep(gp, N) * dim_irrep(bp, N)


@given(
    st.integers(1, 4).flatmap(
        lambda N: st.tuples(
            st.just(N),
            st.integers(0, N),
            st.lists(st.integers(0, 4), min_size=N, max_size=N).map(
                lambda v: tuple(sorted(v, reverse=True))
            ),
        )
    )
)
def test_dim_irrep_branches_by_lr_coefficients(case):
    # Restricted to GL_p x GL_(N-p), V_lam is the sum over gamma and beta
    # of c^lam_(gamma, beta) copies of V_gamma (x) V_beta.
    N, p, lam = case

    def dim(part, rank):
        # GL_0 has the one-dimensional representation of the empty partition only.
        return dim_irrep(part + (0,) * (rank - len(part)), rank) if rank else 1

    size = sum(lam)
    total = 0
    for k in range(size + 1):
        for gamma in partitions_of(k, p):
            for beta in partitions_of(size - k, N - p):
                c = tensor_expansion(gamma, beta, N).get(lam, 0)
                total += c * dim(gamma, p) * dim(beta, N - p)
    assert total == dim_irrep(lam, N)


def test_tensor_expansion_matches_the_coefficients_one_by_one():
    # The walk over LR tableaux against lr_coefficient of every candidate
    # partition, dict order included: every nu and gamma of size at most 6
    # with at most max_parts parts, max_parts 1..5.
    cases = 0
    for max_parts in range(1, 6):
        pool = [lam for size in range(7) for lam in partitions_of(size, max_parts)]
        for nu in pool:
            for gamma in pool:
                got = tensor_expansion(nu, gamma, max_parts)
                want = expansion_by_coefficients(nu, gamma, max_parts)
                assert list(got.items()) == list(want.items()), (nu, gamma, max_parts)
                cases += 1
    assert cases == 2404


@pytest.mark.parametrize(
    "nu,gamma,max_parts,want",
    [
        # Too many parts on either side: no constituent fits.
        ((1, 1, 1), (1,), 2, {}),
        ((1,), (1, 1, 1), 2, {}),
        ((), (1,), 0, {}),
        ((1,), (), 0, {}),
        ((), (), 0, {(): 1}),
        ((2, 1), (), 3, {(2, 1, 0): 1}),
        ((), (2, 1), 3, {(2, 1, 0): 1}),
    ],
)
def test_tensor_expansion_edges(nu, gamma, max_parts, want):
    assert tensor_expansion(nu, gamma, max_parts) == want
    assert expansion_by_coefficients(nu, gamma, max_parts) == want


def test_tensor_expansion_refuses_before_the_walk():
    # The cap holds even where no constituent could fit.
    with pytest.raises(ValueError, match=r"^\|nu\| \+ \|gamma\| = 22 exceeds the desk-scale cap 20"):
        tensor_expansion((11,), (11,), 0)
    with pytest.raises(ValueError, match="^max_parts must be nonnegative, got -1"):
        tensor_expansion((1,), (1,), -1)
    with pytest.raises(ValueError, match=r"^\(1, 2\) is not a partition"):
        tensor_expansion((1, 2), (1,), 3)


def test_tensor_decomposition_check_examples():
    assert tensor_decomposition_check((1,), 1, (1,), MatrixSpace(2, 2)).ok
    assert tensor_decomposition_check((), 1, (2, 1), MatrixSpace(3, 3)).ok
    assert tensor_decomposition_check((2,), 1, (1, 1), MatrixSpace(3, 3)).ok


def test_tensor_decomposition_check_trivial_gamma():
    report = tensor_decomposition_check((), 2, (1,), MatrixSpace(3, 3))
    assert report.ok
    assert report.checks == 1  # single designated summand, nothing else


def test_cauchy_examples():
    assert cauchy_check(MatrixSpace(2, 2), 2)
    assert cauchy_check(MatrixSpace(2, 2), 0)
    for d in range(11):
        assert cauchy_check(MatrixSpace(3, 2), d)


def test_hilbert_function_examples():
    space = MatrixSpace(2, 2)
    ik2 = WeightSet(space, "HodgeIdeal", param=2)
    assert [hilbert_function(ik2, d) for d in range(4)] == [0, 4, 10, 20]
    j13 = WeightSet(space, "SymbolicPower", p=1, param=3)
    assert hilbert_function(j13, 2) == 0
    ik3 = WeightSet(space, "HodgeIdeal", param=3)
    assert hilbert_function(ik3, 3) == 20


def test_hilbert_function_whole_ring():
    # the unit ideal gives the full polynomial ring dimensions
    unit = WeightSet(MatrixSpace(2, 2), "HodgeIdeal", param=0)
    for d in range(6):
        assert hilbert_function(unit, d) == comb(4 + d - 1, d)
    sym = parse_weight_set("Jpd(n=2,p=1,d=0)")
    assert hilbert_function(sym, 3) == comb(6, 3)


@pytest.mark.parametrize(
    "wset,refused,reason,accepted,dim",
    [
        # Wp needs a box; the rank-n support consists of partitions, so a
        # generous box is exact.
        (WeightSet(MatrixSpace(2, 2), "Wp", 2), None, "explicit box bound", 6, comb(5, 2)),
        # A set of partitions is summed exactly and refuses a box.
        (
            WeightSet(MatrixSpace(2, 2), "HodgeIdeal", param=1),
            1,
            r"--box does not apply to Ik\(n=2,k=1\): a set of partitions is summed exactly",
            None,
            10,
        ),
    ],
    ids=["Wp", "Ik"],
)
def test_hilbert_function_box_requirement(wset, refused, reason, accepted, dim):
    with pytest.raises(ValueError, match=reason):
        hilbert_function(wset, 2, box=refused)
    assert hilbert_function(wset, 2, box=accepted) == dim


def test_hilbert_function_box_matches_the_filtered_box():
    # Reference: scan the whole box once and bucket members by size.
    for n in range(1, 5):
        space = MatrixSpace(n, n)
        sets = [WeightSet(space, "Wp", p) for p in range(n + 1)]
        sets += [WeightSet(space, "FkSdet", param=k) for k in range(3)]
        sets += [WeightSet(space, "Ukp", n - 1, k) for k in (-1, 1)]
        for bound in range(6):
            for wset in sets:
                by_size = {}
                for lam in dominant_tuples(n, -bound, bound):
                    if wset.contains(lam):
                        by_size[sum(lam)] = by_size.get(sum(lam), 0) + dim_irrep(lam, n) ** 2
                for d in range(-n * bound, n * bound + 1):
                    assert hilbert_function(wset, d, box=bound) == by_size.get(d, 0), (
                        wset.descriptor(), bound, d,
                    )


def test_hilbert_function_degree_zero():
    space = MatrixSpace(2, 2)
    full = WeightSet(space, "HodgeIdeal", param=1)
    assert hilbert_function(full, 0) == 1


def test_hilbert_function_symbolic_powers_of_irrelevant_ideal():
    # for 2x2 matrices the symbolic powers of the rank-0 locus ideal are
    # ordinary powers of the irrelevant ideal: full monomial count from
    # degree d on, zero below
    space = MatrixSpace(2, 2)
    for d in range(7):
        wset = WeightSet(space, "SymbolicPower", p=1, param=d)
        for e in range(13):
            expected = comb(e + 3, 3) if e >= d else 0
            assert hilbert_function(wset, e) == expected, (d, e)


def every_kind_on(space):
    """A weight set of every kind on the space, for every stratum index the
    kind admits and every parameter in -1..3 it admits."""
    for kind, spec in repsets._SPECS.items():
        if "m" not in spec.args and not space.is_square:
            continue
        strata = [None] if spec.p_min is None else range(spec.p_min, space.n + 1)
        params = [None] if spec.param_min is None else range(max(-1, spec.param_min), 4)
        for p in strata:
            for param in params:
                yield WeightSet(space, kind, p, param)


def hilbert_by_degree(wset, d, box):
    """The per-degree sum that hilbert_series replaced: both dimensions of
    every member of size d, each through dim_irrep, the members of the box
    filtered by size."""
    m, n = wset.space.m, wset.space.n
    bound = d if box is None else box
    return sum(
        dim_irrep(pad(lam, m), m) * dim_irrep(lam, n)
        for lam in wset.members(bound)
        if sum(lam) == d
    )


def test_hilbert_series_matches_the_per_degree_sum():
    dmax = 10
    kinds = set()
    for n in range(1, 4):
        for m in range(n, 4):
            space = MatrixSpace(m, n)
            for wset in every_kind_on(space):
                kinds.add(wset.kind)
                if wset.partitions_only:
                    expected = [hilbert_by_degree(wset, d, None) for d in range(dmax + 1)]
                    assert hilbert_series(wset, dmax) == expected, wset
                    assert [hilbert_function(wset, d) for d in range(dmax + 1)] == expected
                    continue
                for box in range(5):
                    if not space.is_square:
                        with pytest.raises(ValueError, match="need a square space"):
                            hilbert_series(wset, dmax, box=box)
                        continue
                    expected = [hilbert_by_degree(wset, d, box) for d in range(dmax + 1)]
                    assert hilbert_series(wset, dmax, box=box) == expected, (wset, box)
                    for d in range(-n * box - 1, dmax + 1):
                        want = hilbert_by_degree(wset, d, box)
                        assert hilbert_function(wset, d, box=box) == want, (wset, box, d)
    assert kinds == set(repsets._SPECS)


def test_every_set_of_partitions_is_on_a_square_space():
    # hilbert_series squares one dimension per member, which needs m = n:
    # a set of partitions refuses no square check of its own.
    assert all("m" not in spec.args for spec in repsets._SPECS.values() if spec.partitions_only)


def test_one_hilbert_request_walks_its_members_once(monkeypatch, capsys):
    # One walk of the one piece of I_k, by runs: no weight check and no
    # membership test, the one reader of the rows, on the way.
    calls = {"_decreasing_runs": 0, "check_weight": 0, "reader": 0}

    def spy(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return counted

    monkeypatch.setattr(repsets, "_decreasing_runs", spy("_decreasing_runs", weights._decreasing_runs))
    # characters imports no check_weight: its product formula takes the
    # dominant heads of the walk as they come.
    for module in (weights, repsets, hodgeideals, oracle):
        monkeypatch.setattr(module, "check_weight", spy("check_weight", weights.check_weight))
    monkeypatch.setattr(
        repsets, "_parameter_interval", spy("reader", repsets._parameter_interval)
    )
    assert cli.main(["hilbert", "--set", "Ik(n=2,k=3)", "--dmax", "12"]) == 0
    assert "d=12: 455" in capsys.readouterr().out
    assert calls == {"_decreasing_runs": 1, "check_weight": 0, "reader": 0}


def test_members_and_hilbert_call_no_membership_core(monkeypatch):
    # Every kind's members and graded dimensions come from its rows,
    # walked, and never from the reader that solves them for one weight;
    # contains reads them through it.
    def refuse(pieces, lam):
        raise AssertionError(f"reader called on {lam}")

    sets = [wset for n in (1, 2, 3) for wset in every_kind_on(MatrixSpace(n, n))]
    sets += list(every_kind_on(MatrixSpace(3, 2)))
    expected = {wset: wset.members(3) for wset in sets}
    series = {wset: hilbert_series(wset, 6, box=None if wset.partitions_only else 3)
              for wset in sets if wset.space.is_square}
    monkeypatch.setattr(repsets, "_parameter_interval", refuse)
    for wset in sets:
        assert wset.members(3) == expected[wset]
        if wset in series:
            box = None if wset.partitions_only else 3
            assert hilbert_series(wset, 6, box=box) == series[wset]
            assert hilbert_function(wset, 4, box=box) == series[wset][4]
        with pytest.raises(AssertionError, match="reader called"):
            wset.contains((0,) * wset.space.n)


def graded_dims_by_filtered_walk(wset, d_lo, d_hi, box):
    """The slow oracle of _graded_dims: the whole box walked, filtered by
    contains, and each member's dim_irrep squared added to its degree."""
    n = wset.space.n
    lo, hi = (0, max(d_hi, 0)) if box is None else (-box, box)
    dims = [0] * (d_hi - d_lo + 1)
    for lam in weights.dominant_tuples(n, lo, hi):
        if d_lo <= sum(lam) <= d_hi and wset.contains(lam):
            dims[sum(lam) - d_lo] += dim_irrep(lam, n) ** 2
    return dims


def test_graded_dims_by_runs_match_dim_irrep_per_member():
    # Along a run, dim(head + (x,)) is dim(head) times the pairs with the
    # last entry; against dim_irrep of every member, for n <= 5.
    for n, dmax, box in [(1, 12, 6), (2, 12, 6), (3, 10, 4), (4, 8, 3), (5, 6, 2)]:
        for wset in every_kind_on(MatrixSpace(n, n)):
            if wset.partitions_only:
                want = graded_dims_by_filtered_walk(wset, 0, dmax, None)
                assert hilbert_series(wset, dmax) == want, wset
                continue
            want = graded_dims_by_filtered_walk(wset, -n * box, n * box, box)
            assert characters._graded_dims(wset, -n * box, n * box, box) == want, wset
            assert hilbert_series(wset, dmax, box=box) == (want[n * box:] + [0] * dmax)[:dmax + 1]


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: hilbert_series("Ik(n=2,k=3)", 4), TypeError, "weight_set must be a WeightSet"),
        (lambda: hilbert_function(None, 4), TypeError, "weight_set must be a WeightSet"),
        (lambda: hilbert_series(IK, 2.5), TypeError, "dmax must be an int, got 2.5"),
        (lambda: hilbert_series(IK, True), TypeError, "dmax must be an int, got True"),
        (lambda: hilbert_function(IK, 2.0), TypeError, "d must be an int, got 2.0"),
        (lambda: hilbert_function(IK, False), TypeError, "d must be an int, got False"),
        (lambda: hilbert_series(WP, 4, box=1.5), TypeError, "box must be an int, got 1.5"),
        (lambda: hilbert_function(WP, 4, box=True), TypeError, "box must be an int, got True"),
    ],
    ids=["series-str", "function-None", "dmax-float", "dmax-bool", "d-float", "d-bool",
         "box-float", "box-bool"],
)
def test_hilbert_checks_its_own_arguments_before_the_walk(call, error, message):
    with pytest.raises(error, match=f"^{message}"):
        call()


IK = WeightSet(MatrixSpace(2, 2), "HodgeIdeal", param=3)
WP = WeightSet(MatrixSpace(2, 2), "Wp", 1)
