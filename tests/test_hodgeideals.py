import math
from math import comb

import pytest

from dethodge import hodgeideals, suites
from dethodge.hodgeideals import (
    WeightSet,
    hodge_ideal_exponents,
    in_Fk_Sdet,
    in_hodge_ideal,
    in_symbolic_power,
    minimal_generators,
    parse_weight_set,
    translate,
    verify_equivalence,
)
from dethodge.matrixspace import MatrixSpace
from dethodge.reporting import VerificationReport
from dethodge.weights import WeightBox, dominant_tuples, leq


def partitions_in_box(n, bound):
    return [lam for lam in WeightBox(n, bound) if lam[-1] >= 0]


def test_in_symbolic_power_examples():
    assert in_symbolic_power((1, 1), 1, 2, MatrixSpace(2, 2))
    assert not in_symbolic_power((3, 1, 0), 2, 2, MatrixSpace(3, 3))
    assert in_symbolic_power((0, 0), 1, 0, MatrixSpace(2, 2))
    assert in_symbolic_power((0, 0), 1, -3, MatrixSpace(2, 2))
    with pytest.raises(ValueError):
        in_symbolic_power((1, -1), 1, 1, MatrixSpace(2, 2))


def test_symbolic_power_d1_is_the_minor_criterion():
    # vanishing once along the rank p-1 locus picks out lam_p >= 1
    space = MatrixSpace(3, 3)
    for lam in partitions_in_box(3, 4):
        for p in (1, 2, 3):
            assert in_symbolic_power(lam, p, 1, space) == (lam[p - 1] >= 1)


def test_hodge_ideal_exponents():
    assert hodge_ideal_exponents(2, MatrixSpace(3, 3)) == (1, 1)
    assert hodge_ideal_exponents(3, MatrixSpace(3, 3)) == (3, 2)
    assert hodge_ideal_exponents(0, MatrixSpace(4, 4)) == (-6, -3, -1)


def test_in_hodge_ideal_low_k_is_unit():
    for n in range(1, 6):
        space = MatrixSpace(n, n)
        for mu in partitions_in_box(n, 3):
            assert in_hodge_ideal(mu, 0, space)
            assert in_hodge_ideal(mu, 1, space)


def test_in_hodge_ideal_k2_is_subminor_ideal():
    for n in range(2, 6):
        space = MatrixSpace(n, n)
        for mu in partitions_in_box(n, 4):
            assert in_hodge_ideal(mu, 2, space) == in_symbolic_power(
                mu, n - 1, 1, space
            )


def test_in_hodge_ideal_examples():
    space = MatrixSpace(3, 3)
    assert in_hodge_ideal((2, 1, 1), 3, space)
    assert not in_hodge_ideal((3, 1, 0), 3, space)
    with pytest.raises(ValueError):
        in_hodge_ideal((1, 0, 0), -1, space)


def test_hodge_ideal_core_matches_the_public_predicate():
    # The unvalidated core against the public predicate, and both against
    # I_k read as the intersection of the symbolic powers J_p^(e_p).
    for n, bound in ((1, 12), (2, 8), (3, 6), (4, 4), (5, 3)):
        space = MatrixSpace(n, n)
        for k in range(8):
            exponents = hodge_ideal_exponents(k, space)
            for mu in partitions_in_box(n, bound):
                core = hodgeideals._in_hodge_ideal(mu, k, n)
                assert core == in_hodge_ideal(mu, k, space), (mu, k)
                assert core == all(
                    in_symbolic_power(mu, p, e, space) for p, e in enumerate(exponents, 1)
                ), (mu, k)


def test_hodge_ideal_chain_and_interval():
    # Upward closure in the box is checked on covers: each member's steps
    # mu + e_i that stay dominant and inside the box are members. That is
    # the same as closure under <=, because any mu <= nu in the box are
    # joined by such steps: raising mu at the first coordinate where it
    # differs from nu keeps it dominant and <= nu.
    for n in (2, 3, 4):
        space = MatrixSpace(n, n)
        box = partitions_in_box(n, 10)
        for k in range(7):
            members = {mu for mu in box if in_hodge_ideal(mu, k, space)}
            nxt = {mu for mu in box if in_hodge_ideal(mu, k + 1, space)}
            assert nxt <= members
            for mu in members:
                for i in range(n):
                    if mu[i] < 10 and (i == 0 or mu[i - 1] > mu[i]):
                        assert mu[:i] + (mu[i] + 1,) + mu[i + 1:] in members


def pairwise_minimal(k, space):
    # Reference: every member up to the largest exponent, then the pairwise
    # componentwise-order filter.
    cap = max([0, *hodge_ideal_exponents(k, space)])
    members = [
        mu for mu in dominant_tuples(space.n, 0, cap) if in_hodge_ideal(mu, k, space)
    ]
    return sorted(
        mu for mu in members if not any(nu != mu and leq(nu, mu) for nu in members)
    )


def scan_minimal(k, space):
    # Reference: scan every partition with parts up to the largest exponent
    # (a minimal member's first part can always shrink to it) and keep a
    # member iff each position where it can drop has a tight tail
    # inequality at or before it.
    n = space.n
    bounds = hodge_ideal_exponents(k, space) + (0,)
    generators = []
    for mu in dominant_tuples(n, 0, max(bounds)):
        if not in_hodge_ideal(mu, k, space):
            continue
        tight = False
        for i in range(n):
            tight = tight or sum(mu[i:]) == bounds[i]
            if not tight and mu[i] > (mu[i + 1] if i + 1 < n else 0):
                break
        else:
            generators.append(mu)
    return generators


def scan_size(k, n):
    return comb(max(hodge_ideal_exponents(k, MatrixSpace(n, n)) + (0,)) + n, n)


def test_minimal_generators_match_the_scan():
    cases = [
        (n, k) for n in range(1, 8) for k in range(11) if scan_size(k, n) <= 200_000
    ]
    assert len(cases) == 68
    for n, k in cases:
        space = MatrixSpace(n, n)
        assert minimal_generators(k, space) == scan_minimal(k, space), (n, k)


@pytest.mark.parametrize("n,k", [(12, 12), (20, 20), (40, 10)])
def test_minimal_generators_certificate(n, k):
    # Beyond the scan's reach: each generator is a member, and lowering any
    # part that can drop (keeping a partition) leaves the ideal, so each
    # is minimal, since the ideal's weight set is upward closed.
    space = MatrixSpace(n, n)
    generators = minimal_generators(k, space)
    assert generators and generators == sorted(set(generators))
    for mu in generators:
        assert in_hodge_ideal(mu, k, space)
        for i in range(n):
            if mu[i] > (mu[i + 1] if i + 1 < n else 0):
                lowered = mu[:i] + (mu[i] - 1,) + mu[i + 1:]
                assert not in_hodge_ideal(lowered, k, space), (mu, i)


def test_minimal_generators_match_the_pairwise_filter():
    for n in range(1, 6):
        space = MatrixSpace(n, n)
        for k in range(9):
            assert minimal_generators(k, space) == pairwise_minimal(k, space), (n, k)
    assert minimal_generators(3, MatrixSpace(3, 3)) == [(1, 1, 1), (2, 2, 0)]
    assert minimal_generators(0, MatrixSpace(4, 4)) == [(0, 0, 0, 0)]


def test_hodge_ideal_inside_coarse_symbolic_bound():
    # comparison bound: I_k sits inside J_p^(q) for
    # q = min(n-p, (n-p+1)*(k-n+p))
    for n in (2, 3, 4):
        space = MatrixSpace(n, n)
        for k in range(7):
            for mu in partitions_in_box(n, 8):
                if not in_hodge_ideal(mu, k, space):
                    continue
                for p in range(1, n):
                    q = min(n - p, (n - p + 1) * (k - n + p))
                    assert in_symbolic_power(mu, p, q, space)


def test_in_Fk_Sdet_examples():
    space1 = MatrixSpace(1, 1)
    assert in_Fk_Sdet((-3,), 2, space1)
    assert not in_Fk_Sdet((-4,), 2, space1)
    space2 = MatrixSpace(2, 2)
    assert not in_Fk_Sdet((0, -4), 2, space2)
    for lam in partitions_in_box(2, 3):
        for k in range(4):
            assert in_Fk_Sdet(lam, k, space2)


def test_translate():
    assert translate((1, 1), 0) == (0, 0)
    assert translate((2, 1, 1), 3) == (-2, -3, -3)


def per_k_reference(space, k, bound):
    """Slow reference for one level: the box walked once per k, every
    weight validated and classified through the public predicate, and the
    inequality family evaluated term by term."""
    n = space.n
    report = VerificationReport(
        "hodge-filtration-equivalence", {"n": n, "k": k, "box": bound}
    )
    for lam in WeightBox(n, bound):
        lhs = in_Fk_Sdet(lam, k, space)
        rhs = all(sum(lam[s:]) >= -comb(n - s + 1, 2) - k for s in range(n))
        report.checks += 1
        if lhs != rhs:
            report.add_failure(weight=lam, filtration=lhs, inequalities=rhs)
    for mu in dominant_tuples(n, 0, bound):
        ideal = in_hodge_ideal(mu, k, space)
        filt = in_Fk_Sdet(translate(mu, k), k, space)
        report.checks += 1
        if ideal != filt:
            report.add_failure(partition=mu, ideal=ideal, filtration=filt)
    return report


def shifted_core(monkeypatch, shift):
    """Rebind the U^p_k core to one whose levels sit `shift` off."""
    core = hodgeideals._Ukp_level
    monkeypatch.setattr(
        hodgeideals, "_Ukp_level", lambda lam, p, space: core(lam, p, space) + shift
    )


def strict_core(monkeypatch):
    """Rebind the U^p_k core to one whose levels sit one too high, so it
    wrongly rejects the tight tail sums, the boundary of every U^p_k."""
    shifted_core(monkeypatch, 1)


def counting_classify(monkeypatch):
    """Rebind the verifier's classifier to one that records each weight it
    classifies; returns the record."""
    calls = []
    classify = hodgeideals._classify

    def counting(lam, space):
        calls.append(lam)
        return classify(lam, space)

    monkeypatch.setattr(hodgeideals, "_classify", counting)
    return calls


def test_verify_equivalence_small():
    for n, bound in ((1, 12), (2, 10)):
        reports = verify_equivalence(MatrixSpace(n, n), range(4), bound)
        assert [report.params["k"] for report in reports] == [0, 1, 2, 3]
        for report in reports:
            assert report.ok, report.failures[:3]
            assert report.checks > 0


def test_verify_equivalence_needs_a_square_space():
    with pytest.raises(ValueError):
        verify_equivalence(MatrixSpace(3, 2), range(2), 2)


def test_verify_equivalence_refuses_a_negative_k_before_walking(monkeypatch):
    calls = counting_classify(monkeypatch)
    for ks in ([-1], [0, 3, -2]):
        with pytest.raises(ValueError, match=r"Hodge ideals are indexed by k >= 0"):
            verify_equivalence(MatrixSpace(2, 2), ks, 4)
    assert calls == []


@pytest.mark.parametrize("shift", [0, 1, -1], ids=["real-core", "strict-core", "loose-core"])
@pytest.mark.parametrize("n,bound", [(1, 6), (2, 5), (3, 3), (4, 2)])
def test_one_walk_matches_the_per_k_loop(monkeypatch, shift, n, bound):
    # The strict core moves each level above the inequality side's, the
    # loose one (admitting the tail sums one below the boundary) below it.
    shifted_core(monkeypatch, shift)
    calls = counting_classify(monkeypatch)
    space = MatrixSpace(n, n)
    ks = [0, 1, 2, 3, 4, 5]
    walked = verify_equivalence(space, ks, bound)
    # One classification per box weight, and one per (partition, k) whose
    # translate leaves the box, which needs k + 1 > bound.
    outside = sum(
        translate(mu, k)[-1] < -bound for mu in dominant_tuples(n, 0, bound) for k in ks
    )
    assert len(calls) == WeightBox(n, bound).count + outside
    assert (outside > 0) == (max(ks) + 1 > bound)
    reference = [per_k_reference(space, k, bound) for k in ks]
    assert [vars(report) for report in walked] == [vars(report) for report in reference]
    assert any(not report.ok for report in reference) == (shift != 0)


def test_equivalence_suite_classifies_each_box_weight_once(monkeypatch):
    calls = counting_classify(monkeypatch)
    reports = suites.equivalence()
    levels = 6
    box_weights = sum(WeightBox(n, box).count for n, box in suites.EQUIVALENCE_GRID.items())
    partitions = sum(
        len(list(dominant_tuples(n, 0, box))) for n, box in suites.EQUIVALENCE_GRID.items()
    )
    assert box_weights == 6966
    # The box side once per weight; every translate of the suite's
    # partitions lies inside its box, so the partition side reads the
    # levels the walk decided.
    assert len(calls) == box_weights
    assert len(reports) == levels * len(suites.EQUIVALENCE_GRID)
    assert sum(report.checks for report in reports) == levels * (box_weights + partitions)


@pytest.mark.parametrize("n,bound,checks", [(5, 6, 39_900), (6, 5, 50_820)])
def test_verify_equivalence_beyond_the_suite_grid(n, bound, checks):
    reports = verify_equivalence(MatrixSpace(n, n), range(6), bound)
    assert sum(report.checks for report in reports) == checks
    for report in reports:
        assert report.ok, report.failures[:3]


def test_verify_equivalence_sees_a_core_that_moves_the_boundary(monkeypatch):
    # Both sides of each comparison are computed by their own code: a
    # filtration core that wrongly rejects the tight tail sums of U^p_k
    # must show up on the inequality side and on the Hodge-ideal side.
    strict_core(monkeypatch)
    [report] = verify_equivalence(MatrixSpace(2, 2), [2], 6)
    assert not report.ok
    on_weights = [f for f in report.failures if "weight" in f]
    on_partitions = [f for f in report.failures if "partition" in f]
    assert on_weights and on_partitions
    for failure in on_weights:
        assert failure["inequalities"] and not failure["filtration"]
    for failure in on_partitions:
        assert failure["ideal"] and not failure["filtration"]


def test_hodge_ideal_level_is_the_membership_threshold():
    # mu lies in I_k exactly for k <= level: the threshold property and the
    # closed form at once, against the tail inequalities one k at a time.
    for n in range(1, 7):
        for mu in dominant_tuples(n, 0, 8):
            level = hodgeideals._hodge_ideal_level(mu, n)
            assert [hodgeideals._in_hodge_ideal(mu, k, n) for k in range(11)] == [
                k <= level for k in range(11)
            ], mu
            assert (level == math.inf) == (n == 1)


@pytest.mark.parametrize("shift", [1, -1], ids=["loose-level", "strict-level"])
def test_verify_equivalence_sees_a_hodge_ideal_level_off_by_one(monkeypatch, shift):
    # A Hodge-ideal level one too high admits the partitions just outside
    # I_k, one too low rejects those on its boundary: failures on the
    # partition side only, each with the ideal side wrong in that direction.
    level = hodgeideals._hodge_ideal_level
    monkeypatch.setattr(
        hodgeideals, "_hodge_ideal_level", lambda mu, n: level(mu, n) + shift
    )
    [report] = verify_equivalence(MatrixSpace(2, 2), [2], 6)
    assert not report.ok
    assert all("partition" in f for f in report.failures)
    for failure in report.failures:
        assert failure["ideal"] == (shift > 0) != failure["filtration"]


def test_rank_one_filtration_levels():
    # both descriptions reduce to lam_1 >= -1-k when n = 1
    space = MatrixSpace(1, 1)
    for k in range(5):
        for x in range(-9, 4):
            assert in_Fk_Sdet((x,), k, space) == (x >= -1 - k)


def test_ideal_weight_set_and_descriptors():
    ideal = parse_weight_set("Ik(n=2,k=3)")
    assert ideal.kind == "HodgeIdeal" and ideal.param == 3
    assert ideal.contains((2, 0))
    assert not ideal.contains((1, 0))
    assert parse_weight_set(ideal.descriptor()) == ideal
    assert parse_weight_set("Ik(2,3)") == ideal

    sym = parse_weight_set("Jpd(n=3,p=2,d=2)")
    assert sym.contains((2, 1, 1))
    assert not sym.contains((3, 1, 0))
    assert parse_weight_set(sym.descriptor()) == sym

    filt = parse_weight_set("FkSdet(n=2,k=1)")
    assert not filt.partitions_only
    assert filt.contains((0, -2))
    assert parse_weight_set(filt.descriptor()) == filt

    with pytest.raises(ValueError):
        parse_weight_set("Ik(n=2)")


@pytest.mark.parametrize(
    "text,reason",
    [
        ("Ik(n=2,k=3,x=1)", "once, not 'x'"),
        ("Wp(m=3,n=2,p=1,d=4)", "once, not 'd'"),
        ("Wp(3,2,1,4)", "takes 3 arguments"),
        ("Wp()", "takes 3 arguments"),
        ("Wpd(m=3,n=2,p=1)", "missing d"),
        ("Wp(3,2)", "takes 3 arguments"),
        ("Wp(3,n=2,p=1)", "mixes positional and keyword"),
        ("Ik(n=2,n=2,k=1)", "once, not 'n'"),
        ("Ik(n=2,k=x)", "Ik needs an integer k, not 'x'"),
        ("Ik(n=2,k=a)", "Ik needs an integer k, not 'a'"),
        ("Ik(n=2,k= )", "Ik needs an integer k, not ''"),
        ("Wp(3,x,1)", "Wp needs an integer n, not 'x'"),
        ("Wp(3,,1)", "Wp needs an integer n, not ''"),
        ("Nope(1,2)", "unknown or malformed"),
        ("Wp(3,2,1", "unknown or malformed"),
        ("Wp(3,2,5)", "p=5 outside 0..2"),
        ("Jpd(n=3,p=0,d=1)", "p=0 outside 1..3"),
        ("Ik(n=3,k=-1)", "k >= 0"),
        ("Ukp(3,2,1,0)", "takes 3 arguments"),
        ("Jpd(n=2,p=1)", "missing d"),
    ],
)
def test_parse_weight_set_names_the_fault(text, reason):
    with pytest.raises(ValueError, match=reason):
        parse_weight_set(text)


def test_ideal_weight_set_members():
    ideal = WeightSet(MatrixSpace(2, 2), "HodgeIdeal", param=2)
    members = ideal.members(2)
    assert (1, 0) in members and (2, 2) in members
    assert (0, 0) not in members
    assert all(mu[-1] >= 0 for mu in members)
    box = [mu for mu in WeightBox(2, 2) if mu[-1] >= 0 and ideal.contains(mu)]
    assert members == box


def test_ideal_weight_set_validation():
    square, rect = MatrixSpace(3, 3), MatrixSpace(4, 3)
    for space, kind, p, param in [
        (rect, "HodgeIdeal", None, 1),
        (rect, "SymbolicPower", 1, 1),
        (square, "SymbolicPower", 0, 1),
        (square, "SymbolicPower", 4, 1),
        (square, "SymbolicPower", None, 1),
        (square, "SymbolicPower", 1, None),
        (square, "HodgeIdeal", 1, 2),
        (square, "HodgeIdeal", None, -1),
        (square, "FkSdet", None, -1),
        (square, "FkSdet", None, None),
    ]:
        with pytest.raises(ValueError):
            WeightSet(space, kind, p, param)
    # d <= 0 is the unit ideal
    assert WeightSet(square, "SymbolicPower", 3, -2).contains((0, 0, 0))


def test_unit_ideal_thresholds_match_membership():
    # every exponent nonpositive exactly when everything is a member
    for n in range(1, 5):
        space = MatrixSpace(n, n)
        for k in range(5):
            exps = hodge_ideal_exponents(k, space)
            unit = all(e <= 0 for e in exps)
            everything = all(
                in_hodge_ideal(mu, k, space) for mu in partitions_in_box(n, 3)
            )
            assert unit == everything


def test_equivalence_inequality_family_direct():
    # freeze one concrete witness pair on each side of the boundary
    space = MatrixSpace(2, 2)
    lam = (0, -3)  # stratum p=1, tail sum -3, needs -comb(2,2)-k <= -3
    assert not in_Fk_Sdet(lam, 1, space)
    assert in_Fk_Sdet(lam, 2, space)
    assert all(sum(lam[s:]) >= -comb(2 - s + 1, 2) - 2 for s in range(2))
