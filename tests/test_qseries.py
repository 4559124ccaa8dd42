import json
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dethodge import qseries, suites
from dethodge.matrixspace import MatrixSpace, Stratum, dim_stratum
from dethodge.qseries import (
    SCHOOLBOOK_BELOW,
    DecompositionTable,
    LaurentPoly,
    closed_form_OYp,
    grassmannian_poincare,
    pushforward_structure_checks,
    pushforward_DpY,
    pushforward_prefactor,
    q_binomial,
    qbinomial_identity_verdicts,
    solve_pushforward_OYp,
    stalk_poly,
    verify_qbinomial_identity,
)


def qbin_by_subsets(a, b):
    """Independent oracle: the Gaussian binomial counts b-subsets of
    {0..a-1} by their sum above the minimum."""
    coeffs = {}
    for subset in combinations(range(a), b):
        e = sum(subset) - comb(b, 2)
        coeffs[e] = coeffs.get(e, 0) + 1
    return LaurentPoly(coeffs)


def test_laurent_arithmetic():
    f = LaurentPoly({-1: 1, 2: 3})
    g = LaurentPoly({0: 1, 1: -1})
    assert f + g == LaurentPoly({-1: 1, 0: 1, 1: -1, 2: 3})
    assert f - f == LaurentPoly.zero()
    assert f * LaurentPoly.zero() == LaurentPoly.zero()
    assert (f * g).coefficient(3) == -3
    assert f.shift(2) == LaurentPoly({1: 1, 4: 3})
    assert f.stretch(2) == LaurentPoly({-2: 1, 4: 3})
    assert LaurentPoly({0: 1, 1: 1}) ** 2 == LaurentPoly({0: 1, 1: 2, 2: 1})
    assert f.at_one() == 4


def test_laurent_str_and_json():
    f = LaurentPoly({-2: 1, 0: 2, 2: 1})
    assert str(f) == "q^-2 + 2 + q^2"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({1: -1, 3: 5})) == "-q + 5*q^3"
    assert f.to_json() == '{"-2": 1, "0": 2, "2": 1}'
    assert LaurentPoly.zero().to_json() == "{}"


@pytest.mark.parametrize(
    "coeffs",
    [
        {0: 1.5, "2": 2.9},  # once truncated, silently, to {0: 1, 2: 2}
        {0: 1.5},
        {0: 1.0},
        {0: 2.9, 1: 1},
        {"2": 1},
        {2.0: 1},
        {0: "3"},
        {0: None},
        {0: 0.0},
        [(1, 2), (0.5, 1)],
    ],
    ids=repr,
)
def test_laurent_refuses_non_integers(coeffs):
    with pytest.raises(TypeError):
        LaurentPoly(coeffs)
    # A bool is an int, and is stored as one.
    assert LaurentPoly({0: True, 1: -2}).to_json() == '{"0": 1, "1": -2}'


def test_q_binomial_examples():
    assert q_binomial(2, 1) == LaurentPoly({0: 1, 1: 1})
    assert q_binomial(4, 2) == LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert q_binomial(2, 3) == LaurentPoly.zero()
    with pytest.raises(ValueError):
        q_binomial(2, -1)


def test_q_binomial_against_subset_oracle():
    for a in range(13):
        for b in range(a + 1):
            assert q_binomial(a, b) == qbin_by_subsets(a, b), (a, b)


def test_q_binomial_shape():
    for a in range(16):
        for b in range(a + 1):
            f = q_binomial(a, b)
            assert f.at_one() == comb(a, b)
            assert all(v > 0 for v in f.coefficients())
            assert f.coefficients() == f.coefficients()[::-1]
            if f.at_one() > 1 or b in (0, a):
                assert f.min_exp == 0 and f.max_exp == b * (a - b)


def test_stretch_by_two_substitutes_q2():
    assert LaurentPoly({0: 1, 1: 1}).stretch(2) == LaurentPoly({0: 1, 2: 1})
    assert LaurentPoly({-1: 1}).stretch(2) == LaurentPoly({-2: 1})
    assert q_binomial(3, 1).stretch(2) == LaurentPoly({0: 1, 2: 1, 4: 1})


def test_grassmannian_poincare():
    assert grassmannian_poincare(1, 2) == LaurentPoly({0: 1, 2: 1})
    expected = LaurentPoly({0: 1, 2: 1, 4: 2, 6: 1, 8: 1})
    assert grassmannian_poincare(2, 4) == expected
    assert grassmannian_poincare(2, 4).at_one() == 6
    assert grassmannian_poincare(0, 5) == LaurentPoly.one()
    assert grassmannian_poincare(3, 2) == LaurentPoly.zero()


def test_stalk_poly():
    space = MatrixSpace(2, 2)
    assert stalk_poly(1, 0, space) == LaurentPoly({-3: 1, -1: 1})
    for i in range(3):
        assert stalk_poly(i, i, space) == LaurentPoly.monomial(
            -dim_stratum(Stratum(space, i))
        )
    with pytest.raises(ValueError):
        stalk_poly(0, 1, space)


def test_stalk_poly_specializes_to_binomial():
    for m in range(1, 6):
        for n in range(1, min(m, 4) + 1):
            space = MatrixSpace(m, n)
            for i in range(n + 1):
                for k in range(i + 1):
                    assert stalk_poly(i, k, space).at_one() == comb(n - k, i - k)


def test_solver_blow_up_case():
    table = solve_pushforward_OYp(MatrixSpace(2, 1), 1)
    assert table.entries == {0: LaurentPoly.one(), 1: LaurentPoly.one()}


def test_solver_top_entry_is_always_one():
    for m in range(1, 6):
        for n in range(1, min(m, 3) + 1):
            space = MatrixSpace(m, n)
            for p in range(n + 1):
                assert solve_pushforward_OYp(space, p).entries[p] == LaurentPoly.one()


def test_solver_matches_closed_form():
    for m in range(1, 6):
        for n in range(1, min(m, 3) + 1):
            space = MatrixSpace(m, n)
            for p in range(n + 1):
                assert solve_pushforward_OYp(space, p) == closed_form_OYp(space, p)


def test_pushforward_examples():
    one = LaurentPoly.one()
    # adjacent rectangular case: two summands, both in degree zero
    for n in (1, 2, 3):
        table = pushforward_DpY(MatrixSpace(n + 1, n), n)
        expected = {n: one, n - 1: one}
        assert table.entries == expected
    assert pushforward_DpY(MatrixSpace(3, 2), 2).entries == {2: one, 1: one}


def test_pushforward_square_case_is_identity():
    for n in (1, 2, 3):
        space = MatrixSpace(n, n)
        for p in range(n + 1):
            assert pushforward_DpY(space, p).entries == {p: LaurentPoly.one()}


def test_pushforward_parity():
    # every entry is supported in exponents of one parity
    for m in range(1, 7):
        for n in range(1, min(m, 4) + 1):
            space = MatrixSpace(m, n)
            for p in range(n + 1):
                for poly in pushforward_DpY(space, p).entries.values():
                    parities = {e % 2 for e, _ in poly.items()}
                    assert len(parities) == 1


def test_pushforward_prefactor_consistency():
    # Both routes against the product oracle: the prefactor times the
    # structure sheaf's table, by LaurentPoly products, with that table from
    # the closed form and from the reference solver.
    spaces = [MatrixSpace(m, n) for m in range(1, 9) for n in range(1, min(m, 5) + 1)]
    for space in spaces + [MatrixSpace(40, 20)]:
        for p in range(space.n + 1):
            pre = pushforward_prefactor(space, p)
            tables = {route: pushforward_DpY(space, p, route=route) for route in ("closed", "solver")}
            for base in (closed_form_OYp(space, p), solve_by_stretched_substitution(space, p)):
                for route, table in tables.items():
                    assert table.entries.keys() == base.entries.keys(), (space, p, route)
                    for i, f in base.entries.items():
                        assert table.entries[i] == pre * f, (space, p, route, i)


def test_the_closed_route_checks_its_divisions(monkeypatch):
    space, p = MatrixSpace(7, 4), 3
    pushforward_prefactor(space, p)  # the prefactor's q-binomial is cached and correct
    original = qseries._times_one_minus_q

    def corrupted(coeffs, s):
        out = original(coeffs, s)
        out[-1] += 1
        return out

    monkeypatch.setattr(qseries, "_times_one_minus_q", corrupted)
    with pytest.raises(ArithmeticError):
        pushforward_DpY(space, p)
    monkeypatch.undo()
    assert pushforward_DpY(space, p) == pushforward_DpY(space, p, route="solver")


def laurent_identity(a, b, c):
    """Oracle: both sides of the q-Vandermonde convolution built as
    LaurentPoly sums and products, from whatever qseries.q_binomial
    returns at call time."""
    rhs = LaurentPoly.zero()
    for j in range(c + 1):
        term = qseries.q_binomial(a, j) * qseries.q_binomial(b, c - j)
        rhs = rhs + term.shift(j * (b - c + j))
    return qseries.q_binomial(a + b, c) == rhs


def test_qbinomial_identity_examples():
    assert verify_qbinomial_identity(1, 1, 1)
    assert verify_qbinomial_identity(0, 0, 0)
    for a in range(9):
        for b in range(9):
            for c in range(9):
                # The packed comparison and the Laurent sum both hold.
                assert verify_qbinomial_identity(a, b, c), (a, b, c)
                assert laurent_identity(a, b, c), (a, b, c)


def test_identity_verdicts_match_the_laurent_sums():
    # One call per (a, b) decides every c, as the Laurent sums do one by one.
    for a in range(13):
        for b in range(13):
            verdicts = qbinomial_identity_verdicts(a, b, 12)
            assert verdicts == [laurent_identity(a, b, c) for c in range(13)], (a, b)
            assert all(verdicts)
    assert qbinomial_identity_verdicts(3, 4, 0) == [True]
    for args in ((-1, 2, 3), (2, -1, 3), (2, 3, -1)):
        with pytest.raises(ValueError):
            qbinomial_identity_verdicts(*args)
    with pytest.raises(ValueError):
        verify_qbinomial_identity(2, 3, -1)


def test_qidentity_suite_reports_exactly_what_a_bumped_coefficient_breaks(monkeypatch):
    # qbin(5, 2) with its q^3 coefficient raised by one: every (a, b, c)
    # whose convolution it enters on one side only must fail, in
    # (a, b, c) order, and no other. Where it enters both sides alike,
    # as qbin(5, 2) = q^0 * qbin(5, 2) * qbin(0, 0), the identity holds.
    genuine = qseries.q_binomial
    bumped = genuine(5, 2) + LaurentPoly.monomial(3)
    monkeypatch.setattr(
        qseries, "q_binomial", lambda a, b: bumped if (a, b) == (5, 2) else genuine(a, b)
    )
    [report] = suites.qidentity()
    cases = [(a, b, c) for a in range(13) for b in range(13) for c in range(13)]
    expected = [dict(a=a, b=b, c=c) for a, b, c in cases if not laurent_identity(a, b, c)]
    assert report.checks == len(cases) == 2197
    assert report.failures == expected
    failing = {(f["a"], f["b"], f["c"]) for f in expected}
    enters = {
        (a, b, c)
        for a, b, c in cases
        if (a + b, c) == (5, 2) or (a == 5 and 2 <= c <= b + 2) or (b == 5 and 2 <= c <= a + 2)
    }
    assert failing == enters - {(5, 0, 2), (0, 5, 2)}


def _top_term_added(poly, b):
    # The top coefficient raised by one: same support, at_one one higher.
    return poly + LaurentPoly.monomial(poly.max_exp)


def _negative_term_added(poly, b):
    return poly - LaurentPoly.monomial(poly.max_exp + 1)


def _unit_moved_up(poly, b):
    # The constant term's unit moved above the top: the value at q = 1 is
    # unchanged, and the lowest exponent becomes 1.
    return poly - 1 + LaurentPoly.monomial(poly.max_exp + 1)


def _shifted_by_lower_index(poly, b):
    # qbin(a, b) * q^b: the exponents on both sides of the convolution grow
    # by c, so the identity still holds with every lowest exponent above 0.
    return poly.shift(b)


@pytest.mark.parametrize(
    "perturb",
    [_top_term_added, _negative_term_added, _unit_moved_up, _shifted_by_lower_index],
    ids=lambda f: f.__name__,
)
def test_packed_identity_sees_a_perturbed_q_binomial(monkeypatch, perturb):
    genuine = qseries.q_binomial

    def perturbed(a, b):
        poly = genuine(a, b)
        return perturb(poly, b) if poly else poly

    monkeypatch.setattr(qseries, "q_binomial", perturbed)
    cases = [(a, b, c) for a in range(7) for b in range(7) for c in range(7)]
    verdicts = [verify_qbinomial_identity(*case) for case in cases]
    if perturb in (_top_term_added, _negative_term_added):
        # Where c > a + b both sides are zero, and zero is left as it is.
        # Elsewhere an extra term breaks the value at q = 1, and a negative
        # coefficient must never pass, even where the sums would agree.
        assert verdicts == [c > a + b for a, b, c in cases]
    else:
        # Coefficients stay nonnegative: the packed check decides as the
        # Laurent sum does.
        assert verdicts == [laurent_identity(*case) for case in cases]
        assert all(verdicts) == (perturb is _shifted_by_lower_index)
    monkeypatch.undo()
    # No packing of a perturbed polynomial outlives the perturbation.
    assert all(verify_qbinomial_identity(*case) for case in cases)


@pytest.mark.parametrize(
    "patch,case,holds",
    [
        # In one-byte slots 16 * 16 carries: 256 + 256q reads as q + q^2.
        (
            {(1, 0): LaurentPoly({0: 16}), (1, 1): LaurentPoly({0: 16}),
             (2, 1): LaurentPoly({1: 1, 2: 1})},
            (1, 1, 1),
            False,
        ),
        # A negative operand is refused, even where the left side is zero.
        ({(1, 0): LaurentPoly({0: 1, 1: -1}), (2, 1): LaurentPoly()}, (1, 1, 1), False),
        # A value at q = 1 beyond comb(a+b, (a+b)//2) = 1 needs wider slots.
        ({(1, 1): LaurentPoly({0: 300})}, (1, 0, 1), True),
    ],
    ids=["carry", "negative", "wide"],
)
def test_packed_identity_keeps_its_guards(monkeypatch, patch, case, holds):
    # Each perturbation slips through one guard of the packed comparison
    # if that guard is dropped: the value check, the refusal of negative
    # coefficients, the wider slots.
    genuine = qseries.q_binomial
    monkeypatch.setattr(
        qseries, "q_binomial", lambda a, b: patch[a, b] if (a, b) in patch else genuine(a, b)
    )
    assert verify_qbinomial_identity(*case) == laurent_identity(*case) == holds
    a, b, _ = case
    assert qbinomial_identity_verdicts(a, b, 3) == [laurent_identity(a, b, c) for c in range(4)]


def test_pushforward_structure_reports():
    for p in range(3):
        report = pushforward_structure_checks(MatrixSpace(3, 2), p)
        assert report.ok, report.failures
    report = pushforward_structure_checks(MatrixSpace(4, 2), 2)
    assert report.ok
    table = pushforward_DpY(MatrixSpace(4, 2), 2)
    assert table.entries[0].max_exp == 0


def test_pushforward_top_degree_at_i_equals_p():
    # at i = p the top degree coincides with the middle-degree exponent
    for m in range(2, 6):
        for n in range(1, min(m, 3) + 1):
            space = MatrixSpace(m, n)
            for p in range(n + 1):
                table = pushforward_DpY(space, p)
                assert table.entries[p].max_exp == (n - p) * (m - n)


def test_decomposition_table_validation():
    space = MatrixSpace(3, 2)
    with pytest.raises(ValueError):
        DecompositionTable(space, 1, {2: LaurentPoly.one()})
    with pytest.raises(ValueError):
        DecompositionTable(space, 1, {0: LaurentPoly({0: -1})})
    table = DecompositionTable(space, 1, {0: LaurentPoly.zero(), 1: LaurentPoly.one()})
    assert 0 not in table.entries


# -- dense arithmetic against a sparse reference ---------------------------


def ref_mul(f, g):
    """Sparse dict convolution, the reference for LaurentPoly.__mul__."""
    out = {}
    for e1, v1 in f.items():
        for e2, v2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def ref_add(f, g, sign=1):
    """Sparse dict sum f + sign * g, the reference for + and -."""
    out = dict(f.items())
    for e, v in g.items():
        out[e] = out.get(e, 0) + sign * v
    return {e: v for e, v in out.items() if v}


COEFFS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**20), 2**20),
    st.integers(-(2**80), 2**80),
)


@st.composite
def polys(draw, max_len=40):
    """Laurent polynomials with signed, small or huge coefficients, gaps,
    and exponents on both sides of zero."""
    lo = draw(st.integers(-30, 30))
    coeffs = draw(st.lists(COEFFS, max_size=max_len))
    return LaurentPoly({lo + i: c for i, c in enumerate(coeffs)})


def sparse(f):
    return dict(f.items())


def assert_trimmed(f):
    terms = f.items()
    if terms:
        assert (terms[0][0], terms[-1][0]) == (f.min_exp, f.max_exp)
        assert f.coefficient(f.min_exp) and f.coefficient(f.max_exp)
    else:
        assert f == LaurentPoly.zero() and not f


@given(polys(), polys())
def test_mul_and_add_match_sparse_reference(f, g):
    product = f * g
    assert sparse(product) == ref_mul(f, g)
    assert sparse(f + g) == ref_add(f, g)
    assert sparse(f - g) == ref_add(f, g, -1)
    for result in (product, f + g, f - g):
        assert_trimmed(result)


@given(polys(max_len=12), polys(max_len=12), polys(max_len=12))
def test_ring_laws(f, g, h):
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) + h == f + (g + h)
    assert f * one == f and f + zero == f and f * zero == zero
    assert f - f == zero and f + (-f) == zero
    assert f - g == -(g - f)
    assert 3 - f == -(f - 3) and 2 * f == f + f == f * 2
    assert hash(f * g) == hash(g * f)


@given(polys(), st.integers(-40, 40))
def test_shift_and_monomial_products(f, d):
    assert f.shift(d) == f * LaurentPoly.monomial(d)
    assert sparse(f * LaurentPoly.monomial(d, -7)) == ref_mul(f, LaurentPoly({d: -7}))
    assert f.shift(d).shift(-d) == f


@given(polys(), st.integers(-3, 3))
def test_stretch_matches_sparse_substitution(f, factor):
    expected = {}
    for e, v in f.items():
        expected[factor * e] = expected.get(factor * e, 0) + v
    assert sparse(f.stretch(factor)) == {e: v for e, v in expected.items() if v}


def test_huge_coefficients():
    big = 2**64
    f = LaurentPoly({-3: big + 1, 5: -(big**2), 9: 7})
    # (-1) ** i is a float for i < 0: take the sign from i % 2 to stay exact.
    g = LaurentPoly({i: (-1) ** (i % 2) * (big + i) for i in range(-4, 60)})
    assert sparse(f * g) == ref_mul(f, g)
    assert sparse(g * g) == ref_mul(g, g)
    assert sparse(f * f) == ref_mul(f, f)


CUTOFF_PAIRS = [
    (1, 1),
    (1, SCHOOLBOOK_BELOW - 1),
    (1, SCHOOLBOOK_BELOW),
    (7, 9),
    (8, 8),
    (9, 8),
    (SCHOOLBOOK_BELOW + 1, SCHOOLBOOK_BELOW),
]


@pytest.mark.parametrize("la,lb", CUTOFF_PAIRS)
@pytest.mark.parametrize("magnitude", [1, 10, 100, 10**4, 2**40])
@pytest.mark.parametrize("signed", [False, True])
def test_mul_on_both_sides_of_the_schoolbook_cutoff(la, lb, magnitude, signed):
    # The magnitudes give packed slots of 1, 2, 4 and 8 bytes, and wider.
    def poly(length, lo, seed):
        low = -magnitude if signed else 1
        coeffs = [low + (seed * 7919 + 104729 * i) % (magnitude - low + 1) for i in range(length)]
        coeffs[0] = coeffs[-1] = magnitude
        return LaurentPoly({lo + i: c for i, c in enumerate(coeffs)})

    f, g = poly(la, -la // 2, 1), poly(lb, 3, 2)
    assert sparse(f * g) == ref_mul(f, g)
    assert sparse(g * f) == ref_mul(f, g)


def in_q_squared(length, lo, magnitude, seed):
    """A signed q^lo * h(q^2) with 2*length - 1 slots and nonzero ends."""
    coeffs = [(-1) ** i * (1 + (seed * 7919 + 104729 * i) % magnitude) for i in range(length)]
    # Gaps inside: every fifth even slot below the top is zero.
    keep = lambda i: i % 5 != 2 or i + 1 == length
    return LaurentPoly({lo + 2 * i: c for i, c in enumerate(coeffs) if keep(i)})


STRIDE_PAIRS = [(1, 40), (2, 2), (3, 3), (4, 5), (4, 6), (4, 8), (5, 7), (6, 6), (20, 33)]


@pytest.mark.parametrize("la,lb", STRIDE_PAIRS)
@pytest.mark.parametrize("magnitude", [3, 2**40])
def test_mul_of_polynomials_in_q_squared(la, lb, magnitude):
    f, g = in_q_squared(la, -7, magnitude, 1), in_q_squared(lb, 3, magnitude, 2)
    # One slot more after the top: a nonzero odd slot.
    odd = f + LaurentPoly.monomial(f.max_exp + 1, -5)
    for x, y in ((f, g), (g, f), (odd, g), (g, odd)):
        assert sparse(x * y) == ref_mul(x, y)


def test_zero_and_monomial_operands():
    zero, f = LaurentPoly.zero(), LaurentPoly({-2: 5, 0: -1, 70: 3})
    assert f * zero == zero * f == zero and (f * 0).is_zero
    assert f * LaurentPoly.monomial(-5, -2) == LaurentPoly({-7: -10, -5: 2, 65: -6})
    assert zero.shift(4) == zero and zero.stretch(3) == zero
    assert zero - f == -f and zero + f == f


def test_dense_api_details():
    f = LaurentPoly([(3, 0), (-2, 4), (1, -1)])
    assert f.items() == [(-2, 4), (1, -1)] and f.coefficients() == [4, -1]
    assert (f.min_exp, f.max_exp) == (-2, 1) and f.coefficient(0) == 0
    assert f.coefficient(-9) == 0 and f.coefficient(9) == 0
    assert repr(f) == "LaurentPoly({-2: 4, 1: -1})"
    assert f == LaurentPoly({1: -1, -2: 4}) and LaurentPoly({0: 5}) == 5
    assert f.stretch(0) == LaurentPoly({0: 3}) and f.stretch(-1) == LaurentPoly({2: 4, -1: -1})
    with pytest.raises(ValueError):
        LaurentPoly.zero().max_exp


# -- q-binomial: shape, recurrences and the exactness guard -----------------


def test_q_binomial_symmetry_pascal_and_value_at_one():
    q = LaurentPoly.monomial(1)
    for a in range(1, 61):
        for b in range(min(a, 30) + 1):
            f = q_binomial(a, b)
            assert f == q_binomial(a, a - b), (a, b)
            assert f.at_one() == comb(a, b), (a, b)
            if 0 < b < a:
                lower, upper = q_binomial(a - 1, b - 1), q_binomial(a - 1, b)
                assert f == lower + q**b * upper, (a, b)
                assert f == q ** (a - b) * lower + upper, (a, b)


def test_q_binomial_division_steps_are_checked(monkeypatch):
    with pytest.raises(ArithmeticError):
        qseries._divide_one_minus_q([1, 1, 1], 1)
    assert qseries._divide_one_minus_q([1, 0, -1], 1) == [1, 1]

    original = qseries._times_one_minus_q

    def corrupted(coeffs, s):
        out = original(coeffs, s)
        out[-1] += 1
        return out

    clear_q_binomial_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(qseries, "_times_one_minus_q", corrupted)
            with pytest.raises(ArithmeticError):
                q_binomial(7, 3)
    finally:
        clear_q_binomial_caches()
    assert q_binomial(7, 3) == qbin_by_subsets(7, 3)


@pytest.mark.parametrize("length", [1, 2, 5, 16, 17, 40, 101])
def test_division_by_one_minus_q_on_both_sides_of_the_square_root(length):
    # Prefix sums per residue class when j * j < len, block additions otherwise.
    rng = random.Random(f"divide|{length}")
    sides = set()
    for j in range(1, length + 12):
        f = [rng.randint(-(2**70), 2**70) for _ in range(length)]
        product = qseries._times_one_minus_q(f, j)
        sides.add(j * j < len(product))
        assert qseries._divide_one_minus_q(product, j) == f, (length, j)
        bumped = list(product)
        bumped[rng.randrange(len(bumped))] += rng.choice((-1, 1))
        with pytest.raises(ArithmeticError):
            qseries._divide_one_minus_q(bumped, j)
    assert sides == {True, False}


def clear_q_binomial_caches():
    """Make every q_binomial cold: its lru_cache and its diagonals."""
    q_binomial.cache_clear()
    qseries._DIAGONALS.clear()


def test_q_binomial_continues_along_its_diagonal(monkeypatch):
    steps = []
    original = qseries._divide_one_minus_q

    def counted(coeffs, j):
        steps.append(j)
        return original(coeffs, j)

    clear_q_binomial_caches()
    monkeypatch.setattr(qseries, "_divide_one_minus_q", counted)
    try:
        # qbin(30, 12), qbin(29, 11) and qbin(31, 13) share the diagonal c = 18.
        for (a, b), expected in [((30, 12), 12), ((29, 11), 0), ((31, 13), 1), ((31, 18), 0)]:
            del steps[:]
            assert q_binomial(a, b).at_one() == comb(a, b)
            assert len(steps) == expected, (a, b, steps)
        assert steps == [] and qseries._DIAGONALS[18][13] == q_binomial(31, 13)._c
    finally:
        clear_q_binomial_caches()


def solve_by_stretched_substitution(space, p):
    """Reference solver: the stalk identities back-substituted as Laurent
    polynomials in q, the q-binomials stretched to q^2, each step undone
    by a shift."""
    m, n = space.m, space.n
    f = {}
    for k in range(p, -1, -1):
        acc = q_binomial(m - k, p - k).stretch(2)
        for i in range(k + 1, p + 1):
            term = f[i] * q_binomial(n - k, i - k).stretch(2)
            acc = acc - term.shift((p - i) * (m + n - p - i))
        f[k] = acc.shift(-(p - k) * (m + n - p - k))
    return DecompositionTable(space, p, f)


def test_solver_matches_the_stretched_substitution():
    for m in range(1, 15):
        for n in range(1, m + 1):
            space = MatrixSpace(m, n)
            for p in range(n + 1):
                expected = solve_by_stretched_substitution(space, p)
                assert solve_pushforward_OYp(space, p) == expected, (m, n, p)


def record_widths(monkeypatch):
    """The slot width of every `_packed_sum`, seen as it unpacks its sum."""
    widths = []
    original = qseries._unpack

    def spy(value, width, count):
        widths.append(width)
        return original(value, width, count)

    monkeypatch.setattr(qseries, "_unpack", spy)
    return widths


def product_bound(f, g):
    """The largest slot of f * g, in either accumulation, from the
    coefficients: min(max|f| * sum|g|, sum|f| * max|g|)."""
    fa, ga = [abs(v) for v in f._c], [abs(v) for v in g._c]
    return min(max(fa) * sum(ga), sum(fa) * max(ga))


def packed(f):
    """f's coefficients from its lowest term, as a `_packed_sum` operand."""
    return qseries._Packed(0, f._c)


@given(st.lists(st.tuples(polys(max_len=20), polys(max_len=20)), min_size=1, max_size=4))
def test_packed_sum_matches_sparse_reference(pairs):
    # The kernel reads coefficient lists from t^0 and shifts each product into
    # place: take g from its lowest term, and f's lowest term above the lowest
    # of all f as the product's slot offset.
    pairs = [(f, g.shift(-g.min_exp)) for f, g in pairs if f and g]
    assume(pairs)
    low = min(f.min_exp for f, _ in pairs)
    pairs = [(f.shift(-low), g) for f, g in pairs]
    expected = LaurentPoly.zero()
    for f, g in pairs:
        expected = LaurentPoly(ref_add(expected, LaurentPoly(ref_mul(f, g))))
    count = max(f.max_exp + g.max_exp + 1 for f, g in pairs)
    with pytest.MonkeyPatch.context() as monkeypatch:
        widths = record_widths(monkeypatch)
        got = qseries._packed_sum([(packed(f), packed(g), f.min_exp) for f, g in pairs], count)
    assert len(got) == count
    assert sparse(LaurentPoly(enumerate(got))) == sparse(expected)
    # Slots for the sum of the bounds, within those for the sum of |f| * |g| at t = 1.
    # (One unpack for each nonzero accumulation.)
    norm = lambda f: sum(map(abs, f.coefficients()))
    [width] = set(widths)
    assert width == qseries._slot_width(sum(product_bound(f, g) for f, g in pairs))
    assert width <= qseries._slot_width(sum(norm(f) * norm(g) for f, g in pairs))


def test_solver_matches_closed_form_40x20():
    space = MatrixSpace(40, 20)
    for p in range(space.n + 1):
        assert solve_pushforward_OYp(space, p) == closed_form_OYp(space, p), p


def test_pushforward_routes_agree():
    spaces = [MatrixSpace(m, n) for m in range(1, 9) for n in range(1, min(m, 5) + 1)]
    for space in spaces + [MatrixSpace(40, 20)]:
        n = space.n
        for p in range(n + 1):
            assert pushforward_DpY(space, p, route="solver") == pushforward_DpY(space, p)
    with pytest.raises(ValueError):
        pushforward_DpY(MatrixSpace(3, 2), 1, route="guess")


# -- slot widths at the coefficient-level bound ------------------------------


@st.composite
def mixed_sign_polys(draw, max_len=20):
    """Polynomials from t^0 with a positive and a negative end coefficient,
    so both accumulations of `_packed_sum` are used."""
    coeffs = draw(st.lists(COEFFS, min_size=2, max_size=max_len))
    coeffs[0], coeffs[-1] = abs(coeffs[0]) or 1, -(abs(coeffs[-1]) or 1)
    if draw(st.booleans()):
        coeffs.reverse()
    return LaurentPoly(enumerate(coeffs))


@given(st.lists(st.tuples(mixed_sign_polys(), polys(max_len=20)), min_size=1, max_size=4))
def test_packed_sum_at_the_coefficient_level_width(pairs):
    # The kernel reads coefficient lists from t^0: take each g from its lowest term.
    pairs = [(f, g.shift(-g.min_exp)) for f, g in pairs if g]
    assume(pairs)
    expected = LaurentPoly.zero()
    for f, g in pairs:
        expected = LaurentPoly(ref_add(expected, LaurentPoly(ref_mul(f, g))))
    count = max(f.max_exp + g.max_exp + 1 for f, g in pairs)
    with pytest.MonkeyPatch.context() as monkeypatch:
        widths = record_widths(monkeypatch)
        got = qseries._packed_sum([(packed(f), packed(g), 0) for f, g in pairs], count)
    assert sparse(LaurentPoly(enumerate(got))) == sparse(expected)
    # The slots hold the sum over the pairs of min(max|f| sum|g|, sum|f| max|g|).
    assert set(widths) == {qseries._slot_width(sum(product_bound(f, g) for f, g in pairs))}


# width -> n, a divisor of 256^width - 1 with n * n >= SCHOOLBOOK_BELOW.
FULL_SLOT_LENGTHS = {1: 17, 2: 257, 3: 241, 4: 257, 8: 641, 9: 17}


@pytest.mark.parametrize("width", sorted(FULL_SLOT_LENGTHS))
def test_a_slot_filled_to_the_top_does_not_carry(monkeypatch, width):
    # a = [peak] * n and b = [1] * n meet in the middle slot of a*b, which is
    # n * peak = 256^width - 1: exactly the largest value `width` bytes hold.
    top, n = 256**width - 1, FULL_SLOT_LENGTHS[width]
    peak = top // n
    assert n * peak == top
    a, b = [peak] * n, [1] * n
    assert product_bound(LaurentPoly(enumerate(a)), LaurentPoly(enumerate(b))) == top
    # The kernel picks exactly `width` bytes; 3 bytes are rounded up to 4.
    chosen = 4 if width == 3 else width
    assert qseries._slot_width(top) == chosen
    assert width == 3 or qseries._slot_width(top + 1) > width
    expected = ref_mul(LaurentPoly(enumerate(a)), LaurentPoly(enumerate(b)))
    assert max(expected.values()) == top
    widths = record_widths(monkeypatch)
    # Both the positive and the negative accumulation reach the top.
    for sign_a, sign_b in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        sa, sb = [sign_a * v for v in a], [sign_b * v for v in b]
        got = qseries._convolve(sa, sb)
        assert dict(enumerate(got)) == {e: sign_a * sign_b * v for e, v in expected.items()}
        operands = (qseries._Packed(0, sa), qseries._Packed(0, sb), 0)
        got = qseries._packed_sum([operands], 2 * n - 1)
        assert got[n - 1] == sign_a * sign_b * top
        assert dict(enumerate(got)) == {e: sign_a * sign_b * v for e, v in expected.items()}
    # A nonzero negative accumulation takes a second unpack.
    assert set(widths) == {chosen} and len(widths) == 12


def test_the_solver_packs_the_40x20_tables_in_at_most_four_bytes(monkeypatch):
    widths = record_widths(monkeypatch)
    space = MatrixSpace(40, 20)
    for p in range(space.n + 1):
        assert solve_pushforward_OYp(space, p) == closed_form_OYp(space, p), p
    # The value at t = 1 of |g_i| * qbin(n-k, i-k) needs 8-byte slots here.
    assert widths and max(widths) == 4


def test_packed_sum_edge_operands():
    P = qseries._Packed
    # An empty coefficient list packs to nothing and contributes nothing.
    empty = P(0, [])
    assert (empty.peak, empty.norm, empty.total, empty.packed(1)) == (0, 0, 0, (0, 0))
    assert qseries._packed_sum([(empty, P(0, [1, 2]), 0)], 3) == [0, 0, 0]
    assert qseries._packed_sum([(empty, empty, 2)], 2) == [0, 0]
    assert qseries._packed_sum([], 2) == [0, 0]
    # All coefficients negative: the whole operand is its negative part.
    neg = P(0, [-3, -1, -4])
    assert (neg.peak, neg.norm, neg.total) == (4, 8, None)
    assert neg.packed(1) == (0, qseries._pack([3, 1, 4], 1))
    assert qseries._packed_sum([(neg, P(0, [1, 1]), 0)], 4) == [-3, -4, -5, -4]
    assert qseries._packed_sum([(neg, neg, 0)], 5) == [9, 6, 25, 8, 16]
    # Nonzero offsets shift each product into place; the empty one adds nothing.
    products = [(P(0, [1, -1]), P(0, [2]), 3), (neg, P(0, [1]), 1), (empty, neg, 0)]
    assert qseries._packed_sum(products, 6) == [0, -3, -1, -2, -2, 0]


# -- JSON text, against the dict route through json.dumps ---------------------


def coeff_map(poly):
    """Reference: the exponent-to-coefficient map that json.dumps writes."""
    return {str(e): v for e, v in poly.items()}


def table_payload(table):
    """Reference: the dict that json.dumps writes for a table."""
    return {
        "m": table.space.m,
        "n": table.space.n,
        "p": table.p,
        "entries": [{"i": i, "poly": coeff_map(table.entries[i])} for i in sorted(table.entries)],
    }


def test_table_json_matches_the_dict_route_on_every_2n_by_n_space():
    for n in range(1, 21):
        space = MatrixSpace(2 * n, n)
        for p in range(n + 1):
            for route in ("closed", "solver"):
                table = pushforward_DpY(space, p, route=route)
                assert table.to_json() == json.dumps(table_payload(table)), (n, p, route)


@given(polys())
def test_poly_json_matches_the_dict_route(f):
    assert f.to_json() == json.dumps(coeff_map(f))


def test_poly_json_edge_cases():
    big = 2**64
    cases = [
        LaurentPoly({-5: 1, -3: -2, 0: 7}),  # negative exponents, an interior zero at -4
        LaurentPoly({-1: -(big**3), 4: big + 1, 9: -big}),  # beyond 64 bits, both signs
        LaurentPoly({0: 1, 600: 1}),  # 599 interior zeros, across a key block
        LaurentPoly({-(10**9): 3, 4 - 10**9: -4}),  # far out: only one key block is built
        LaurentPoly.monomial(10**9, -1),
        LaurentPoly.monomial(-1, -1),
    ]
    for f in cases:
        assert f.to_json() == json.dumps(coeff_map(f)), f
    assert cases[0].to_json() == '{"-5": 1, "-3": -2, "0": 7}'


def test_table_json_beyond_any_fixed_key_range():
    # decompose --m 400 --n 10 --p 10: exponents from -3,800 to 3,800.
    table = pushforward_DpY(MatrixSpace(400, 10), 10)
    assert min(poly.min_exp for poly in table.entries.values()) == -3800
    assert max(poly.max_exp for poly in table.entries.values()) == 3800
    assert table.to_json() == json.dumps(table_payload(table))
    # Entries far out on both sides, in one table.
    far = DecompositionTable(
        MatrixSpace(3, 2),
        1,
        {0: LaurentPoly({-(10**7): 2, 5 - 10**7: 1}), 1: LaurentPoly({10**7: 1, 10**7 + 2: 3})},
    )
    assert far.to_json() == json.dumps(table_payload(far))
