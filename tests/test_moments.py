"""The ensemble integral, closed-form evaluators, and genus tables."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgue import (
    ONE,
    ZERO,
    Partition,
    Scalar,
    SizeError,
    XPoly,
    apply_M0,
    evaluate_at,
    functional_L,
    gaussian_moment,
    genus_table,
    hermite,
    hermite_norm,
    hermite_squared_moment,
    hook_moment_closed_form,
    integrate_power_sum,
    integrate_schur,
    integrate_symmetric,
    level_density_moment,
    m_q,
    normalization,
    p2m_closed_form,
    pairing_genus_counts,
    partitions,
    power_sum_vector,
    q_binomial,
    q_factorial,
    q_integer,
    qhz_lhs,
    qhz_rhs,
    sigma_closed_form,
    theorem5_lhs,
    theorem5_rhs,
    truncated_in_shadow_basis,
)
from qgue import moments, qxpoly
from oracles import (
    double_factorial,
    family_alternant,
    hermite_squared_by_product,
    operator_series,
    pairing_genus_counts_by_matchings,
    printed_hook,
    printed_p2m,
    printed_theorem5_rhs,
    telescoped_even_moments,
    tuple_product,
)

P = Partition


def test_normalization_examples():
    assert normalization(1) == ONE
    assert normalization(2) == Scalar(2)
    assert normalization(3) == Scalar(6) * Scalar.q_power(1) * q_integer(2)


def test_normalization_formula():
    for n in range(1, 5):
        expected = Scalar(math.factorial(n))
        for j in range(n):
            expected = expected * Scalar.q_power(j * (j - 1) // 2) * q_factorial(j)
        assert normalization(n) == expected


def test_integrate_schur_examples():
    assert integrate_schur(P((2,)), 1) == ONE
    assert integrate_schur(P((1, 1)), 2, "oracle") == -ONE
    assert integrate_schur(P((1, 1)), 2, "fast") == -ONE
    assert all(integrate_schur(P((1,)), n) == ZERO for n in (1, 2, 3))
    with pytest.raises(ValueError):
        integrate_schur(P((1,)), 1, "guess")


def test_odd_weight_integrals_vanish():
    for n in (1, 2, 3):
        for kappa in partitions(7, n):
            if kappa.weight % 2:
                assert integrate_schur(kappa, n) == ZERO


def test_integrate_symmetric():
    from qgue import SchurVector

    c = q_integer(5)
    assert integrate_symmetric(SchurVector({P(): c}, 2)) == c
    assert integrate_symmetric(power_sum_vector(1, 2)) == ONE + q_integer(3)
    assert integrate_symmetric(power_sum_vector(2, 2)) == q_integer(3) * (ONE + q_integer(5))


def test_level_density_moment():
    for n in (1, 2, 3):
        assert level_density_moment(XPoly.one(), n) == Scalar(n)
    assert level_density_moment(XPoly.x_power(2), 2) == ONE + q_integer(3)
    assert level_density_moment(XPoly.x_power(4), 2) == q_integer(3) * (ONE + q_integer(5))


def test_level_density_moment_matches_the_product_formula():
    # reference: L(p H_j^2) / L(H_j^2) from the full product, odd coefficients included
    p = XPoly([Scalar(c) for c in (3, -2, 5, 7, 0, Fraction(1, 2), -1)])
    total = ZERO
    for n in range(1, 7):
        hj = hermite(n - 1)
        total = total + functional_L(p * hj * hj) / hermite_squared_by_product(0, n - 1)
        assert level_density_moment(p, n) == total
    assert level_density_moment(XPoly.zero(), 3) == ZERO


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 6), st.integers(0, 17))
@example(6, 16)
@example(6, 17)
def test_jacobi_walk_matches_the_product_route(m, s):
    # every reader of the path count c_2m(s) against L(x^2m H_s^2) from H_s * H_s,
    # with each normalization h_j = L(H_j^2) taken from the product as well
    want = hermite_squared_by_product(m, s)
    ratio = want / hermite_squared_by_product(0, s)
    assert hermite_squared_moment(m, s) == want
    assert qhz_lhs(m, s) == ratio
    assert theorem5_lhs(m, s) == want / hermite_squared_by_product(0, s + 1)
    # the level density over s + 1 variables adds the term j = s to the one over s
    p = XPoly.x_power(2 * m)
    below = level_density_moment(p, s) if s else ZERO
    assert level_density_moment(p, s + 1) - below == ratio


def test_hermite_squared_moment_needs_no_hermite_polynomial():
    # the path count runs on int lists: no H_s is built and no XPoly is multiplied
    want = hermite_squared_by_product(2, 6)
    moments._walk.cache_clear()
    with mock.patch.object(qxpoly, "hermite", side_effect=AssertionError("hermite")):
        with mock.patch.object(XPoly, "__mul__", side_effect=AssertionError("XPoly product")):
            assert hermite_squared_moment(2, 6) == want
            assert hermite_norm(6) == hermite_squared_by_product(0, 6)
    for call in (lambda: hermite_squared_moment(-1, 2), lambda: qhz_lhs(1, -1), lambda: hermite_norm(-1)):
        with pytest.raises(ValueError):
            call()


def test_gaussian_moments_match_closed_form():
    # gaussian_moment reads m_q, so the reference is the telescoped operator series
    mu = telescoped_even_moments(30)
    for k in range(31):
        assert gaussian_moment(2 * k) == mu[k] == m_q(2 * k - 1)
        assert gaussian_moment(2 * k + 1) == ZERO
    with pytest.raises(ValueError):
        gaussian_moment(-2)


def test_moments_never_build_the_whole_inverse_image():
    # L needs only the x^0 term, so no moment may apply the inverse operator
    h6 = hermite(6)
    want = operator_series((h6 * h6).shifted(4), "inverse").coefficient(0)
    for mod in (qxpoly, moments):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    with mock.patch.object(qxpoly, "gaussian_op", side_effect=AssertionError("gaussian_op")):
        assert hermite_squared_moment(2, 6) == want
        assert hermite_norm(5) == Scalar.q_power(10) * q_factorial(5)
        assert gaussian_moment(12) == telescoped_even_moments(6)[6]


def test_hermite_squared_moment():
    assert hermite_squared_moment(1, 1) == q_integer(3)
    for s in range(7):
        assert hermite_squared_moment(0, s) == Scalar.q_power(s * (s - 1) // 2) * q_factorial(s)
    expected = q_integer(5) * q_integer(3) - Scalar(2) * q_integer(3) + ONE
    assert hermite_squared_moment(1, 2) == expected


def test_hook_moment_closed_form_examples():
    assert hook_moment_closed_form(0, 1, 2) == -ONE
    assert hook_moment_closed_form(1, 1, 1) == -ONE
    assert hook_moment_closed_form(3, 2, 1) == -q_integer(3)
    # the oracle values on the same three points, for contrast
    assert integrate_schur(P((1, 1)), 2, "oracle") == -ONE
    assert integrate_schur(P((2,)), 1, "oracle") == ONE
    assert integrate_schur(P((4,)), 1, "oracle") == q_integer(3)
    with pytest.raises(ValueError):
        hook_moment_closed_form(4, 2, 1)


def test_hook_forms_read_the_printed_hook():
    # the hook integral and the printed shadow-basis coefficient at S_(N+ell-2m)
    # are the same printed term; a missing key is zero
    points = 0
    for N in range(1, 8):
        for ell in range(1, 9):
            printed = truncated_in_shadow_basis(N, ell, "printed")
            for m in range((ell + 2) // 2, 10):
                expected = printed_hook(ell, m, N)
                assert hook_moment_closed_form(ell, m, N) == expected, (ell, m, N)
                assert printed.get(N + ell - 2 * m, ZERO) == expected, (ell, m, N)
                points += 1
    assert points == 392


def test_sigma_is_the_printed_hook_pair():
    # sigma_{m,t} = H(2t) - H(2t+1); the hooks past 2m - 1 (t = m) are zero as printed
    points = 0
    for m in range(1, 9):
        for N in range(1, 10):
            for t in range(m + 1):
                pair = printed_hook(2 * t, m, N) - printed_hook(2 * t + 1, m, N)
                assert sigma_closed_form(m, t, N) == pair, (m, t, N)
                points += 1
    assert points == 396


def test_fast_hook_integral_is_the_closed_hook_term():
    # the corrected Theorem 4: the fast integral of the hook (ell+1, 1^(2m-ell-1))
    # is (-1)**ell times the hook term with the closed exponent (m-f-1)(m-f)
    points = 0
    for N in range(1, 8):
        for m in range(1, 6):
            for ell in range(max(0, 2 * m - N), 2 * m):
                hook = P((ell + 1,) + (1,) * (2 * m - ell - 1))
                term = qxpoly._hook_term(q_binomial(N + ell, 2 * m), m, ell // 2, "closed")
                assert integrate_schur(hook, N) == (-term if ell % 2 else term), (ell, m, N)
                points += 1
    assert points == 118


def test_sigma_and_p2m_closed_forms():
    assert sigma_closed_form(1, 1, 1) == ZERO
    assert p2m_closed_form(1, 1) == ONE
    assert p2m_closed_form(1, 2) == Scalar.q_power(1) * q_integer(2)


def test_theorem5_rhs():
    assert theorem5_rhs(1, 1) == Scalar.q_power(1) - ONE
    assert theorem5_rhs(1, 0) == ZERO
    # t = 0 has the degenerate printed denominator 1 - q^0 and is skipped
    assert theorem5_rhs(3, 1) == printed_theorem5_rhs(3, 1)
    assert theorem5_lhs(1, 1) == q_integer(3) / (Scalar.q_power(1) * q_factorial(2))


def test_theorem5_denominator_vanishes_only_on_skipped_terms():
    # theorem5_rhs forms 1 - q^(s+2+2t-m) only when [s+2t over 2m-1]_q is nonzero
    vanishing = [
        (m, s, t)
        for m in range(1, 61)
        for s in range(61)
        for t in range(m + 1)
        if s + 2 + 2 * t == m
    ]
    assert len(vanishing) == 900  # so the check below is not vacuous
    assert all(q_binomial(s + 2 * t, 2 * m - 1).is_zero for m, s, t in vanishing)


def test_p2m_and_theorem5_match_the_printed_sums():
    # every (m, s, t) with s + 2 + 2t = m <= 8 has s <= 6, so this grid forms
    # each degenerate printed denominator the skip has to avoid
    for m in range(1, 9):
        for n in range(11):
            assert p2m_closed_form(m, n) == printed_p2m(m, n), (m, n)
            assert theorem5_rhs(m, n) == printed_theorem5_rhs(m, n), (m, n)


@pytest.mark.parametrize("closed_form", [p2m_closed_form, theorem5_rhs])
def test_p2m_and_theorem5_sum_sigma(closed_form):
    for m, n in [(1, 0), (3, 1), (5, 4), (6, 2)]:
        with mock.patch.object(moments, "sigma_closed_form", wraps=moments.sigma_closed_form) as spy:
            closed_form(m, n)
        assert spy.call_count == m + 1, (m, n)


def test_qhz():
    for m in (1, 2, 3, 4):
        assert qhz_rhs(m, 0) == hermite_squared_moment(m, 0)
    assert evaluate_at(qhz_rhs(1, 1), 1) == 3
    assert evaluate_at(qhz_rhs(2, 1), 1) == 15
    for m in (1, 2, 3):
        for s in (0, 1, 2, 3):
            assert qhz_rhs(m, s) == qhz_lhs(m, s)


def test_multivariate_hermite_orthogonality():
    # products of two Hermite-family alternants under the coordinatewise
    # functional: zero off the diagonal, the explicit norm on it
    n = 2
    kappas = [p for p in partitions(2, n)]
    for ka in kappas:
        fa = [hermite(ka.part(col) + n - 1 - col) for col in range(n)]
        da = family_alternant(fa, n)
        for kb in kappas:
            fb = [hermite(kb.part(col) + n - 1 - col) for col in range(n)]
            db = family_alternant(fb, n)
            got = apply_M0(tuple_product(da, db), gaussian_moment)
            if ka != kb:
                assert got == ZERO
            else:
                norm = Scalar(math.factorial(n))
                power = 0
                for i in range(n):
                    d = ka.part(i) + n - 1 - i
                    norm = norm * functional_L(hermite(d) * hermite(d))
                    power += d * (d - 1) // 2
                assert got == norm
                # the same norm in fully closed form
                closed = Scalar(math.factorial(n)) * Scalar.q_power(power)
                for i in range(n):
                    closed = closed * q_factorial(ka.part(i) + n - 1 - i)
                assert got == closed


def test_pairing_genus_counts():
    assert pairing_genus_counts(1) == {0: 1}
    assert pairing_genus_counts(2) == {0: 2, 1: 1}
    assert pairing_genus_counts(3) == {0: 5, 1: 10}
    for m in (1, 2, 3, 4):
        assert sum(pairing_genus_counts(m).values()) == double_factorial(2 * m - 1)


def test_pairing_genus_counts_match_the_scanned_enumeration():
    # the incremental cycle count against a scan of every completed gluing
    for m in range(1, 7):
        counts = pairing_genus_counts(m)
        assert counts == pairing_genus_counts_by_matchings(m)
        assert sum(counts.values()) == double_factorial(2 * m - 1)


def test_pairing_genus_counts_satisfy_harer_zagier_recursion():
    # (m+1) e_g(m) = (4m-2) e_g(m-1) + (m-1)(2m-1)(2m-3) e_{g-1}(m-2), e_0(0) = 1
    eps = {0: {0: 1}}
    for m in range(1, 8):
        eps[m] = pairing_genus_counts(m)
        for g in range(m // 2 + 2):
            right = (4 * m - 2) * eps[m - 1].get(g, 0)
            if m >= 2:
                right += (m - 1) * (2 * m - 1) * (2 * m - 3) * eps[m - 2].get(g - 1, 0)
            assert (m + 1) * eps[m].get(g, 0) == right
    assert eps[7] == {0: 429, 1: 12012, 2: 66066, 3: 56628}


def test_pairing_genus_counts_rejects_empty_polygon():
    for m in (0, -2):
        with pytest.raises(ValueError):
            pairing_genus_counts(m)


def test_genus_table():
    rows = genus_table(3)
    assert [r.coefficients for r in rows] == [{0: 1}, {0: 2, 1: 1}, {0: 5, 1: 10}]
    assert all(r.matches for r in rows)
    with pytest.raises(SizeError):
        genus_table(7)


def test_genus_table_rejects_non_integer_interpolant(monkeypatch):
    import qgue.moments

    # a moment of N/2 interpolates to the coefficient 1/2, not a genus count
    monkeypatch.setattr(
        qgue.moments, "level_density_moment", lambda p, N: Scalar(Fraction(N, 2))
    )
    with pytest.raises(ArithmeticError):
        genus_table(1)


def test_genus_table_walk_agrees_with_determinant_route():
    # the table reads the walk; at q = 1 the power-sum determinants give the same values
    for m in range(1, 7):
        for n in range(1, m + 2):
            walk = level_density_moment(XPoly.x_power(2 * m), n)
            assert evaluate_at(walk, 1) == evaluate_at(integrate_power_sum(m, n), 1)


def test_integrate_power_sum_routes_agree():
    for m in range(1, 3):
        for n in range(1, 4):
            fast = integrate_power_sum(m, n, "fast")
            assert fast == integrate_power_sum(m, n, "oracle")
            assert fast == integrate_symmetric(power_sum_vector(m, n))
    with pytest.raises(ValueError):
        integrate_power_sum(1, 2, "closed")
    # degenerate inputs are refused by both routes, never answered by one
    for method in ("fast", "oracle"):
        for m, n in [(0, 3), (1, 0), (1, -2)]:
            with pytest.raises(ValueError):
                integrate_power_sum(m, n, method)
        with pytest.raises(ValueError):
            integrate_schur(Partition(), 0, method)


def test_q1_power_sum_values():
    for n in range(1, 5):
        assert evaluate_at(integrate_symmetric(power_sum_vector(1, n)), 1) == n * n
        assert (
            evaluate_at(integrate_symmetric(power_sum_vector(2, n)), 1)
            == 2 * n**3 + n
        )


def test_q1_classical_harer_zagier():
    for m in range(5):
        for s in range(5):
            got = evaluate_at(hermite_squared_moment(m, s), 1) / math.factorial(s)
            expected = double_factorial(2 * m - 1) * sum(
                math.comb(m, k) * math.comb(s, k) * 2**k for k in range(min(m, s) + 1)
            )
            assert got == expected
