"""Acceptance suite: every exit criterion, exact equality throughout.

Each test prints one PASS/FAIL line (visible with pytest -s; the test names
carry the same numbering under pytest -v).  All comparisons are exact field
equality in Q(q); there are no numeric tolerances anywhere.
"""

import math

from qgue import (
    ONE,
    ZERO,
    Scalar,
    XPoly,
    evaluate_at,
    functional_L,
    genus_table,
    hermite,
    hermite_squared_moment,
    integrate_symmetric,
    level_density_moment,
    m_q,
    power_sum_vector,
    q_binomial,
    q_derivative,
    q_factorial,
    q_integer,
    qhz_rhs,
    shadow_hermite,
    truncated_in_shadow_basis,
    truncated_shadow,
    verify_suite,
)
from oracles import double_factorial


def _report(number: int, name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {number} ({name})")
    assert ok, f"criterion {number} ({name})"


def test_criterion_01_series_duality_to_degree_30():
    results = verify_suite(["duality"], max_n=30)
    ok = all(p.is_equal for p in results[0].points) and len(results[0].points) == 62
    _report(1, "e(x) E(-x) = 1 through degree 30, both bases", ok)


def test_criterion_02_univariate_orthogonality():
    ok = True
    for n in range(11):
        for m in range(11):
            expected = (
                Scalar.q_power(n * (n - 1) // 2) * q_factorial(n) if n == m else ZERO
            )
            ok = ok and functional_L(hermite(n) * hermite(m)) == expected
    _report(2, "L(H_n H_m) = q^C(n,2) [n]! delta for n, m <= 10", ok)


def test_criterion_03_hermite_dual_construction():
    ok = True
    for n in range(16):
        coeffs = [ZERO] * (n + 1)
        for k in range(n // 2 + 1):
            c = Scalar.q_power(k * (k - 1)) * q_binomial(n, 2 * k) * m_q(2 * k - 1)
            coeffs[n - 2 * k] = -c if k % 2 else c
        ok = ok and hermite(n) == XPoly(coeffs)  # recurrence path == formula path
    for n in range(1, 13):
        ok = ok and q_derivative(hermite(n)) == hermite(n - 1).scale(q_integer(n))
        ok = ok and q_derivative(shadow_hermite(n)) == shadow_hermite(n - 1).scale(
            q_integer(n)
        )
    _report(3, "Hermite formula == recurrence (n <= 15); D_q ladders (n <= 12)", ok)


def test_criterion_04_truncated_shadow_polynomials():
    ok = True
    for N in range(1, 9):
        for ell in range(1, 7):
            t = truncated_shadow(N, ell)
            ok = ok and all(t.coefficient(j).is_zero for j in range(N))
            ok = ok and (shadow_hermite(N + ell) - t).degree <= N - 1
    for N in range(1, 10):
        for ell in range(1, 10):
            if N + ell <= 10:
                ok = ok and truncated_in_shadow_basis(
                    N, ell, "closed"
                ) == truncated_in_shadow_basis(N, ell, "direct")
    _report(4, "x^N | T and deg(S - T) <= N-1; S-basis expansion matches", ok)


def test_criterion_05_schur_integral_oracle_equivalence():
    # default grid: every partition of weight <= 6 at N <= 3 plus weight <= 4
    # at N = 4, fast determinantal path against the monomial oracle
    results = verify_suite(["theorem3"])
    suite = results[0]
    counts = {n: 0 for n in (1, 2, 3, 4)}
    for p in suite.points:
        counts[dict(p.params)["N"]] += 1
    ok = all(p.is_equal for p in suite.points)
    ok = ok and counts[3] > 0 and counts[4] > 0
    _report(5, "fast Schur integrals equal the definitional oracle", ok)


def test_criterion_06_level_density_equivalence():
    ok = True
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            lhs = level_density_moment(XPoly.x_power(2 * m), n)
            rhs = integrate_symmetric(power_sum_vector(m, n))
            ok = ok and lhs == rhs
    ok = ok and integrate_symmetric(power_sum_vector(1, 2)) == ONE + q_integer(3)
    ok = ok and integrate_symmetric(power_sum_vector(2, 2)) == q_integer(3) * (
        ONE + q_integer(5)
    )
    _report(6, "level-density sum equals the Schur-route power-sum integral", ok)


def test_criterion_07_multivariate_orthogonality():
    from qgue import apply_M0, gaussian_moment, partitions
    from oracles import family_alternant, tuple_product

    n = 2
    ok = True
    kappas = list(partitions(2, n))
    for ka in kappas:
        da = family_alternant([hermite(ka.part(c) + n - 1 - c) for c in range(n)], n)
        for kb in kappas:
            db = family_alternant([hermite(kb.part(c) + n - 1 - c) for c in range(n)], n)
            got = apply_M0(tuple_product(da, db), gaussian_moment)
            if ka != kb:
                ok = ok and got == ZERO
            else:
                norm = Scalar(math.factorial(n))
                power = 0
                for i in range(n):
                    d = ka.part(i) + n - 1 - i
                    power += d * (d - 1) // 2
                    norm = norm * q_factorial(d)
                ok = ok and got == Scalar.q_power(power) * norm
    _report(7, "multivariate Hermite norms N! q^sum [d]! at N = 2", ok)


def test_criterion_08_genus_tables():
    rows = genus_table(5)
    ok = [r.coefficients for r in rows[:3]] == [{0: 1}, {0: 2, 1: 1}, {0: 5, 1: 10}]
    for r in rows:
        ok = ok and r.matches
        ok = ok and sum(r.coefficients.values()) == double_factorial(2 * r.m - 1)
    _report(8, "genus tables match the pairing-enumeration oracle for m <= 5", ok)


def test_criterion_09_classical_map_count_limit():
    ok = True
    for m in range(7):
        for s in range(7):
            classical = double_factorial(2 * m - 1) * sum(
                math.comb(m, k) * math.comb(s, k) * 2**k
                for k in range(min(m, s) + 1)
            )
            got = evaluate_at(hermite_squared_moment(m, s), 1) / math.factorial(s)
            ok = ok and got == classical
            if m >= 1:
                ok = ok and evaluate_at(qhz_rhs(m, s), 1) == classical
    _report(9, "q = 1 limit reproduces the classical one-face map counts", ok)


def test_criterion_10_errata_harness():
    t4 = verify_suite(["theorem4"], max_weight=8, max_vars=4)[0]
    sg = verify_suite(["sigma"], max_weight=6, max_vars=3)[0]
    t5 = verify_suite(["theorem5"], max_weight=6, max_n=3)[0]
    hz = verify_suite(["qhz"], max_weight=6, max_n=3)[0]

    ok = all(p.status in ("equal", "discrepant") for s in (t4, sg, t5, hz) for p in s.points)

    # every theorem4 discrepancy must be a pure sign/exponent defect
    ok = ok and t4.discrepancies and all(p.is_monomial for p in t4.discrepancies)
    pt = t4.find(m=1, N=1, ell=1)
    ok = ok and pt is not None and pt.status == "discrepant"
    ok = ok and (pt.sign, pt.qpower) == (-1, 0)

    # the desk-checkable power-sum discrepancy, with its exact symbolic ratio
    pt = sg.find(target="p2m", m=1, N=2)
    ok = ok and pt is not None and pt.status == "discrepant"
    expected_ratio = (Scalar.q_power(1) * q_integer(2)) / (ONE + q_integer(3))
    ok = ok and pt.ratio == expected_ratio

    # the map-counting identity holds symbolically on the whole grid
    ok = ok and all(p.is_equal for p in hz.points)

    # both candidate normalizations are adjudicated on every telescoped point
    ok = ok and all(p.note and "normalization" in p.note for p in t5.points)
    _report(10, "errata harness classifies and localizes the printed defects", ok)
