"""Operators on x-polynomials and the Hermite / shadow families."""

import inspect
import random
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgue import (
    ONE,
    ZERO,
    QPolynomial,
    Scalar,
    XPoly,
    functional_L,
    gaussian_op,
    hermite,
    hermite_expand,
    m_q,
    q_binomial,
    q_derivative,
    q_factorial,
    q_integer,
    shadow_hermite,
    truncated_in_shadow_basis,
    truncated_shadow,
)

from qgue import qxpoly
from oracles import operator_series, telescoped_even_moments

x = XPoly.x_power


def test_q_derivative():
    assert q_derivative(x(3)) == x(2).scale(q_integer(3))
    assert q_derivative(XPoly.one()) == XPoly.zero()
    assert q_derivative(x(2) + x(1)) == x(1).scale(q_integer(2)) + XPoly.one()


def test_gaussian_op_examples():
    assert gaussian_op(x(2), "forward") == x(2) - XPoly.one()
    assert gaussian_op(x(2), "inverse") == x(2) + XPoly.one()
    with pytest.raises(ValueError):
        gaussian_op(x(2), "backward")


def test_gaussian_op_reads_the_families():
    # the forward image is built from hermite and the inverse one from shadow_hermite
    want = {d: operator_series(x(3), d) for d in ("forward", "inverse")}
    for direction, family, other in (
        ("forward", "hermite", "inverse"),
        ("inverse", "shadow_hermite", "forward"),
    ):
        with mock.patch.object(qxpoly, family, side_effect=AssertionError(family)):
            with pytest.raises(AssertionError, match=family):
                gaussian_op(x(3), direction)
            assert gaussian_op(x(3), other) == want[other]


def test_gaussian_op_round_trip():
    for n in range(21):
        fwd = gaussian_op(x(n), "forward")
        assert gaussian_op(fwd, "inverse") == x(n)
    rng = random.Random(7)
    p = XPoly([Scalar(rng.randint(-4, 4)) for _ in range(21)])
    assert gaussian_op(gaussian_op(p, "inverse"), "forward") == p


def test_hermite_small_cases():
    assert hermite(0) == XPoly.one()
    assert hermite(1) == x(1)
    assert hermite(2) == x(2) - XPoly.one()
    assert hermite(3) == x(3) - x(1).scale(q_integer(3))


def hermite_closed(n):
    # the coefficient formula, independent of the recurrence
    coeffs = [ZERO] * (n + 1)
    for k in range(n // 2 + 1):
        c = (
            Scalar.q_power(k * (k - 1))
            * q_binomial(n, 2 * k)
            * m_q(2 * k - 1)
        )
        coeffs[n - 2 * k] = -c if k % 2 else c
    return XPoly(coeffs)


def test_hermite_closed_form_matches_recurrence():
    for n in range(26):
        assert hermite(n) == hermite_closed(n)


def test_hermite_cold_cache_under_concurrent_calls():
    hermite.cache_clear()
    barrier = threading.Barrier(8)
    results = []

    def worker():
        barrier.wait(timeout=60)
        results.append(hermite(12))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so an unguarded cache would interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    expected = hermite_closed(12)
    assert len(results) == 8 and all(r == expected for r in results)


def test_hermite_cold_build_keeps_the_stack_shallow():
    # 25 frames of headroom: a build that recursed once per degree would overflow
    hermite.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 25)
    try:
        h = hermite(30)
    finally:
        sys.setrecursionlimit(limit)
    assert h == hermite_closed(30)


def test_cold_moment_keeps_the_stack_shallow():
    # L(x^60) = M_q(59) has 30 factors; a cold m_q that recursed once per
    # factor would overflow 25 frames of headroom
    m_q.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 25)
    try:
        got = functional_L(x(60))
    finally:
        sys.setrecursionlimit(limit)
    assert got == telescoped_even_moments(30)[30]


def test_derivative_lowers_hermite_and_shadow():
    for n in range(1, 13):
        assert q_derivative(hermite(n)) == hermite(n - 1).scale(q_integer(n))
        assert q_derivative(shadow_hermite(n)) == shadow_hermite(n - 1).scale(q_integer(n))


def test_shadow_examples():
    assert shadow_hermite(0) == XPoly.one()
    assert shadow_hermite(2) == x(2) + XPoly.one()
    expected = (
        x(4)
        + x(2).scale((ONE + Scalar.q_power(2)) * q_integer(3))
        + XPoly.constant(q_integer(3))
    )
    assert shadow_hermite(4) == expected


def test_shadow_is_monic_of_its_degree():
    # the fast Schur integral reads only a leading minor of shadow coefficients,
    # which is exact because every S_n is monic of degree n
    for n in range(41):
        s = shadow_hermite(n)
        assert s.degree == n and s.is_monic


def test_shadow_is_inverse_operator_image():
    for n in range(13):
        assert shadow_hermite(n) == operator_series(x(n), "inverse")


def test_truncated_shadow_examples():
    assert truncated_shadow(1, 1) == x(2)
    assert truncated_shadow(2, 2) == x(4) + x(2).scale(q_binomial(4, 2))
    # the summation cap floor(ell/2) admits only k = 0 here
    assert truncated_shadow(3, 1) == x(4)
    with pytest.raises(ValueError):
        truncated_shadow(0, 1)


def test_truncated_shadow_divisibility():
    for N in range(1, 9):
        for ell in range(1, 7):
            t = truncated_shadow(N, ell)
            assert all(t.coefficient(j).is_zero for j in range(N))
            assert (shadow_hermite(N + ell) - t).degree <= N - 1


def test_shadow_basis_expansion_examples():
    assert truncated_in_shadow_basis(1, 1) == {2: ONE, 0: -ONE}
    assert truncated_in_shadow_basis(2, 1) == {3: ONE, 1: -q_integer(3)}
    assert truncated_in_shadow_basis(2, 2) == {4: ONE, 0: -q_integer(3)}


def test_shadow_basis_closed_matches_direct():
    for N in range(1, 10):
        for ell in range(1, 10):
            if N + ell <= 10:
                assert truncated_in_shadow_basis(N, ell, "closed") == truncated_in_shadow_basis(
                    N, ell, "direct"
                )


def test_shadow_basis_printed_variant_defect():
    # the printed q-power (s-1)(s-2) misses the true (s-1)s by q^(2(s-1))
    direct = truncated_in_shadow_basis(3, 1, "direct")
    printed = truncated_in_shadow_basis(3, 1, "printed")
    assert printed.keys() == direct.keys()
    assert (printed[0] / direct[0]).as_signed_q_power() == (1, -2)


def test_functional_L():
    assert functional_L(XPoly.one()) == ONE
    assert functional_L(x(4)) == q_integer(3)
    assert functional_L(hermite(2) * hermite(2)) == Scalar.q_power(1) * q_factorial(2)
    # functional_L reads m_q, so the reference is the whole operator series
    for n in range(32):
        expected = operator_series(x(n), "inverse").coefficient(0)
        assert functional_L(x(n)) == expected
        assert expected == (m_q(n - 1) if n % 2 == 0 else ZERO)


small = st.integers(-4, 4)
scalar = st.one_of(
    small.map(Scalar),
    st.builds(Fraction, small, st.integers(1, 5)).map(Scalar),
    st.builds(
        lambda n, d: Scalar(QPolynomial(n), QPolynomial(d)),
        st.lists(small, min_size=1, max_size=4),
        st.lists(small, min_size=1, max_size=3).filter(any),
    ),
)
xpoly = st.lists(scalar, max_size=17).map(XPoly)
odd_xpoly = st.lists(scalar, max_size=8).map(
    lambda cs: XPoly([c for odd in cs for c in (ZERO, odd)])
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(xpoly, odd_xpoly))
@example(XPoly.zero())
def test_functional_L_is_constant_term_of_inverse_op(p):
    # L reads only the x^0 term of the inverse operator; the reference
    # builds the whole image
    assert functional_L(p) == operator_series(p, "inverse").coefficient(0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(xpoly, odd_xpoly))
@example(XPoly.zero())
@example(  # degree 23, past the strategies' reach
    XPoly([Scalar(Fraction((-1) ** n * (n + 1), n % 5 + 1)) / q_integer(n % 3 + 1)
           for n in range(24)])
)
def test_gaussian_op_matches_operator_series(p):
    for direction in ("forward", "inverse"):
        assert gaussian_op(p, direction) == operator_series(p, direction)


def test_hermite_orthogonality():
    for n in range(7):
        for m in range(7):
            expected = (
                Scalar.q_power(n * (n - 1) // 2) * q_factorial(n) if n == m else ZERO
            )
            assert functional_L(hermite(n) * hermite(m)) == expected


def test_hermite_expand():
    assert hermite_expand(x(2)) == {2: ONE, 0: ONE}
    assert hermite_expand(hermite(5)) == {5: ONE}
    assert hermite_expand(x(3)) == {3: ONE, 1: q_integer(3)}


def test_coefficient_extraction():
    # L(p H_k) is q^(k(k-1)/2) [k]! times the k-th expansion coefficient
    rng = random.Random(11)
    for _ in range(5):
        p = XPoly([Scalar(rng.randint(-3, 3)) for _ in range(9)])
        coeffs = hermite_expand(p)
        for k in range(9):
            lhs = functional_L(p * hermite(k))
            rhs = Scalar.q_power(k * (k - 1) // 2) * q_factorial(k) * coeffs.get(k, ZERO)
            assert lhs == rhs


def test_xpoly_rendering():
    p = x(2).scale(q_integer(2)) - XPoly.one()
    assert str(p) == "(1+q)*x^2 - 1"
    assert str(hermite(2)) == "x^2 - 1"
    assert str(XPoly.zero()) == "0"
