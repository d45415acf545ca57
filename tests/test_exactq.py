"""Field arithmetic, q-combinatorics, and canonical-form contracts."""

import inspect
import math
import operator
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgue import (
    ONE,
    ZERO,
    PoleError,
    QPolynomial,
    Scalar,
    XPoly,
    evaluate_at,
    m_q,
    q_binomial,
    q_factorial,
    q_integer,
    series_coefficient,
)
from qgue import exactq
from qgue.exactq import (
    _PACK_MIN_LEN,
    _bits,
    _inflate,
    _int_divides,
    _int_divmod,
    _mul_int,
    _pack,
    _poly_gcd,
    _primitive,
    _slot_bytes,
    _slots,
    _subresultant_gcd,
    _times_q_ratio,
    _unpack,
    _value,
)
from qgue.verify import verify_suite

from oracles import euclid_gcd, q_integer_product


def test_q_integer_examples():
    assert str(q_integer(3)) == "1+q+q^2"
    assert q_integer(0) == ZERO
    assert str(q_integer(3, squared=True)) == "1+q^2+q^4"


def test_q_factorial_examples():
    assert q_factorial(0) == ONE
    assert str(q_factorial(3)) == "1+2q+2q^2+q^3"
    assert str(q_factorial(2, squared=True)) == "1+q^2"


def test_q_binomial_examples():
    assert str(q_binomial(4, 2)) == "1+q+2q^2+q^3+q^4"
    assert all(q_binomial(n, 0) == ONE for n in range(8))
    assert q_binomial(0, 1, squared=True) == ZERO
    assert q_binomial(5, -1) == ZERO
    assert q_binomial(3, 4) == ZERO


def test_q_binomial_always_polynomial():
    for n in range(12):
        for k in range(n + 1):
            assert q_binomial(n, k).is_polynomial


def test_q_binomial_is_the_factorial_quotient():
    # the definition the row recurrence replaces, in both bases and one step
    # past each end of every row
    for squared in (False, True):
        for n in range(45):
            for k in range(-1, n + 2):
                want = ZERO
                if 0 <= k <= n:
                    den = q_factorial(k, squared).num * q_factorial(n - k, squared).num
                    want = Scalar(q_factorial(n, squared).num, den)
                assert q_binomial(n, k, squared) == want, (n, k, squared)


def test_q_ratio_step_refuses_an_inexact_division():
    # (1 - q^7) [7]_q over 1 - q^2 is inexact: the dividend is 2 at q = -1,
    # where 1 - q^2 vanishes.  It is the step to [7 over 2] with the shift n
    # in place of n - k + 1.  The step must raise rather than return the
    # truncated running sums.
    got = []
    with pytest.raises(ArithmeticError, match="does not divide"):
        got.append(_times_q_ratio([1] * 7, 7, 2))
    assert not got
    # [7 over 2]_q counts the partitions in a 2 x 5 box by size
    assert exactq._gaussian_row(7)[2] == (1, 1, 2, 2, 3, 3, 3, 2, 2, 1, 1)


def test_q_factorial_and_m_q_are_their_q_integer_products():
    # the definitions the q-ratio step replaces, built cold, n <= 44; the
    # factorials in both bases
    q_factorial.cache_clear()
    m_q.cache_clear()
    for squared in (False, True):
        for n in range(45):
            want = q_integer_product(range(1, n + 1), squared)
            assert q_factorial(n, squared) == Scalar(want), (n, squared)
    for n in range(-1, 45):
        assert m_q(n) == Scalar(q_integer_product(range(n, 0, -2))), n


def test_cold_q_products_make_no_polynomial_product():
    # [n]! and M_q(n) are built by the q-ratio step alone: no Z[q] product
    q_factorial.cache_clear()
    m_q.cache_clear()
    with mock.patch.object(exactq, "_mul_int", side_effect=_mul_int) as mul:
        assert q_factorial(40, True).num.degree == 2 * sum(range(40))
        assert m_q(79).num.degree == sum(range(78, 0, -2))
    assert mul.call_count == 0


def test_cold_q_factorial_keeps_the_stack_shallow():
    # 60 factors: a cold q_factorial that recursed once per factor would
    # overflow 25 frames of headroom, and so would the calls built on it
    got = []
    calls = ((q_factorial, (60,)), (q_binomial, (60, 30)), (series_coefficient, (60, "e")))
    for func, args in calls:
        q_factorial.cache_clear()
        exactq._gaussian_row.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 25)
        try:
            got.append(func(*args))
        finally:
            sys.setrecursionlimit(limit)
    factorial, binomial, e_60 = got
    assert factorial == Scalar(q_integer_product(range(1, 61)))
    assert binomial.is_polynomial and evaluate_at(binomial, 1) == math.comb(60, 30)
    assert e_60 * factorial == ONE


def test_m_q_examples():
    assert m_q(-1) == ONE
    assert m_q(0) == ONE
    assert m_q(3) == q_integer(3)
    assert m_q(5) == q_integer(5) * q_integer(3)


def test_series_coefficient_examples():
    assert str(series_coefficient(2, "e", squared=True)) == "1/(1+q^2)"
    assert series_coefficient(0, "E") == ONE
    assert str(series_coefficient(2, "E", squared=True)) == "q^2/(1+q^2)"
    assert series_coefficient(3, "E") == Scalar.q_power(3) / q_factorial(3)
    with pytest.raises(ValueError):
        series_coefficient(1, "f")


def test_evaluate_at():
    assert evaluate_at(q_integer(3), 1) == 3
    ratio = Scalar(QPolynomial([1, 0, 0, 0, -1]), QPolynomial([1, 0, -1]))
    assert evaluate_at(ratio, 1) == 2
    with pytest.raises(PoleError):
        evaluate_at(Scalar(ONE.num, QPolynomial([1, -1])), 1)
    assert evaluate_at(q_binomial(4, 2), Fraction(1, 2)) == Fraction(35, 16)
    # a common factor 2q - 1 cancels on construction, so q = 1/2 is no pole
    p, s, root = QPolynomial([1, 0, 3]), QPolynomial([5, -1]), QPolynomial([-1, 2])
    half = Fraction(1, 2)
    assert evaluate_at(Scalar(p * root, s * root), half) == p(half) / s(half)


def _random_poly(rng):
    return QPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])


def _random_scalar(rng):
    den = _random_poly(rng)
    while den.is_zero:
        den = _random_poly(rng)
    return Scalar(_random_poly(rng), den)


def test_field_axioms_on_random_scalars():
    rng = random.Random(20240901)
    for _ in range(60):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        # int and Fraction operands on either side
        k = rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(2, 4))))
        assert a * k == k * a == a * Scalar(k) and a + k == k + a == a + Scalar(k)
        assert a - k == a - Scalar(k) and k - a == Scalar(k) - a
        if k:
            assert a / k == a / Scalar(k)
        if not a.is_zero:
            assert a * a.inverse() == ONE
            assert (a ** -2) * (a ** 2) == ONE
            assert k / a == Scalar(k) / a
        # a product of polynomials stays a polynomial with int coefficients
        u, v = _random_poly(rng), _random_poly(rng)
        prod = Scalar(u) * Scalar(v)
        assert prod.den.coeffs == (1,) and prod.num == u * v
        assert all(type(c) is int for c in prod.num.coeffs)


def test_mixed_arithmetic_takes_what_equality_takes():
    half = Fraction(1, 2)
    assert 1 - ONE == 0 and ONE / 2 == half and 2 / ONE == 2
    assert ONE + half == Fraction(3, 2) and ONE * half == half
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right in ((ONE, 1.5), (1.5, ONE), (ONE, "x"), ("x", ONE)):
            with pytest.raises(TypeError):
                op(left, right)


def test_reduced_canonical_form():
    s = Scalar(QPolynomial([0, 2, 2]), QPolynomial([0, 0, 4]))  # (2q+2q^2)/(4q^2)
    assert str(s) == "(1/2+(1/2)q)/q"
    assert s == Scalar(QPolynomial([1, 1]), QPolynomial([0, 2]))
    assert (s.num.coeffs, s.den.coeffs) == ((1, 1), (0, 2))


def test_numbers_enter_through_fraction():
    for bad in ([1.5], [Fraction(1, 2)], [Fraction(2)], ["1"]):
        with pytest.raises(TypeError):
            QPolynomial(bad)
    assert Scalar(1.5) == Fraction(3, 2) and Scalar(QPolynomial([1]), 0.25) == 4
    with pytest.raises(ValueError):
        Scalar("x")


POINTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-3, 2))
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _build(tree):
    """(Scalar, {x: value at x by Fraction arithmetic, None where a step divides by zero})."""
    if len(tree) == 2:
        cs, d = tree
        p = QPolynomial(cs)
        return Scalar(p, d), {x: Fraction(p(x), d) for x in POINTS}
    op, left, right = tree
    (a, va), (b, vb) = _build(left), _build(right)
    if op == "/" and b.is_zero:
        return a, va
    values = {}
    for x in POINTS:
        try:
            values[x] = _OPS[op](va[x], vb[x])
        except (TypeError, ZeroDivisionError):  # None from a pole below, or a new pole
            values[x] = None
    return _OPS[op](a, b), values


leaf = st.tuples(st.lists(st.integers(-6, 6), max_size=4), st.integers(-5, 5).filter(bool))
expression = st.recursive(
    leaf, lambda kids: st.tuples(st.sampled_from("+-*/"), kids, kids), max_leaves=6
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(expression)
def test_scalars_are_canonical_integer_pairs(tree):
    # num and den are coprime over Q, share no integer content, and lc(den) > 0;
    # the value agrees with Fraction arithmetic wherever that has no pole
    s, values = _build(tree)
    num, den = list(s.num.coeffs), list(s.den.coeffs)
    assert euclid_gcd(num, den) == [1]
    assert math.gcd(*num, *den) == 1 and den[-1] > 0
    for x, v in values.items():
        if v is not None:
            assert evaluate_at(s, x) == v


def test_squared_base_splits_even_q_integers():
    for k in range(1, 21):
        assert q_integer(k, squared=True) * q_integer(2) == q_integer(2 * k)


@pytest.mark.parametrize("squared", [False, True])
def test_q_pascal_recurrences_and_symmetry(squared):
    step = 2 if squared else 1
    for n in range(1, 17):
        for k in range(n + 1):
            b = q_binomial(n, k, squared)
            assert b == q_binomial(n - 1, k - 1, squared) + Scalar.q_power(
                step * k
            ) * q_binomial(n - 1, k, squared)
            assert b == Scalar.q_power(step * (n - k)) * q_binomial(
                n - 1, k - 1, squared
            ) + q_binomial(n - 1, k, squared)
            assert b == q_binomial(n, n - k, squared)


def test_finite_alternating_binomial_sum():
    # prefix sums of the alternating squared-base binomial expansion collapse
    # to a single binomial with q-power s(s+1); the widely printed s(s-1)
    # variant fails already at n = 2, s = 1
    for n in range(1, 11):
        for s in range(n + 1):
            lhs = ZERO
            for r in range(s + 1):
                t = Scalar.q_power(r * (r - 1)) * q_binomial(n, r, squared=True)
                lhs = lhs + (-t if r % 2 else t)
            rhs = Scalar.q_power(s * (s + 1)) * q_binomial(n - 1, s, squared=True)
            assert lhs == (-rhs if s % 2 else rhs)
    bad = Scalar.q_power(0) * q_binomial(1, 1, squared=True)
    assert ONE - q_integer(2, squared=True) == -Scalar.q_power(2)
    assert ONE - q_integer(2, squared=True) != -bad


@pytest.mark.parametrize("squared", [False, True])
def test_truncated_duality_small_degrees(squared):
    # direct Scalar summation of the product coefficients of e(x) E(-x)
    for d in range(13):
        total = ZERO
        for j in range(d + 1):
            t = series_coefficient(j, "e", squared) * series_coefficient(
                d - j, "E", squared
            )
            total = total + (-t if (d - j) % 2 else t)
        assert total == (ONE if d == 0 else ZERO)


def test_signed_q_power_detection():
    assert Scalar.q_power(3).as_signed_q_power() == (1, 3)
    assert (-Scalar.q_power(-2)).as_signed_q_power() == (-1, -2)
    assert ONE.as_signed_q_power() == (1, 0)
    assert q_integer(3).as_signed_q_power() is None
    assert (Scalar(2) * Scalar.q_power(1)).as_signed_q_power() is None


def test_string_rendering_contract():
    assert str(ZERO) == "0"
    assert str(ONE + q_integer(3)) == "2+q+q^2"
    assert str(ONE / (ONE - Scalar.q_power(1))) == "-1/(-1+q)"
    assert str(Scalar.q_power(2) / (ONE + Scalar.q_power(1))) == "q^2/(1+q)"
    assert str(Scalar(Fraction(-3, 2))) == "-3/2"
    assert str(Scalar(QPolynomial([3, 0, -18, -4, 6]), 6)) == "1/2-3q^2-(2/3)q^3+q^4"


def test_latex_rendering():
    assert q_integer(3).latex() == "[3]_q"
    assert (q_factorial(3) * Scalar.q_power(2)).latex() == "q^{2}[3]_q[2]_q"
    assert series_coefficient(2, "e", squared=True).latex() == r"\frac{1}{1+q^{2}}"
    assert (ONE + q_integer(3)).latex() == "2+q+q^{2}"
    assert (
        Scalar(QPolynomial([3, 0, -18, -4, 6]), 6).latex()
        == r"\tfrac{1}{2}-3q^{2}-\tfrac{2}{3}q^{3}+q^{4}"
    )
    # a folded side prints its number, then its power of q, then its q-integers
    three = q_integer(3)
    assert ZERO.latex() == "0"
    assert (-three).latex() == "-[3]_q"
    assert (three * 3).latex() == "3[3]_q" and (three * -3).latex() == "-3[3]_q"
    assert (three / 2).latex() == r"\tfrac{1}{2}[3]_q"
    assert (three / -2).latex() == r"-\tfrac{1}{2}[3]_q"
    assert (three * three * Scalar.q_power(1)).latex() == "q[3]_q^{2}"
    assert (three / (q_integer(2) * 2)).latex() == r"\frac{\tfrac{1}{2}[3]_q}{[2]_q}"


def test_latex_folding_tests_q_equals_2_first():
    # 1 + 2q + ... + 30q^29 is no product of q-integers; the image at q = 2
    # rules out every trial division by [n]_q but one
    p = QPolynomial(range(1, 31))
    with mock.patch.object(exactq, "_int_divides", side_effect=_int_divides) as divides:
        got = Scalar(p).latex()
    assert divides.call_count <= 1
    assert got == "1+2q+" + "+".join("%dq^{%d}" % (k + 1, k) for k in range(2, 30))


def test_hash_and_equality():
    a = q_integer(4) / q_integer(2)
    b = Scalar(QPolynomial([1, 0, 1]))
    assert a == b and hash(a) == hash(b)
    assert q_integer(2) != q_integer(3)
    assert ONE == 1 and ZERO == 0 and q_integer(2) != 2


def test_shifted_refuses_to_drop_nonzero_coefficients():
    p = QPolynomial([0, 0, 3, 1])
    assert p.shifted(-2) == QPolynomial([3, 1])
    with pytest.raises(ValueError):
        p.shifted(-3)


def test_subresultant_gcd_rejects_non_integer_lists():
    with pytest.raises(ArithmeticError):
        _subresultant_gcd([0, Fraction(1, 2)], [1, 2])


int_poly = st.lists(st.integers(-20, 20), min_size=1, max_size=6).filter(lambda c: c[-1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(("planted", "coprime", "constant", "in q^k")),
    int_poly,
    int_poly,
    int_poly,
    st.integers(2, 5),
)
def test_subresultant_gcd_matches_euclid_over_q(kind, g, u, v, k):
    if kind == "coprime":
        # any common factor of u and q u v + 1 divides 1
        g, v = [1], [1] + _mul_int(u, v)
    elif kind == "constant":
        g, u = [1], u[:1]
    elif kind == "in q^k":
        g, u, v = _inflate(g, k), _inflate(u, k), _inflate(v, k)
    g = _primitive(g)
    a = _primitive(_mul_int(g, u))
    b = _primitive(_mul_int(g, v))
    got = _subresultant_gcd(a, b)
    assert got == euclid_gcd(a, b)
    assert _int_divides(g, got) is not None
    if kind in ("coprime", "constant"):
        assert got == [1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(("planted", "unit leading", "any")),
    int_poly,
    st.lists(st.integers(-20, 20), max_size=6),
    int_poly,
)
def test_int_divmod_is_division_with_remainder(kind, g, u, r):
    # planted: a = u g + r with deg r < deg g, so the quotient u is integral;
    # otherwise a is any list, trailing zeros included
    r = r[: len(g) - 1]
    if kind == "unit leading":
        g = g[:-1] + [1 if g[-1] > 0 else -1]
    if kind == "planted":
        a = list((QPolynomial(u) * QPolynomial(g) + QPolynomial(r)).coeffs)
    else:
        a = u + r
    got = _int_divmod(g, a)
    if kind == "planted" or abs(g[-1]) == 1:
        assert got is not None
    if got is not None:
        quot, rem = got
        assert len(rem) == len(g) - 1
        assert QPolynomial(quot) * QPolynomial(g) + QPolynomial(rem) == QPolynomial(a)
        if kind == "planted":
            assert (QPolynomial(quot), QPolynomial(rem)) == (QPolynomial(u), QPolynomial(r))


rat = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
rat_poly = st.lists(rat, min_size=1, max_size=5).filter(lambda c: c[-1] != 0)


def _over_z(cs):
    """(integer list, positive common denominator) of a rational coefficient list."""
    den = math.lcm(*(c.denominator for c in cs))
    return [int(c * den) for c in cs], den


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    rat_poly,
    st.one_of(
        rat_poly.filter(lambda c: len(c) > 1 and abs(c[-1]) != 1),
        st.sampled_from([[1], [-1], [3], [-3]]),
        rat.filter(bool).map(lambda c: [c]),
    ),
    st.data(),
)
def test_exact_div_on_rational_coefficients(a, b, data):
    # in Z[q] the quotient comes back exactly when it has integer coefficients,
    # whatever the divisor's content and leading coefficient; the same path
    # serves constant divisors, zero and lower-degree dividends
    (ia, da), (ib, db) = _over_z(a), _over_z(b)
    A, B = QPolynomial(ia), QPolynomial(ib)
    assert (A * B).exact_div(B) == A
    for k in (2, 3):
        # A / k lies in Z[q] exactly when k divides every coefficient of A
        want = QPolynomial(c // k for c in ia) if all(c % k == 0 for c in ia) else None
        assert (A * B).exact_div(B.scale(k)) == want
    assert QPolynomial.zero().exact_div(B) == QPolynomial.zero()
    with pytest.raises(ZeroDivisionError):
        A.exact_div(QPolynomial.zero())
    if B.degree > 0:
        r = data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=B.degree).filter(any))
        assert (A * B + QPolynomial(r)).exact_div(B) is None
        assert QPolynomial(r).exact_div(B) is None
    # over Q(q), with the rational a and b themselves
    sa, sb = Scalar(A, da), Scalar(B, db)
    assert (sa * sb) / sb == sa


def _plain(kernel, *args):
    """The kernel's schoolbook loop on the full lists: no q-power stripping, no
    packing."""
    with mock.patch.object(exactq, "_low", lambda cs: 0), mock.patch.object(
        exactq, "_PACK_MIN_LEN", math.inf
    ):
        return kernel(*args)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5), int_poly, int_poly, int_poly, int_poly, st.data())
def test_kernels_on_polynomials_in_q_k_match_plain_loops(k, g, u, v, r, data):
    # polynomials in q^k, some multiplied by a power of q^k; size-1 lists
    # give the constant and monomial operands
    def in_qk(cs):
        return _inflate([0] * data.draw(st.integers(0, 2)) + cs, k)

    g, u, v = in_qk(g), in_qk(u), in_qk(v)
    assert _mul_int(g, u) == _plain(_mul_int, g, u)
    a = _mul_int(g, u)
    assert _int_divides(g, a) == _plain(_int_divides, g, a) == u
    # a nonzero remainder of lower degree than g makes the division inexact
    r = _inflate(r[: (len(g) - 1) // k], k)
    if any(r):
        a_r = a[:]
        for i, c in enumerate(r):
            a_r[i] += c
        assert _int_divides(g, a_r) is None and _plain(_int_divides, g, a_r) is None
    assert _int_divides(u, v) == _plain(_int_divides, u, v)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(int_poly, st.integers(1, 9), st.integers(1, 9))
def test_q_ratio_step_multiplies_by_a_q_integer_ratio(u, a, b):
    # u [b]_q (1 - q^a)/(1 - q^b) is u [a]_q, whatever the order of a and b
    cs, want = _mul_int(u, [1] * b), _mul_int(u, [1] * a)
    assert _times_q_ratio(cs, a, b) == _times_q_ratio(tuple(cs), a, b) == want


long_int_poly = st.lists(st.integers(-20, 20), min_size=1, max_size=20).filter(lambda c: c[-1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 3),
    long_int_poly,
    long_int_poly,
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(-9, 9).filter(bool),
    st.integers(0, 5),
    st.data(),
)
def test_stripped_kernels_match_plain_loops(k, g, u, vg, vu, c, p, data):
    # polynomials in q^k times a planted q^v on either side; lists of 16 or
    # more coefficients take the packed path
    g = [0] * vg + _inflate(g, k)
    u = [0] * vu + _inflate(u, k)
    a = _plain(_mul_int, g, u)
    assert _mul_int(g, u) == _mul_int(u, g) == a
    assert _int_divides(g, a) == _plain(_int_divides, g, a) == u
    assert _int_divides(u, a) == _plain(_int_divides, u, a) == g
    # a divisor with a higher power of q than the dividend never divides it
    va = min(i for i, x in enumerate(a) if x)
    higher = [0] * (va + data.draw(st.integers(1, 3))) + [1]
    assert _int_divides(higher, a) is None and _plain(_int_divides, higher, a) is None
    # one-term operands c q^p on either side; c q^p divides a exactly when
    # p <= va and c divides every coefficient
    mono = [0] * p + [c]
    for x, y in ((mono, g), (g, mono), (mono, mono)):
        assert _mul_int(x, y) == _plain(_mul_int, x, y)
    want = [x // c for x in a[p:]] if p <= va and all(x % c == 0 for x in a) else None
    assert _int_divides(mono, a) == _plain(_int_divides, mono, a) == want
    assert _int_divides(g, mono) == _plain(_int_divides, g, mono)
    # a constant divisor that does not divide: b has an odd leading coefficient
    b = a[:-1] + [a[-1] + 1 - a[-1] % 2]
    assert _int_divides([2], b) is None and _plain(_int_divides, [2], b) is None
    assert _int_divides([2], [0] * p + [1, 2]) is None
    # the zero dividend has the zero quotient
    assert _int_divides(g, []) == _plain(_int_divides, g, []) == []
    assert QPolynomial.zero().exact_div(QPolynomial(g)) == QPolynomial.zero()


def _cleared_duality_quotients(max_n=12):
    # the divisions that clear e_j E_(d-j) by [d]! directly: q^a [d]! by
    # [j]! [d-j]!, where q^a is the power of q in E_(d-j), in both bases;
    # each quotient is q^a times a Gaussian binomial
    for squared in (False, True):
        for d in range(max_n + 1):
            for j in range(d + 1):
                k = d - j
                a = k * (k - 1) if squared else k * (k - 1) // 2
                divisor = q_factorial(j, squared).num * q_factorial(k, squared).num
                yield q_factorial(d, squared).num.shifted(a).exact_div(divisor)


def test_cleared_duality_terms_pack_no_power_of_q():
    # each cleared duality term is q^a times a Gaussian binomial: the kernels
    # strip q^a before they pack, so no packed list starts with a zero coefficient
    packed = []

    def pack(cs, width):
        packed.append(cs[0])
        return _pack(cs, width)

    with mock.patch.object(exactq, "_pack", pack):
        list(_cleared_duality_quotients())
    assert packed and all(packed)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        int_poly.filter(lambda c: len(c) > 1),
        st.sampled_from([[1], [-1], [3], [-3]]),
        rat.filter(bool).map(lambda c: [c]),
    ),
    st.integers(0, 6),
    rat.filter(bool),
)
def test_monomial_side_matches_gcd_route(den, p, c):
    # Scalar takes the coprime shortcut when one side is c q^p, a constant
    # included; the reference clears denominators, divides both sides by
    # their gcd over Z and then by their joint content, signed so lc(den) > 0
    mono = [0] * p + [c]
    for num, d in ((mono, den), (den, mono)):
        ints, _ = _over_z([Fraction(x) for x in num + d])
        num, d = QPolynomial(ints[: len(num)]), QPolynomial(ints[len(num) :])
        g = _poly_gcd(num, d)
        rn, rd = num.exact_div(g), d.exact_div(g)
        content = math.gcd(*rn.coeffs, *rd.coeffs) * (1 if rd.leading > 0 else -1)
        want = tuple(x // content for x in rn.coeffs), tuple(x // content for x in rd.coeffs)
        s = Scalar(num, d)
        assert (s.num.coeffs, s.den.coeffs) == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-20, 20), max_size=8),
    st.integers(-12, 12).filter(bool),
    st.sampled_from((1, 2, -3, 6)),
    st.integers(0, 5),
)
@example([], -3, 2, 0)  # a zero numerator
@example([5], -4, 6, 0)  # constant over constant, joint content 6
@example([0, 0, -7], 14, 1, 3)  # c q^p over a constant, sharing the factor 7
def test_constant_side_matches_gcd_route(num, c, content, p):
    # a constant denominator only divides out the signed joint content; the
    # reference takes the gcd route, as test_monomial_side_matches_gcd_route
    num = QPolynomial([content * x for x in num])
    den = QPolynomial([content * c])
    s = Scalar(num, den)
    if num.is_zero:
        want = (), (1,)
    else:
        g = _poly_gcd(num, den)
        rn, rd = num.exact_div(g), den.exact_div(g)
        joint = math.gcd(*rn.coeffs, *rd.coeffs) * (1 if rd.leading > 0 else -1)
        want = tuple(x // joint for x in rn.coeffs), tuple(x // joint for x in rd.coeffs)
    assert (s.num.coeffs, s.den.coeffs) == want
    # c q^p times num, on either side, is the schoolbook product
    mono = QPolynomial([0] * p + [c])
    for x, y in ((mono, num), (num, mono)):
        want = [] if num.is_zero else _plain(_mul_int, list(x.coeffs), list(y.coeffs))
        assert (x * y).coeffs == tuple(want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_packed_kernels_match_schoolbook_loops(data):
    # signed coefficients of 1, 3 or 40 digits with zeros inside, lengths on
    # both sides of the packing threshold, leading coefficients mostly not +-1
    def poly():
        n = data.draw(st.integers(1, 2 * _PACK_MIN_LEN + 8))
        bound = 10 ** data.draw(st.sampled_from((1, 3, 40)))
        coeff = st.one_of(st.just(0), st.integers(-bound, bound))
        cs = data.draw(st.lists(coeff, min_size=n, max_size=n))
        cs[-1] = cs[-1] or bound
        return cs

    g, u, v = poly(), poly(), poly()
    a = _plain(_mul_int, g, u)
    assert _mul_int(g, u) == a
    assert _int_divides(g, a) == _plain(_int_divides, g, a) == u
    # a nonzero remainder of lower degree than g makes the division inexact
    r = data.draw(st.lists(st.integers(-9, 9), max_size=len(g) - 1))
    if any(r):
        a_r = [c + (r[i] if i < len(r) else 0) for i, c in enumerate(a)]
        assert _int_divides(g, a_r) is None and _plain(_int_divides, g, a_r) is None
    # an unrelated dividend, narrower than the divisor or wider, long or short
    assert _int_divides(g, v) == _plain(_int_divides, g, v)
    assert _int_divides(v, a) == _plain(_int_divides, v, a)


def test_packed_division_falls_back_when_the_quotient_overflows_its_slots():
    # (1 - q^3)^16 = (1 - q)^16 (1 + q + q^2)^16: the quotient's coefficients
    # have 23 bits and the dividend's 14, so the quotient packed at the
    # dividend's slot width does not unpack to itself, and the product check
    # sends the division to the schoolbook loop
    g = [(-1) ** i * math.comb(16, i) for i in range(17)]
    want = [1]
    for _ in range(16):
        want = _plain(_mul_int, want, [1, 1, 1])
    a = _plain(_mul_int, g, want)
    assert max(map(abs, want)).bit_length() > max(map(abs, a)).bit_length()
    assert min(len(g), len(want)) >= _PACK_MIN_LEN
    with mock.patch.object(exactq, "_int_divmod", side_effect=_int_divmod) as divmod_:
        assert _int_divides(g, a) == want
    assert divmod_.call_count == 1
    # a quotient that fits is taken from the packed division alone
    b = _plain(_mul_int, g, g + [5])
    with mock.patch.object(exactq, "_int_divmod", side_effect=_int_divmod) as divmod_:
        assert _int_divides(g, b) == g + [5]
    assert divmod_.call_count == 0


def test_packed_division_falls_back_when_the_quotient_does_not_unpack():
    # a is g(256) (256^16 + 12345) in balanced base-256 digits, the top digit
    # taking the rest: the packed division at one byte divides exactly, but its
    # quotient needs 17 slots where 16 are open, so `_slots` refuses it and the
    # schoolbook loop finds a remainder
    g = [1] * 16
    g[14] = 2**200
    x = exactq._eval_int(g, 256) * (256**16 + 12345)
    a = []
    for _ in range(30):
        a.append((x + 128) % 256 - 128)
        x = (x - a[-1]) // 256
    a.append(x)
    unpacked = []

    def slots(*args):
        unpacked.append(_slots(*args))
        return unpacked[-1]

    with mock.patch.object(exactq, "_slots", slots), mock.patch.object(
        exactq, "_int_divmod", side_effect=_int_divmod
    ) as divmod_:
        assert _int_divides(g, a) is None
    assert unpacked == [None] and divmod_.call_count == 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("cancelling", "q-integer", "root", "wide", "nonnegative")), st.data())
def test_division_tries_one_width_then_the_schoolbook_loop(kind, data):
    # the packed division makes one try, at the slot width a nonnegative
    # quotient needs; when that try cannot decide, the schoolbook loop does,
    # and a planted remainder gives None on every way
    def ints(n, low, high):
        # nonzero at 0, 1 and n - 1: no power of q comes out
        cs = data.draw(st.lists(st.integers(low, high), min_size=n, max_size=n))
        for i in {0, min(1, n - 1), n - 1}:
            cs[i] = cs[i] or high
        return cs

    length = st.integers(_PACK_MIN_LEN, 2 * _PACK_MIN_LEN + 8)
    if kind == "cancelling":
        # K (1 - q)^m divides K (1 - q^3)^m: the quotient (1 + q + q^2)^m is
        # wider than the dividend, so it does not fit the width
        m = data.draw(st.integers(_PACK_MIN_LEN - 1, 28))
        k = data.draw(st.sampled_from((1, -1, 10**40 + 7, -(10**20))))
        g = [k * (-1) ** i * math.comb(m, i) for i in range(m + 1)]
        u = [1]
        for _ in range(m):
            u = _plain(_mul_int, u, [1, 1, 1])
    elif kind == "q-integer":
        # [m]_q divides a = (q^m - 1) v into u = (q - 1) v.  With v
        # alternating +-k and no longer than [m]_q, a has 7-bit coefficients
        # and u 8-bit ones, so the width, one byte, unpacks a wrong list that
        # agrees with u at X = 256, and the check at the second point must
        # reject it
        k = data.draw(st.integers(65, 127))
        v = [(-1) ** i * k for i in range(data.draw(st.integers(_PACK_MIN_LEN, 29)))]
        g = [1] * data.draw(length)
        u = _plain(_mul_int, [-1, 1], v)
    elif kind == "root":
        # g = (q - 256) h has g(256) = 0, and a 0/1 quotient gives a width of
        # one byte, where g vanishes
        g = _plain(_mul_int, [-256, 1], ints(data.draw(length) - 1, -20, 20))
        u = ints(data.draw(length), 0, 1)
    elif kind == "wide":
        g, u = (ints(data.draw(length), -(10**40), 10**40) for _ in range(2))
    else:
        g, u = (ints(data.draw(length), 0, 99) for _ in range(2))
    a = _plain(_mul_int, g, u)
    width = _slot_bytes(max(_bits(a) - _bits(g), 0) + 1)
    vanishes = exactq._eval_int(g, 2 ** (8 * width)) == 0
    fits = -(2 ** (8 * width - 1)) <= min(u) and max(u) < 2 ** (8 * width - 1)
    with mock.patch.object(exactq, "_unpack", side_effect=_unpack) as unpack, mock.patch.object(
        exactq, "_int_divmod", side_effect=_int_divmod
    ) as divmod_:
        assert _int_divides(g, a) == u
    assert _plain(_int_divides, g, a) == u
    assert unpack.call_count <= 1
    # the schoolbook loop runs exactly when the one width cannot decide
    assert divmod_.call_count == (0 if fits and not vanishes else 1)
    if kind in ("cancelling", "root"):
        assert divmod_.call_count == 1
    if kind == "root":
        assert width == 1 and vanishes
    if kind == "nonnegative":
        # max|u| <= max|a| / max|g|: the width holds the quotient
        assert fits and unpack.call_count == 1
    # a nonzero remainder of lower degree than g makes the division inexact
    r = data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=len(g) - 1).filter(any))
    a_r = [c + (r[i] if i < len(r) else 0) for i, c in enumerate(a)]
    assert _int_divides(g, a_r) is None and _plain(_int_divides, g, a_r) is None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 24), st.data())
@example(8, None)  # one full limb lane
@example(9, None)  # a second lane holding one byte
@example(16, None)
@example(17, None)  # a third lane
def test_unpack_reads_limb_lanes(width, data):
    # `_unpack` reads 8-byte limb lanes with struct and joins them; the
    # reference reads each slot on its own, as a little-endian int less half
    # a slot.  Coefficients reach both ends of a balanced slot.
    half = 2 ** (8 * width - 1)
    edges = (-half, half - 1, 0, -1, 1)
    if data is None:
        cs = [*edges, half // 3, -half // 5]
    else:
        n = data.draw(st.integers(1, 300))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        cs = [
            rng.choice(edges) if rng.random() < 0.2 else rng.randrange(-half, half)
            for _ in range(n)
        ]
    slots = _slots(exactq._eval_int(cs, 2 ** (8 * width)), len(cs), width)
    cut = range(0, len(slots), width)
    want = [int.from_bytes(slots[i : i + width], "little") - half for i in cut]
    assert want == cs
    assert _unpack(slots, width) == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 24), st.integers(1, 24), st.data())
@example(8, 3, None)  # lanes narrower than the slots, the last one partial
@example(9, 9, None)  # its own width
@example(2, 17, None)  # slots wider than the packed ones
def test_value_at_another_width(width, at, data):
    # `_value` re-slots the packed list lane by lane when `at` differs from
    # `width`; the reference is Horner's rule at q = 2**(8 at).  Coefficients
    # reach both ends of a balanced slot.
    half = 2 ** (8 * width - 1)
    edges = (1 - half, half - 1, 0, -1, 1)
    if data is None:
        cs = [*edges, half // 3, -half // 5]
    else:
        n = data.draw(st.integers(1, 100))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        cs = [
            rng.choice(edges) if rng.random() < 0.2 else rng.randrange(1 - half, half)
            for _ in range(n)
        ]
    assert _value(_pack(cs, width), width, at) == exactq._eval_int(cs, 2 ** (8 * at))


def _reduce_branch(branch, draw):
    """(num, den) whose reduction takes the given branch of `_reduce_pair`."""
    c = draw(st.integers(-30, 30).filter(bool))
    g = draw(int_poly.filter(lambda x: len(x) > 1 and x[0]))
    h = draw(int_poly)
    shift = [0] * draw(st.integers(0, 3))
    if branch == "one-term":
        mono = shift + [c]
        return (mono, g) if draw(st.booleans()) else (_plain(_mul_int, g, h), mono)
    if branch == "exact":
        # g has two terms or more, so k g h does too, and g divides it over Q
        k = draw(st.sampled_from((1, 2, -6)))
        return shift + [k * x for x in _plain(_mul_int, g, h)], [c * x for x in g]
    # gcd: (q + 2) g does not divide g h when h(-2) != 0, and g is left over
    h = h if exactq._eval_int(h, -2) else h + [1]
    return _plain(_mul_int, g, h), shift + [c * x for x in _plain(_mul_int, [2, 1], g)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("one-term", "exact", "gcd")), st.data())
def test_negated_numerator_reduces_to_the_negated_value(branch, data):
    # `_reduce_pair` keeps the numerator's sign through every branch instead
    # of making it positive-leading and negating the result back
    a, b = _reduce_branch(branch, data.draw)
    num, den = QPolynomial(a), QPolynomial(b)
    with mock.patch.object(exactq, "_poly_gcd", side_effect=_poly_gcd) as gcd, mock.patch.object(
        QPolynomial, "exact_div", autospec=True, side_effect=QPolynomial.exact_div
    ) as div:
        s = Scalar(num, den)
    assert (div.call_count > 0, gcd.call_count > 0) == {
        "one-term": (False, False),
        "exact": (True, False),
        "gcd": (True, True),
    }[branch]
    t = Scalar(-num, den)
    assert t == -s and t.num.coeffs == tuple(-x for x in s.num.coeffs) and t.den == s.den
    assert t.den.leading > 0
    for x in (3, Fraction(-1, 2)):
        if den(x):
            assert evaluate_at(t, x) == -Fraction(num(x)) / den(x)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-4, 4), max_size=5),
    st.lists(st.integers(-4, 4), max_size=5),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda c: c[-1]),
)
@example([1, 2], [-1, -2], [3])  # cancels to zero
@example([1, 2, 0], [0, -2, 0], [0, 1])  # cancels down to one coefficient
def test_cancelling_sums_stay_trimmed(low_a, low_b, top):
    # a = low_a + q^m top and b = low_b - q^m top: the top cancels in a + b,
    # and the sum, built without the validating constructor, must still be
    # trimmed and equal to the constructor-built value
    m = max(len(low_a), len(low_b))
    low_a, low_b = (low + [0] * (m - len(low)) for low in (low_a, low_b))
    a, b = low_a + top, low_b + [-x for x in top]
    want = [x + y for x, y in zip(low_a, low_b)]
    for make in (QPolynomial, _xpoly):
        total = make(a) + make(b)
        assert total == make(want)
        assert not total.coeffs or total.coeffs[-1]
        assert (make(a) - make(a)).coeffs == ()
    with pytest.raises(TypeError):
        QPolynomial(a) + _xpoly(b)
    with pytest.raises(TypeError):
        _xpoly(a) + QPolynomial(b)


def test_cleared_duality_terms_divide_narrower_than_the_dividend():
    # each cleared duality term divides [d]! by [j]! [d-j]!, whose Gaussian binomial
    # quotient has far narrower coefficients than [d]!; the packed division
    # runs at the quotient's width.  Every division here is exact, so every
    # packed divmod has a zero remainder and is followed by one unpack, at
    # the width that divmod ran at.
    dividends, widths, quotients = [], [], []

    def divides(g, a):
        dividends.append(a)
        try:
            quotients.append(_int_divides(g, a))
        finally:
            dividends.pop()
        return quotients[-1]

    def unpack(slots, width):
        if dividends:
            widths.append((width, _slot_bytes(_bits(dividends[-1]))))
        return _unpack(slots, width)

    with mock.patch.object(exactq, "_int_divides", divides), mock.patch.object(
        exactq, "_unpack", unpack
    ):
        list(_cleared_duality_quotients())
    assert widths and None not in quotients
    assert all(width < dividend for width, dividend in widths)


def test_duality_makes_no_gcd_calls():
    # every gcd duality would take is gcd(c q^p, [j]![k]!) = 1
    with mock.patch.object(exactq, "_poly_gcd", side_effect=exactq._poly_gcd) as gcd:
        verify_suite(["duality"], max_n=12)
    assert gcd.call_count == 0


def test_duality_packs_nothing_and_divides_only_its_coefficients():
    # the terms multiply by Gaussian binomials, whose rows take no polynomial
    # division; the only exact divisions left clear e_k and E_k by [k]!, at
    # most one each per k <= 12 and base, and none of them is long enough to pack
    with mock.patch.object(
        QPolynomial, "exact_div", autospec=True, side_effect=QPolynomial.exact_div
    ) as exact_div, mock.patch.object(exactq, "_pack", side_effect=exactq._pack) as pack:
        verify_suite(["duality"], max_n=12)
    assert pack.call_count == 0
    assert exact_div.call_count <= 2 * 2 * 13


def _xpoly(ints):
    return XPoly(Scalar(c) for c in ints)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-4, 4), max_size=6),
    st.lists(st.integers(-4, 4), max_size=6),
    st.sampled_from((0, 1, -3, 2)),
    st.integers(-4, 4),
    st.integers(0, 3),
)
def test_shared_dense_base_commutes_with_the_scalar_map(a, b, c, j, n):
    # QPolynomial and XPoly take these operations from one base class; sending
    # int coefficients to Scalar constants must commute with each of them
    pa, pb, xa, xb = QPolynomial(a), QPolynomial(b), _xpoly(a), _xpoly(b)
    assert _xpoly(pa.coeffs) == xa and pa.degree == xa.degree and pa.is_zero == xa.is_zero
    assert _xpoly((pa + pb).coeffs) == xa + xb
    assert _xpoly((pa - pb).coeffs) == xa - xb
    assert _xpoly((-pa).coeffs) == -xa
    assert _xpoly(pa.scale(c).coeffs) == xa.scale(Scalar(c))
    assert pa.scale(c).coeffs == QPolynomial([x * c for x in a]).coeffs
    if not pa.is_zero:
        # a multiplier from outside the ring still goes through the validating constructor
        with pytest.raises(TypeError):
            pa.scale(Fraction(1, 2))
    assert _xpoly((pa**n).coeffs) == xa**n
    for k in (-1, len(a), len(a) + 3):
        assert pa.coefficient(k) == 0 and xa.coefficient(k) is ZERO
    assert (pa == pb) == (xa == xb)
    if pa == pb:
        assert hash(pa) == hash(pb) and hash(xa) == hash(xb)
    try:
        shifted = pa.shifted(j)
    except ValueError:
        with pytest.raises(ValueError):
            xa.shifted(j)
    else:
        assert _xpoly(shifted.coeffs) == xa.shifted(j)
    assert pa != xa and not (pa == xa)
    with pytest.raises(ValueError):
        xa ** -1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.integers(-10**30, 10**30), st.fractions(max_denominator=10**6)))
def test_constants_hash_like_the_numbers_they_equal(c):
    # == against int and Fraction must agree with hash, so sets and dict keys mix them;
    # QPolynomial takes ints only, and Scalar takes ints and Fractions
    values = [Scalar(c)]
    if c.denominator == 1:
        values.append(QPolynomial([c.numerator]))
    for value in values:
        assert value == c and hash(value) == hash(c)
        assert len({value, c}) == 1 and {c: "c"}.get(value) == "c"
    assert hash(ZERO) == hash(0) and {1: "one"}.get(ONE) == "one"
