"""Partitions, Schur expansion machinery, and the multivariate oracle."""

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgue import (
    ONE,
    ZERO,
    MonomialMap,
    Partition,
    QPolynomial,
    Scalar,
    ShapeError,
    SizeError,
    XPoly,
    apply_M0,
    apply_M2,
    binomial_family,
    det,
    family_expand,
    functional_L,
    gaussian_moment,
    generalized_binomial,
    hermite,
    hook_partition,
    integrate_schur,
    partitions,
    power_sum_monomials,
    power_sum_vector,
    q_integer,
    schur_monomials,
    shadow_hermite,
    sigma_at_zero,
    vandermonde,
    verify_suite,
)
from qgue import moments, qxpoly, symschur
from qgue.symschur import ORACLE_MAX_DEGREE, _alternant, _key
from oracles import family_alternant, ssyt_schur, tuple_product, vandermonde_squared

P = Partition


def test_partition_basics():
    p = P((3, 1, 1))
    assert str(p) == "3,1,1"
    assert P([3, 1, 1]) == p and P(iter((3, 1, 1, 0))) == p
    assert P([]) == P() and P([0, 0]) == P()
    assert p.weight == 5 and p.length == 3
    assert p.part(0) == 3 and p.part(5) == 0
    assert P((3, 1)).contains(P((2, 1))) and not P((2, 2)).contains(P((3,)))
    assert P((2, 2, 0, 0)) == P((2, 2))
    with pytest.raises(ValueError):
        P((1, 2))


def test_partition_subdiagrams():
    subs = sorted(str(s) for s in P((2, 1)).subdiagrams())
    assert subs == ["", "1", "1,1", "2", "2,1"]


def test_partitions_generator():
    got = list(partitions(4, 2))
    assert len(got) == len(set(got)) == 9
    assert all(p.weight <= 4 and p.length <= 2 for p in got)
    # a negative bound admits no partition, not even the empty one
    assert list(partitions(-3, 2)) == []
    assert list(partitions(2, -1)) == []
    assert list(partitions(0, 0)) == [P()]


def test_schur_examples():
    assert schur_monomials(P((1,)), 2).terms == {(1, 0): ONE, (0, 1): ONE}
    assert schur_monomials(P(), 3).terms == {(0, 0, 0): ONE}
    assert schur_monomials(P((2, 1)), 2).terms == {(2, 1): ONE, (1, 2): ONE}
    assert schur_monomials(P(), 0).terms == {(): 1}
    with pytest.raises(ShapeError):
        schur_monomials(P((1, 1, 1)), 2)
    with pytest.raises(ShapeError):
        schur_monomials(P(), -1)


def test_schur_against_tableau_enumeration():
    # up to the oracle's 5 variables, the branching recursion's full depth
    for n in (1, 2, 3, 4, 5):
        for kappa in partitions(6, n):
            expected = ssyt_schur(kappa.parts, n)
            got = schur_monomials(kappa, n)
            assert {e: c for e, c in got.terms.items()} == {
                e: Scalar(c) for e, c in expected.items()
            }


def test_schur_coefficients_are_nonnegative_integers():
    for n in (1, 2, 3):
        for kappa in partitions(5, n):
            for c in schur_monomials(kappa, n).terms.values():
                assert type(c) is int and c > 0


def test_schur_times_vandermonde_is_the_bialternant():
    # s_kappa * a_delta = a_{kappa + delta}, the alternant-ratio definition
    for n, max_weight in ((1, 6), (2, 6), (3, 6), (4, 6), (5, 4)):
        for kappa in partitions(max_weight, n):
            want = _alternant(tuple(kappa.part(j) + n - 1 - j for j in range(n)), n)
            assert tuple_product(schur_monomials(kappa, n), vandermonde(n)) == want


def test_vandermonde():
    assert vandermonde(2).terms == {(1, 0): ONE, (0, 1): -ONE}
    v3 = vandermonde(3)
    assert len(v3.terms) == 6 and v3.terms[(2, 1, 0)] == ONE


def _parities(n):
    """Every parity class of keys in n variables."""
    return [_key(bits) for bits in itertools.product((0, 1), repeat=n)]


def test_oracle_maps_are_integer_valued():
    # the oracle computes over Z: no Scalar is built before apply_M0
    maps = []
    for n in (1, 2, 3, 4):
        maps += [vandermonde(n), power_sum_monomials(3, n)]
        maps += [schur_monomials(kappa, n) for kappa in partitions(4, n)]
    for f in maps:
        assert f.terms and all(type(c) is int for c in f.terms.values())
    for n in (1, 2, 3, 4, 5):
        square = {}
        for parity in _parities(n):
            part = symschur._vandermonde_squared(n, parity)
            assert all(type(c) is int and c for _, c in part)
            # each class holds the terms whose exponents have its parity
            assert all(k & _key([1] * n) == parity for k, _ in part)
            square.update(part)
        # the parity classes of the keyed square from the alternant's pair sums,
        # together, against the product of the factors (x_i - x_j)**2 on tuples
        want = {_key(e): c for e, c in vandermonde_squared(n).terms.items()}
        assert square == want


def test_determinant():
    one, q = ONE, Scalar.q_power(1)
    assert det([]) == ONE
    assert det([[q]]) == q
    assert det([[one, q], [q, one]]) == ONE - Scalar.q_power(2)
    assert det([[ZERO, one], [one, ZERO]]) == -ONE
    assert det([[ZERO, ZERO], [one, one]]) == ZERO
    # a matrix that is not square is refused, whether it is short or ragged
    for bad in ([[one, one]], [[one, one], [one]]):
        with pytest.raises(ValueError):
            det(bad)


def _blocks(matrix):
    """The leading principal minors of matrix, each by det of its own block."""
    return [det([row[:j] for row in matrix[:j]]) for j in range(1, len(matrix) + 1)]


def test_hook_sigmas_come_from_one_elimination():
    # theorem2's oracle values for the hooks (ell + 1, 1^i), i < N, are the
    # leading minors of one matrix; every other one is zero, and each zero
    # pivot is passed by swapping in the next row, so no block needs det
    for n in range(1, 7):
        for ell in range(1, 7):
            want = [sigma_at_zero(hook_partition(ell + 1, i), n) for i in range(n)]
            assert n == 1 or any(w.is_zero for w in want)
            with mock.patch.object(symschur, "det", side_effect=AssertionError("det")):
                assert symschur._hook_sigmas_at_zero(ell, n) == want


def test_leading_minors_fall_back_to_det_past_an_unswappable_zero_pivot():
    one, two, q = ONE, Scalar(2), Scalar.q_power(1)
    cases = [
        # pivot 0 is zero and row 1 is zero in column 0: orders 2 and 3 use det
        ([[ZERO, one, two], [ZERO, q, one], [one, two, q]], 2),
        # pivot 0 is zero and row 1 is swapped in: no det
        ([[ZERO, one], [one, ZERO]], 0),
        # pivot 1 is zero after elimination, and so is its neighbour below it
        ([[one, one, one], [one, one, one], [one, one, q]], 1),
        ([[one, q], [q, one]], 0),
    ]
    for matrix, fallbacks in cases:
        want = _blocks(matrix)
        with mock.patch.object(symschur, "det", side_effect=symschur.det) as spy:
            got = symschur._leading_minors(matrix)
        assert got == want
        assert spy.call_count == fallbacks


sparse_entry = st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), max_size=3)
square = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(sparse_entry, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(square)
def test_leading_minors_match_the_dets_of_their_blocks(rows):
    # sparse small entries, so that zero pivots, swaps and fallbacks all occur
    matrix = [[Scalar(QPolynomial(cs)) for cs in row] for row in rows]
    assert symschur._leading_minors(matrix) == _blocks(matrix)
    assert det(matrix) == _blocks(matrix)[-1]


def _plain_det(matrix):
    """det by one Bareiss elimination of the whole matrix, with row swaps."""
    return list(symschur._bareiss([list(row) for row in matrix], len(matrix)))[-1]


@st.composite
def patterned(draw):
    """Sparse square matrices whose nonzero entries lie where a row's label and a
    column's label agree: checkerboards for two labels, blocks of any shape,
    square or not, for more; one row may be zeroed."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(sparse_entry, min_size=n, max_size=n), min_size=n, max_size=n))
    labels = st.lists(st.integers(0, draw(st.integers(0, 2))), min_size=n, max_size=n)
    row_label, col_label = draw(labels), draw(labels)
    zero_row = draw(st.none() | st.integers(0, n - 1))
    return [
        [Scalar(QPolynomial(cs if row_label[i] == col_label[j] and i != zero_row else []))
         for j, cs in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def _ints(rows):
    return [[Scalar(x) for x in row] for row in rows]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(patterned())
@example(_ints([[1 + i + j if (i + j) % 2 == 0 else 0 for j in range(5)] for i in range(5)]))
# two 2 x 2 blocks, one with a zero first pivot
@example(_ints([[0, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0]]))
# blocks of 1 and 3 rows over 2 columns each
@example(_ints([[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]]))
def test_split_det_matches_one_elimination(matrix):
    assert det(matrix) == _plain_det(matrix)
    lead = [_plain_det([row[:j] for row in matrix[:j]]) for j in range(1, len(matrix) + 1)]
    assert symschur._leading_minors(matrix) == lead


def test_theorem1_eliminates_half_blocks():
    # the shadow coefficient matrices are checkerboards: at N <= 8 Bareiss
    # sees blocks of at most 3 rows, never a whole matrix of 6
    for mod in (symschur, moments, qxpoly):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    with mock.patch.object(symschur, "_bareiss", wraps=symschur._bareiss) as spy:
        verify_suite(["theorem1"], max_weight=6, max_vars=8)
    assert max(len(c.args[0]) for c in spy.call_args_list) == 3


def test_family_expand_monomials_is_identity():
    for n in (1, 2, 3, 4):
        for kappa in partitions(6 if n < 4 else 4, n):
            fe = family_expand(XPoly.x_power, kappa, n)
            assert fe.entries == {kappa: ONE}


def test_family_expand_examples():
    fe = family_expand(shadow_hermite, P((2,)), 1)
    assert fe.entries == {P((2,)): ONE, P(): ONE}
    fe = family_expand(hermite, P((1, 1)), 2)
    assert fe.entries == {P((1, 1)): ONE, P(): ONE}


def test_family_expand_triangular_with_unit_leading():
    for fam in (hermite, shadow_hermite, binomial_family):
        for n in (1, 2, 3):
            for kappa in partitions(4, n):
                fe = family_expand(fam, kappa, n)
                assert fe.entries[kappa] == ONE
                assert all(kappa.contains(lam) for lam in fe.entries)


def test_family_expand_rejects_bad_family():
    with pytest.raises(ValueError):
        family_expand(lambda n: XPoly.x_power(n).scale(q_integer(2)), P((1,)), 1)
    # non-monic only in degree 0: that column lies outside the evaluated minor but is checked
    with pytest.raises(ValueError):
        family_expand(lambda n: XPoly.x_power(n).scale(q_integer(2 if n == 0 else 1)), P((2,)), 3)


def _full_coefficient_det(fam, kappa, lam, n):
    """The s_lam coefficient of F_kappa as the full N x N coefficient determinant."""
    polys = [fam(kappa.part(col) + n - 1 - col) for col in range(n)]
    return det([[f.coefficient(lam.part(row) + n - 1 - row) for f in polys] for row in range(n)])


def test_coefficient_minor_matches_full_determinant():
    # the routes evaluate a len(kappa) x len(kappa) minor; N >= len(kappa) + 3
    # puts at least three unit-block columns outside it, and at N = 12 the hooks
    # of weight <= 6 leave at least six (there only the empty-partition
    # coefficient is checked: a full 12 x 12 determinant takes about 0.08 s).
    # The full determinant also vanishes for lambda outside kappa, where no
    # minor is built.
    families = (XPoly.x_power, binomial_family, hermite, shadow_hermite)
    hooks = [hook_partition(w - i, i) for w in range(1, 7) for i in range(w)]
    inputs = [(n, list(partitions(4, n)), list(partitions(4, n))) for n in (1, 2, 3, 4, 7)]
    for n, kappas, lams in inputs + [(12, hooks, [P()])]:
        for kappa in kappas:
            for fam in families:
                full = {lam: _full_coefficient_det(fam, kappa, lam, n) for lam in lams}
                entries = family_expand(fam, kappa, n).entries
                if lams == [P()]:
                    assert entries.get(P(), ZERO) == full[P()]
                else:
                    assert entries == {lam: c for lam, c in full.items() if not c.is_zero}
                if fam is shadow_hermite:
                    assert sigma_at_zero(kappa, n) == full[P()]
                if fam is binomial_family:
                    assert all(generalized_binomial(kappa, lam, n) == c for lam, c in full.items())


def test_sigma_at_zero_examples():
    assert all(sigma_at_zero(P(), n) == ONE for n in range(1, 7))
    assert sigma_at_zero(P((1, 1)), 2) == -ONE
    assert sigma_at_zero(P((2,)), 2) == q_integer(3)
    assert sigma_at_zero(P((2,)), 1) == ONE


def test_sigma_at_zero_builds_no_polynomial():
    # the fast route reads the shadow coefficients from their closed form:
    # it neither builds an XPoly nor reads one
    kappa = P((4, 2))
    expected = sigma_at_zero(kappa, 20)
    sigma_at_zero.cache_clear()
    qxpoly._shadow_coefficient.cache_clear()
    built = AssertionError("an XPoly was built or read")
    with mock.patch.object(qxpoly, "shadow_hermite", side_effect=built), mock.patch.object(
        XPoly, "__init__", side_effect=built
    ), mock.patch.object(XPoly, "coefficient", side_effect=built):
        assert sigma_at_zero(kappa, 20) == expected


def test_schur_vector_serialization():
    fe = family_expand(shadow_hermite, P((2,)), 2)
    assert {str(p): str(c) for p, c in sorted(fe.entries.items())} == {"": "1+q+q^2", "2": "1"}
    with pytest.raises(ShapeError):
        from qgue import SchurVector

        SchurVector({P((1, 1, 1)): ONE}, 2)


def test_sigma_at_zero_matches_family_expand():
    for n in (1, 2, 3):
        for kappa in partitions(4, n):
            fe = family_expand(shadow_hermite, kappa, n)
            assert sigma_at_zero(kappa, n) == fe.entries.get(P(), ZERO)


def test_power_sum_vector_hooks():
    def hooks(m, n):
        return list(power_sum_vector(m, n).entries.items())

    assert hooks(1, 2) == [(P((2,)), ONE), (P((1, 1)), -ONE)]
    assert hooks(1, 1) == [(P((2,)), ONE)]
    assert hooks(2, 2) == [(P((4,)), ONE), (P((3, 1)), -ONE)]
    with pytest.raises(ValueError):
        power_sum_vector(0, 2)


def test_power_sum_vector_is_power_sum():
    # spot-check Murnaghan-Nakayama against a monomial expansion
    for m, n in [(1, 2), (2, 2), (2, 3)]:
        total = {}
        for p, sign in power_sum_vector(m, n).entries.items():
            for e, c in schur_monomials(p, n).terms.items():
                total[e] = total.get(e, 0) + (c if sign == ONE else -c)
        expected = {}
        for i in range(n):
            e = [0] * n
            e[i] = 2 * m
            expected[tuple(e)] = 1
        assert MonomialMap(n, total).terms == expected


def test_apply_M0_examples():
    L = gaussian_moment
    assert apply_M0(MonomialMap(2, {(2, 2): ONE}), L) == ONE
    assert apply_M0(MonomialMap(2, {(3, 1): ONE}), L) == ZERO
    assert apply_M0(MonomialMap.constant(2, ONE), L) == ONE


def test_apply_M2_examples():
    L = gaussian_moment
    assert apply_M2(MonomialMap.constant(2, ONE), L) == Scalar(2)
    assert apply_M2(MonomialMap(2, {(1, 1): ONE}), L) == Scalar(-2)
    assert apply_M2(MonomialMap(1, {(2,): ONE}), L) == ONE


def _monomial_map(n_vars, terms, scalar=False):
    """A map in n_vars variables from 4-variable terms, keeping the first n_vars."""
    out = {}
    for e, c in terms.items():
        out[e[:n_vars]] = out.get(e[:n_vars], 0) + c
    if scalar:
        out = {e: Scalar(c) for e, c in out.items()}
    return MonomialMap(n_vars, out)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    terms=st.dictionaries(st.tuples(*[st.integers(0, 4)] * 4), st.integers(-3, 3), max_size=6),
    scalar=st.booleans(),
)
@example(n=4, terms={(0, 0, 0, 0): 1}, scalar=False)
@example(n=3, terms={(0, 0, 0, 0): 2}, scalar=True)
# five variables at the guardrail's total degree 40: f of degree 20 times V**2 of degree 20
@example(n=5, terms={(20, 0, 0, 0, 0): 1}, scalar=False)
@example(n=5, terms={(5, 4, 4, 4, 3): 2, (0, 3, 7, 0, 10): -3, (4, 4, 4, 4, 4): 1}, scalar=True)
def test_apply_M2_folds_maps_that_are_not_symmetric(n, terms, scalar):
    f = _monomial_map(n, terms, scalar)
    want = apply_M0(tuple_product(f, vandermonde_squared(n)), gaussian_moment)
    assert apply_M2(f, gaussian_moment) == want


def test_oracle_multiplies_one_monomial_per_signature():
    # the squared Vandermonde factor meets f only after f is folded: under the
    # Gaussian functional, one pass per signature, over the one parity class of
    # its terms that matches the signature's own
    f = schur_monomials(P((4, 2, 2)), 5)
    signatures = {tuple(sorted(e)) for e in f.terms}
    square = {p: symschur._vandermonde_squared(5, p) for p in _parities(5)}
    full = sum(map(len, square.values()))
    assert full == len(vandermonde_squared(5).terms) == 2961
    passes = []

    class Rows:
        def __init__(self, parity):
            self.parity = parity

        def __iter__(self):
            passes.append(self.parity)
            return iter(square[self.parity])

    with mock.patch.object(symschur, "_vandermonde_squared", lambda n, parity: Rows(parity)):
        apply_M2(f, gaussian_moment)
    assert len(passes) == len(signatures) < len(f.terms)
    mask = _key([1] * 5)
    assert sorted(passes) == sorted(_key(sig) & mask for sig in signatures)
    # each pass covers one class, so all of them cover less than one full
    # square per signature
    assert sum(len(square[p]) for p in passes) < len(signatures) * full


def test_oracle_builds_one_vandermonde():
    symschur._alternant_keys.cache_clear()
    symschur._vandermonde_squared.cache_clear()
    integrate_schur.cache_clear()
    moments.normalization.cache_clear()
    with mock.patch.object(symschur, "vandermonde", wraps=vandermonde) as built:
        integrate_schur(P((4, 2, 2)), 5, "oracle")
        integrate_schur(P((3, 3)), 5, "oracle")
    assert [c.args for c in built.call_args_list] == [(5,)]


def test_oracle_hands_on_only_even_signatures():
    # the Gaussian functional is zero at odd exponents, so no signature with one
    # reaches the moments
    integrate_schur.cache_clear()
    moments.normalization.cache_clear()
    with mock.patch.object(symschur, "_apply_folded", wraps=symschur._apply_folded) as spy:
        integrate_schur(P((4, 2, 2)), 5, "oracle")
    signatures = [sig for c in spy.call_args_list for sig in c.args[0]]
    assert signatures and all(e % 2 == 0 for sig in signatures for e in sig)


def _one_odd(target):
    """The Gaussian moments, except that the odd exponent target has a moment."""
    return lambda e: Scalar(e + 1) if e == target else gaussian_moment(e)


@pytest.mark.parametrize(
    "n, terms, target",
    [
        (2, {(2, 1): 1, (1, 0): -2}, 3),
        (3, {(2, 1, 0): 1, (1, 1, 1): 3}, 3),
        # the largest exponent each product reaches: 5 + 2 (3 - 1) and 3 + 2 (4 - 1)
        (3, {(5, 0, 0): 1, (1, 1, 0): -1}, 9),
        (4, {(3, 1, 1, 0): 2, (0, 0, 0, 1): 1}, 9),
    ],
)
def test_apply_M2_reads_an_odd_moment_that_is_not_zero(n, terms, target):
    # a functional that is nonzero at one odd exponent, anywhere up to the
    # largest the product reaches, makes every parity class meet every row
    f = MonomialMap(n, terms)
    moment = _one_odd(target)
    want = apply_M0(tuple_product(f, vandermonde_squared(n)), moment)
    assert want != apply_M2(f, gaussian_moment)
    assert apply_M2(f, moment) == want


def test_oracle_keys_hold_every_exponent_the_guardrail_admits():
    # a key gives each exponent one byte, so sums of keys stay exact only while
    # the guardrail keeps every exponent of the product below 256
    assert ORACLE_MAX_DEGREE < 256

    def distinct(e):  # a functional that tells the exponents apart
        return Scalar(e + 1)

    for n in (1, 2, 3):
        top = ORACLE_MAX_DEGREE - n * (n - 1)
        f = MonomialMap(n, {(top,) + (0,) * (n - 1): 1, (0,) * (n - 1) + (top,): 2})
        want = apply_M0(tuple_product(f, vandermonde_squared(n)), distinct)
        assert apply_M2(f, distinct) == want


def test_apply_M2_guardrails():
    L = gaussian_moment
    with pytest.raises(SizeError):
        apply_M2(MonomialMap.constant(6, ONE), L)
    with pytest.raises(SizeError):
        apply_M2(MonomialMap(2, {(40, 0): ONE}), L)
    # a negative exponent has no key
    with pytest.raises(ValueError):
        apply_M2(MonomialMap(2, {(3, -1): ONE}), L)


def test_generalized_binomial():
    assert generalized_binomial(P((2, 1)), P((2, 1)), 3) == ONE
    assert generalized_binomial(P((2,)), P((1,)), 1) == Scalar(2)
    assert generalized_binomial(P((1, 1)), P((1,)), 2) == ONE
    assert generalized_binomial(P((2,)), P((1, 1)), 2) == ZERO


def test_determinant_functional_identity():
    # the coordinatewise functional of a product of two family alternants
    # equals N! times the Gram determinant of the univariate functional
    rng = random.Random(3)
    L = gaussian_moment
    for n in (1, 2, 3):
        for _ in range(3):
            fams = []
            for _ in range(2):
                polys = []
                for d in range(n):
                    cs = [Scalar(rng.randint(-2, 2)) for _ in range(d)]
                    polys.append(XPoly(cs + [ONE]))
                fams.append(polys)
            left = apply_M0(
                tuple_product(family_alternant(fams[0], n), family_alternant(fams[1], n)), L
            )
            gram = [
                [functional_L(fams[0][j] * fams[1][l]) for l in range(n)]
                for j in range(n)
            ]
            assert left == Scalar(math.factorial(n)) * det(gram)
