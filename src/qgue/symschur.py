"""Partitions, Schur polynomials, and the determinantal multivariate machinery.

Two parallel routes to multivariate integrals live here:

  * the fast route: for a monic family {f_n}, the expansion of the family
    determinant F_kappa in Schur polynomials is a determinant of univariate
    coefficients, so no multivariate algebra is needed;
  * the oracle route: expand everything into monomials (`MonomialMap`),
    multiply by the squared Vandermonde factor, and apply a univariate
    functional coordinatewise.  The alternants, Schur polynomials and
    power sums have integer coefficients, so this route computes over Z
    and q enters only through the moments, in `apply_M0`.  Schur polynomials
    come from the branching rule.  The functional and the squared
    Vandermonde are symmetric, so the integrand is first folded onto sorted
    exponent signatures: one monomial per orbit is multiplied out, and the
    result is exact for any integrand.  A monomial's key is one int with a
    byte per exponent; the guardrail keeps every exponent of the product
    below 256, so adding keys multiplies monomials and never carries.  The
    squared Vandermonde is built once per N in keys.

Determinant orientation is fixed once and for all: in every alternant the
row index is the variable and column j carries exponent kappa_j + N - j
(so the Vandermonde uses N - j).  With this choice the shifted alternant is
s_kappa times the Vandermonde, with s_emptyset = 1 and nonnegative integer
Schur coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import Callable, Dict, Iterable, Iterator, List, Tuple, Union

from .exactq import ONE, ZERO, Scalar, _trimmed
from .qxpoly import XPoly, _shadow_coefficient

__all__ = [
    "ShapeError",
    "SizeError",
    "Partition",
    "partitions",
    "hook_partition",
    "MonomialMap",
    "SchurVector",
    "binomial_family",
    "schur_monomials",
    "vandermonde",
    "family_expand",
    "sigma_at_zero",
    "power_sum_vector",
    "power_sum_monomials",
    "apply_M0",
    "apply_M2",
    "generalized_binomial",
    "det",
]

ORACLE_MAX_VARS = 5
ORACLE_MAX_DEGREE = 40


class ShapeError(ValueError):
    """A partition is longer than the number of variables allows."""


class SizeError(ValueError):
    """A brute-force oracle request exceeds the hard guardrails."""


class Partition:
    """Weakly decreasing nonnegative integers, trailing zeros trimmed."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = _trimmed(list(parts))
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {a} before {b}")
        if ps and ps[-1] < 0:
            raise ValueError(f"parts must be nonnegative, got {ps[-1]}")
        self.parts = tuple(ps)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (0-based), zero beyond the length."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        return all(other.part(i) <= self.part(i) for i in range(other.length))

    def subdiagrams(self) -> Iterator["Partition"]:
        """All partitions whose Young diagram fits inside this one."""
        return filter(self.contains, partitions(self.weight, self.length))

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return (self.weight, self.parts) < (other.weight, other.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts})"


def partitions(max_weight: int, max_length: int) -> Iterator[Partition]:
    """All partitions of weight <= max_weight and length <= max_length; none if one is < 0."""
    if max_weight < 0 or max_length < 0:
        return

    def rec(remaining: int, cap: int, slots: int, prefix: List[int]) -> Iterator[Tuple[int, ...]]:
        yield tuple(prefix)
        if slots and remaining:
            for v in range(min(cap, remaining), 0, -1):
                prefix.append(v)
                yield from rec(remaining - v, v, slots - 1, prefix)
                prefix.pop()

    for parts in rec(max_weight, max_weight, max_length, []):
        yield Partition(parts)


def _check_length(kappa: Partition, n_vars: int) -> None:
    if kappa.length > n_vars:
        raise ShapeError(f"partition '{kappa}' needs more than {n_vars} variables")


def hook_partition(first: int, ones: int) -> Partition:
    return Partition((first,) + (1,) * ones)


Coefficient = Union[int, Scalar]


class MonomialMap:
    """Sparse multivariate polynomial: it holds the terms, exponent tuples of
    fixed length to coefficients, int in every map the library builds.
    Coefficients are only added, multiplied and tested for truth, so Scalar
    values work too.  The map has no arithmetic: the oracle multiplies on
    keys (`_key`), which refuse a negative exponent."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Dict[Tuple[int, ...], Coefficient] = None):
        self.n_vars = n_vars
        clean: Dict[Tuple[int, ...], Coefficient] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != n_vars:
                raise ValueError("exponent tuple of wrong length")
            if c:
                clean[exps] = c
        self.terms = clean

    @classmethod
    def constant(cls, n_vars: int, value: Coefficient) -> "MonomialMap":
        return cls(n_vars, {(0,) * n_vars: value})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MonomialMap):
            return self.n_vars == other.n_vars and self.terms == other.terms
        return NotImplemented

    def __repr__(self) -> str:
        items = sorted(self.terms)
        return f"MonomialMap({self.n_vars}, {{{', '.join(f'{e}: {self.terms[e]}' for e in items)}}})"


def _alternant(exponents: Tuple[int, ...], n: int) -> MonomialMap:
    """det[x_i ** exponents[j]] over rows i = variables, columns j.  Every
    caller passes strictly decreasing exponents, so no two permutations give
    the same monomial."""
    terms: Dict[Tuple[int, ...], int] = {}
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        terms[tuple(exponents[p] for p in perm)] = -1 if inv % 2 else 1
    return MonomialMap(n, terms)


def vandermonde(n: int) -> MonomialMap:
    """prod_{i<j} (x_i - x_j), expanded: det[x_i ** (n - j)]."""
    return _alternant(tuple(n - 1 - j for j in range(n)), n)


def _key(exps: Iterable[int]) -> int:
    """The oracle's key of a monomial: its exponents as the bytes of one int,
    the first variable in the highest byte; ValueError unless each is < 256."""
    return int.from_bytes(bytes(exps), "big")


Keyed = Iterable[Tuple[int, Coefficient]]


def _key_product(left: Keyed, right: Keyed) -> Dict[int, Coefficient]:
    """The product of two maps given as (key, coefficient) pairs, whose sums of
    exponents stay below 256: one pass over right per term of left."""
    out: Dict[int, Coefficient] = {}
    get = out.get
    for ka, ca in left:
        for kb, cb in right:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


@lru_cache(maxsize=None)
def _vandermonde_squared(n: int) -> Tuple[Tuple[int, int], ...]:
    """The squared Vandermonde in n variables as (key, coefficient) pairs: the
    N!**2 pairwise sums of the alternant's keys, whose exponents are < 2n."""
    v = [(_key(e), c) for e, c in vandermonde(n).terms.items()]
    return tuple((k, c) for k, c in _key_product(v, v).items() if c)


def schur_monomials(kappa: Partition, n_vars: int) -> MonomialMap:
    """The Schur polynomial s_kappa in n_vars variables, fully expanded.

    Computed by the branching rule (Macdonald, Symmetric Functions, I.5):
    s_lam(x_1..x_n) = sum_mu s_mu(x_1..x_{n-1}) x_n**(|lam| - |mu|) over the mu
    of length <= n - 1 that interlace lam, lam_{i+1} <= mu_i <= lam_i.  The
    expansions of the mu are memoised for this call only.
    """
    _check_length(kappa, n_vars)
    lam = tuple(kappa.part(j) for j in range(n_vars))
    return MonomialMap(n_vars, _branch(lam, {(): {(): 1}}, n_vars))


def _branch(
    lam: Tuple[int, ...], memo: Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]], n_vars: int
) -> Dict[Tuple[int, ...], int]:
    """The monomials of s_lam in len(lam) variables, lam padded with zeros to
    that length, so mu has one slot fewer than lam and the length bound of the
    branching rule is the range of the slots.  memo keeps the expansions in
    n_vars - 2 or fewer variables; each one in n_vars - 1 variables is used once."""
    out = memo.get(lam)
    if out is None:
        out = {}
        weight = sum(lam)
        for mu in product(*(range(b, a + 1) for a, b in zip(lam, lam[1:]))):
            last = (weight - sum(mu),)
            for e, c in _branch(mu, memo, n_vars).items():
                key = e + last
                out[key] = out.get(key, 0) + c
        if len(lam) < n_vars - 1:
            memo[lam] = out
    return out


class SchurVector:
    """A symmetric polynomial in a fixed number of variables, Schur basis."""

    __slots__ = ("entries", "n_vars")

    def __init__(self, entries: Dict[Partition, Scalar], n_vars: int):
        self.n_vars = n_vars
        clean = {}
        for p, c in entries.items():
            _check_length(p, n_vars)
            if not c.is_zero:
                clean[p] = c
        self.entries = clean

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SchurVector):
            return self.n_vars == other.n_vars and self.entries == other.entries
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"({p}): {c}" for p, c in sorted(self.entries.items()))
        return f"SchurVector({{{body}}}, n_vars={self.n_vars})"


# a polynomial family is any generator of monic degree-n univariate polynomials
PolyFamily = Callable[[int], XPoly]
CoefficientFn = Callable[[int, int], Scalar]  # coefficient(n, e) = [x**e] f_n of a monic family


@lru_cache(maxsize=None)
def binomial_family(n: int) -> XPoly:
    """(x + 1)**n."""
    return (XPoly.x_power(1) + XPoly.one()) ** n


def _family_coefficients(fam: PolyFamily, kappa: Partition, n_vars: int) -> CoefficientFn:
    """The coefficients of fam's columns of F_kappa, each checked monic of its degree."""
    _check_length(kappa, n_vars)
    polys = {}
    for col in range(n_vars):
        deg = kappa.part(col) + n_vars - 1 - col
        f = fam(deg)
        if f.degree != deg or not f.is_monic:
            raise ValueError(f"family generator must be monic of degree {deg}")
        polys[deg] = f
    return lambda n, e: polys[n].coefficient(e)


def det(matrix: List[List[Scalar]]) -> Scalar:
    """Determinant of a Scalar matrix by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError(f"det needs a square matrix, got row lengths {[len(r) for r in matrix]}")
    if n == 0:
        return ONE
    m = [list(row) for row in matrix]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return ZERO
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) / prev
            m[i][k] = ZERO
        prev = pivot
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def _coefficient_minor(
    coefficient: CoefficientFn, n_vars: int, kappa: Partition, lam: Partition
) -> Scalar:
    """The s_lambda coefficient of F_kappa for lambda inside kappa: det C with
    C[j][l] = coefficient(kappa_l + N - 1 - l, lambda_j + N - 1 - j).  A column
    l >= len(kappa) is monic of degree N - 1 - l, so it is zero above row l and
    1 on row l; C is block lower triangular with a unit block, and det C is its
    leading len(kappa) x len(kappa) minor, the only part read here."""
    _check_length(kappa, n_vars)
    size = range(kappa.length)
    degrees = [kappa.part(col) + n_vars - 1 - col for col in size]
    exponents = [lam.part(row) + n_vars - 1 - row for row in size]
    return det([[coefficient(n, e) for n in degrees] for e in exponents])


def family_expand(fam: PolyFamily, kappa: Partition, n_vars: int) -> SchurVector:
    """Expand the family determinant F_kappa in Schur polynomials.

    The coefficient of s_lambda is the determinant of univariate coefficients
    C[j][l] = [x**(lambda_j + N - j)] fam(kappa_l + N - l); only lambda with
    diagram inside kappa can appear and the leading coefficient is 1.
    """
    coefficient = _family_coefficients(fam, kappa, n_vars)
    entries: Dict[Partition, Scalar] = {}
    for lam in kappa.subdiagrams():
        d = _coefficient_minor(coefficient, n_vars, kappa, lam)
        if not d.is_zero:
            entries[lam] = d
    return SchurVector(entries, n_vars)


@lru_cache(maxsize=None)
def sigma_at_zero(kappa: Partition, n_vars: int) -> Scalar:
    """The empty-partition coefficient of the shadow family expansion of kappa:
    the minor of shadow coefficients, read from their closed form."""
    return _coefficient_minor(_shadow_coefficient, n_vars, kappa, Partition())


def power_sum_vector(m: int, n_vars: int) -> SchurVector:
    """p_{2m} as a SchurVector in n_vars variables: the signed hooks
    (-1)**i s_(2m - i, 1^i) that fit, entered in order of i."""
    if m < 1:
        raise ValueError("power_sum_vector needs m >= 1")
    entries = {
        hook_partition(2 * m - i, i): -ONE if i % 2 else ONE for i in range(min(2 * m, n_vars))
    }
    return SchurVector(entries, n_vars)


def power_sum_monomials(m: int, n_vars: int) -> MonomialMap:
    """p_{2m} = sum_i x_i**(2m) as a MonomialMap."""
    if m < 1:
        raise ValueError("power_sum_monomials needs m >= 1")
    terms = {}
    for i in range(n_vars):
        e = [0] * n_vars
        e[i] = 2 * m
        terms[tuple(e)] = 1
    return MonomialMap(n_vars, terms)


Moments = Callable[[int], Scalar]


def _fold(terms: Dict, signature: Callable) -> Dict:
    """The coefficients of terms summed over each signature of their keys."""
    groups: Dict = {}
    for k, c in terms.items():
        sig = signature(k)
        groups[sig] = groups.get(sig, 0) + c
    return groups


def apply_M0(f: MonomialMap, moments: Moments) -> Scalar:
    """Apply a univariate functional coordinatewise: x**e_1 ... x**e_N maps to
    the product of moments(e_i).  Monomials are grouped by sorted exponent
    signature so each product is computed once; an integer group sum enters
    Q(q) when it is multiplied by the first moment."""
    return _apply_folded(_fold(f.terms, lambda e: tuple(sorted(e))), moments)


def _apply_folded(groups: Dict[Iterable[int], Coefficient], moments: Moments) -> Scalar:
    """apply_M0 of the monomials with these sorted exponent signatures."""
    total = ZERO
    for sig, c in groups.items():
        prod = c
        for e in sig:
            if not prod:
                break
            prod = prod * moments(e)
        if prod:
            total = total + prod
    return total


def apply_M2(f: MonomialMap, moments: Moments) -> Scalar:
    """The definitional brute-force integral M0(f * Vandermonde**2): the product
    is fully expanded and the functional applied coordinatewise.

    f is first folded onto sorted exponent signatures, which is exact for any
    f, symmetric or not.  M0 is symmetric, M0(x**(s e)) = M0(x**e) for every
    permutation s of the variables, and so is the squared Vandermonde V2; hence
    M0(x**(s e) V2) = M0(s(x**e V2)) = M0(x**e V2), and by linearity M0(f V2)
    depends only on the sum of f's coefficients over each signature.  The
    product runs on keys (`_key`), which refuse a negative exponent."""
    n = f.n_vars
    check_oracle_size(n, f.total_degree)
    rows = _fold(f.terms, lambda e: _key(sorted(e))).items()
    product = _key_product([r for r in rows if r[1]], _vandermonde_squared(n))
    return _apply_folded(_fold(product, lambda k: bytes(sorted(k.to_bytes(n, "big")))), moments)


def check_oracle_size(n_vars: int, degree: int) -> None:
    """Raise SizeError unless apply_M2 may expand a polynomial of this total
    degree in n_vars variables; cheap enough to run before building it."""
    if n_vars > ORACLE_MAX_VARS:
        raise SizeError(f"oracle limited to {ORACLE_MAX_VARS} variables, got {n_vars}")
    degree += n_vars * (n_vars - 1)
    if degree > ORACLE_MAX_DEGREE:
        raise SizeError(
            f"oracle limited to total degree {ORACLE_MAX_DEGREE}, got {degree}"
        )


def generalized_binomial(lam: Partition, kappa: Partition, n_vars: int) -> Scalar:
    """The kappa-coefficient of the (x+1)**n family expansion of lambda."""
    coefficient = _family_coefficients(binomial_family, lam, n_vars)
    return _coefficient_minor(coefficient, n_vars, lam, kappa) if lam.contains(kappa) else ZERO
