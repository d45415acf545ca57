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
    alternant is built once per N in keys, and the squared Vandermonde once
    per N and parity class of its exponents.  When the functional is zero at
    every odd exponent the product can hold, as the Gaussian one is, a row of
    the folded integrand meets only the class of its own parity; otherwise it
    meets every class.

Determinants split into the connected components of their nonzero pattern
(`det`).  The shadow and q-Hermite coefficient matrices are checkerboards, so
each elimination runs on two blocks of about half the order.

Determinant orientation is fixed once and for all: in every alternant the
row index is the variable and column j carries exponent kappa_j + N - j
(so the Vandermonde uses N - j).  With this choice the shifted alternant is
s_kappa times the Vandermonde, with s_emptyset = 1 and nonnegative integer
Schur coefficients.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import permutations, product
from operator import mul
from typing import Callable, Dict, Iterable, Iterator, List, Tuple, Union

from .exactq import ONE, ZERO, Scalar, _operand, _trimmed
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


def _key_product(factors: Iterable[Tuple[int, Coefficient, Keyed]]) -> Dict[int, Coefficient]:
    """The sum of the products c * x**k * right over the factors (k, c, right),
    whose sums of exponents stay below 256: one pass over right per factor."""
    out: Dict[int, Coefficient] = {}
    get = out.get
    for ka, ca, right in factors:
        for kb, cb in right:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _parity(n: int) -> int:
    """The mask of each key's lowest bit per byte: k & _parity(n) is the key of
    the exponents of k taken mod 2."""
    return _key([1] * n)


@lru_cache(maxsize=None)
def _alternant_keys(n: int) -> Dict[int, Tuple[Tuple[int, int], ...]]:
    """The Vandermonde in n variables as (key, coefficient) pairs, by parity."""
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for e, c in vandermonde(n).terms.items():
        k = _key(e)
        groups.setdefault(k & _parity(n), []).append((k, c))
    return {p: tuple(terms) for p, terms in groups.items()}


@lru_cache(maxsize=None)
def _vandermonde_squared(n: int, parity: int) -> Tuple[Tuple[int, int], ...]:
    """The terms of the squared Vandermonde in n variables whose exponents have
    this parity, as (key, coefficient) pairs: the pair sums of alternant keys
    whose parities differ by it.  Keys add without carry (exponents < 2n), so
    the parity of ka + kb is (ka & P) ^ (kb & P), P = _parity(n)."""
    groups = _alternant_keys(n)
    mask = _parity(n)
    terms = _key_product(
        (k, c, groups.get((k & mask) ^ parity, ())) for part in groups.values() for k, c in part
    )
    return tuple((k, c) for k, c in terms.items() if c)


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
    """Determinant of a Scalar matrix: the fraction-free (Bareiss) dets of the
    blocks of its nonzero pattern, times the sign of the block permutations.

    The components of the nonzero pattern (`_components`) hold every row, at
    most n columns, and each nonzero entry in the rows and columns of one
    component.  Unless every component is square, one has more rows than
    columns; its rows are zero outside fewer columns than rows, so they are
    dependent and det = 0.  If every component is square, list the rows
    component by component (the permutation s) and the columns likewise (t):
    the matrix reordered so is block diagonal, hence det = sgn(s) sgn(t) times
    the product of the blocks' dets.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError(f"det needs a square matrix, got row lengths {[len(r) for r in matrix]}")
    blocks = _components(matrix)
    return _block_det(blocks, (list(_bareiss(_cut(matrix, *block), n))[-1] for block in blocks))


def _block_det(groups: List[Tuple[List[int], List[int]]], dets: Iterable[Scalar]) -> Scalar:
    """The det of a matrix whose nonzero entries each lie in the rows and columns
    of one of these groups, which hold every row: ZERO unless each group is
    square, else sgn(s) sgn(t) times the product of dets, the dets of the
    groups' blocks in turn, which are then read (see `det`)."""
    if any(len(rows) != len(cols) for rows, cols in groups):
        return ZERO
    value = reduce(mul, dets, ONE)
    rows = [i for block, _ in groups for i in block]
    cols = [j for _, block in groups for j in block]
    return -value if _odd(rows) != _odd(cols) else value


def _cut(matrix: List[List[Scalar]], rows: List[int], cols: List[int]) -> List[List[Scalar]]:
    """A new matrix of the entries of matrix in these rows and columns."""
    return [[matrix[i][j] for j in cols] for i in rows]


def _components(matrix: List[List[Scalar]]) -> List[Tuple[List[int], List[int]]]:
    """The connected components of the nonzero pattern of a square matrix, with
    rows and columns as nodes, as (rows, columns), each ascending, in order of
    their first rows.  A zero row is a component with no column; a zero column
    is in none."""
    n = len(matrix)
    by_row = [[j for j, x in enumerate(row) if not x.is_zero] for row in matrix]
    by_col: List[List[int]] = [[] for _ in range(n)]
    for i, cols in enumerate(by_row):
        for j in cols:
            by_col[j].append(i)
    row_seen, col_seen = [False] * n, [False] * n
    out = []
    for start in range(n):
        if row_seen[start]:
            continue
        row_seen[start] = True
        rows, cols = [start], []
        for i in rows:  # rows grows while it is read
            for j in by_row[i]:
                if not col_seen[j]:
                    col_seen[j] = True
                    cols.append(j)
                    for r in by_col[j]:
                        if not row_seen[r]:
                            row_seen[r] = True
                            rows.append(r)
        out.append((sorted(rows), sorted(cols)))
    return out


def _odd(order: List[int]) -> bool:
    """Whether a permutation, listed as the images of 0, 1, ..., is odd."""
    return sum(a > b for i, a in enumerate(order) for b in order[i + 1 :]) % 2 == 1


def _bareiss(m: List[List[Scalar]], reach: int) -> Iterator[Scalar]:
    """Fraction-free (Bareiss) elimination of the square matrix m, in place.

    Step k yields sign * m[k][k], the det of the leading (k + 1)-block of m with
    its rows as swapped so far (Sylvester's identity: each step leaves below and
    right of its pivot the minors of the leading block bordered by one row and
    one column, divided exactly by the pivot before).  A zero pivot is then
    swapped with the first of the next `reach` rows that is nonzero in column k;
    with none, the elimination stops.  The last value yielded is det m.
    """
    n = len(m)
    sign = 1
    prev = ONE
    for k in range(n):
        pivot = m[k][k]
        yield -pivot if sign < 0 else pivot
        if pivot.is_zero:
            i = next((i for i in range(k + 1, min(n, k + 1 + reach)) if not m[i][k].is_zero), None)
            if i is None:
                return
            m[k], m[i] = m[i], m[k]
            sign = -sign
            pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) / prev
            m[i][k] = ZERO
        prev = pivot


def _leading_minors(matrix: List[List[Scalar]]) -> List[Scalar]:
    """The leading principal minors of a square matrix, of orders 1 to n.

    The leading k-block holds each of its nonzero entries in the rows and
    columns below k of one component of the whole pattern (`_components`), and
    those rows and columns begin their component, so `_block_det` gives minor k
    from each component's leading minor of order r, its number of rows below k.
    A component's minors come from one elimination: only row j + 1 may replace
    a zero pivot j, which leaves the row set of every larger leading block as it
    was, so each step still yields a leading minor of the component.  When row
    j + 1 cannot, the larger minors are the dets of their blocks."""
    blocks = _components(matrix)
    minors = []
    for rows, cols in blocks:
        size = min(len(rows), len(cols))
        block = _cut(matrix, rows[:size], cols[:size])
        found = [ONE, *_bareiss([list(row) for row in block], 1)]
        found += [det([row[:j] for row in block[:j]]) for j in range(len(found), size + 1)]
        minors.append(found)
    out = []
    for k in range(1, len(matrix) + 1):
        cuts = [([i for i in rows if i < k], [j for j in cols if j < k]) for rows, cols in blocks]
        out.append(_block_det(cuts, (found[len(r)] for (r, _), found in zip(cuts, minors))))
    return out


def _coefficient_matrix(
    coefficient: CoefficientFn, n_vars: int, kappa: Partition, lam: Partition
) -> List[List[Scalar]]:
    """The matrix whose det is the s_lambda coefficient of F_kappa, for lambda
    inside kappa: the full matrix is C[j][l] = coefficient(kappa_l + N - 1 - l,
    lambda_j + N - 1 - j).  A column l >= len(kappa) is monic of degree
    N - 1 - l, so it is zero above row l and 1 on row l; C is block lower
    triangular with a unit block, and det C is the det of its leading
    len(kappa) x len(kappa) block, the only part built here."""
    _check_length(kappa, n_vars)
    size = range(kappa.length)
    degrees = [kappa.part(col) + n_vars - 1 - col for col in size]
    exponents = [lam.part(row) + n_vars - 1 - row for row in size]
    return [[coefficient(n, e) for n in degrees] for e in exponents]


def family_expand(fam: PolyFamily, kappa: Partition, n_vars: int) -> SchurVector:
    """Expand the family determinant F_kappa in Schur polynomials.

    The coefficient of s_lambda is the determinant of univariate coefficients
    C[j][l] = [x**(lambda_j + N - j)] fam(kappa_l + N - l); only lambda with
    diagram inside kappa can appear and the leading coefficient is 1.
    """
    coefficient = _family_coefficients(fam, kappa, n_vars)
    entries: Dict[Partition, Scalar] = {}
    for lam in kappa.subdiagrams():
        d = det(_coefficient_matrix(coefficient, n_vars, kappa, lam))
        if not d.is_zero:
            entries[lam] = d
    return SchurVector(entries, n_vars)


@lru_cache(maxsize=None)
def sigma_at_zero(kappa: Partition, n_vars: int) -> Scalar:
    """The empty-partition coefficient of the shadow family expansion of kappa:
    the minor of shadow coefficients, read from their closed form."""
    return det(_coefficient_matrix(_shadow_coefficient, n_vars, kappa, Partition()))


def _hook_sigmas_at_zero(ell: int, n_vars: int) -> List[Scalar]:
    """sigma_at_zero(hook_partition(ell + 1, i), n_vars) for i < n_vars.  The
    matrix of each hook is the leading (i + 1)-block of the matrix for
    i = n_vars - 1, so one elimination gives every value."""
    kappa = hook_partition(ell + 1, n_vars - 1)
    return _leading_minors(_coefficient_matrix(_shadow_coefficient, n_vars, kappa, Partition()))


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
    signature so each product is computed once; a group sum, as a Scalar, is
    the first factor of one forward product with the moments."""
    return _apply_folded(_fold(f.terms, lambda e: tuple(sorted(e))), moments)


def _apply_folded(groups: Dict[Iterable[int], Coefficient], moments: Moments) -> Scalar:
    """apply_M0 of the monomials with these sorted exponent signatures."""
    return sum(
        (reduce(mul, map(moments, sig), _operand(c)) for sig, c in groups.items() if c), ZERO
    )


def apply_M2(f: MonomialMap, moments: Moments) -> Scalar:
    """The definitional brute-force integral M0(f * Vandermonde**2): the product
    is fully expanded and the functional applied coordinatewise.

    f is first folded onto sorted exponent signatures, which is exact for any
    f, symmetric or not.  M0 is symmetric, M0(x**(s e)) = M0(x**e) for every
    permutation s of the variables, and so is the squared Vandermonde V2; hence
    M0(x**(s e) V2) = M0(s(x**e V2)) = M0(x**e V2), and by linearity M0(f V2)
    depends only on the sum of f's coefficients over each signature.  The
    product runs on keys (`_key`), which refuse a negative exponent.

    Each folded row meets V2 one parity class at a time (`_vandermonde_squared`).
    Keys add byte by byte with no carry, since the guardrail keeps every
    exponent below 256, so the product of a row of parity p with the class of
    parity r has exponents of parity p ^ r.  No exponent of the product exceeds
    top = f.total_degree + 2(N - 1).  If moments(e) is zero at every odd e <= top,
    a term with an odd exponent e has the factor moments(e) = 0, so only the
    class r = p adds anything and each row meets that class alone; otherwise
    each row meets every class."""
    n = f.n_vars
    check_oracle_size(n, f.total_degree)
    top = f.total_degree + 2 * (n - 1)
    even = not any(moments(e) for e in range(1, top + 1, 2))
    groups = _alternant_keys(n)
    classes = {a ^ b for a in groups for b in groups}
    mask = _parity(n)
    rows = _fold(f.terms, lambda e: _key(sorted(e))).items()
    product = _key_product(
        (k, c, _vandermonde_squared(n, r))
        for k, c in rows
        if c
        for r in classes
        if not even or r == k & mask
    )
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
    if not lam.contains(kappa):
        return ZERO
    return det(_coefficient_matrix(coefficient, n_vars, lam, kappa))
