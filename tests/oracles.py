"""Independent brute-force oracles shared by the test modules.

Nothing here reuses the library's determinant, operator or path-count
routes: Schur polynomials come from tableau enumeration, multivariate
determinants from explicit permutation expansion, map counts from first
principles (every gluing of the polygon enumerated and its vertices
scanned), polynomial gcds from Euclid's algorithm over Q, and Gaussian
moments from the operator series telescoped one degree at a time.  The
Gaussian operators themselves come from `operator_series`, their defining
power series in D_q^2/(1+q), which the library's combinations of the
Hermite and shadow families replace; it shares no family with them.
Multivariate products work on exponent tuples, the representation the
library packs away.  One-variable moments L(x**(2m) H_s**2) come from the
product H_s * H_s under the functional L, the definition that the library's
weighted path count on the Hermite Jacobi matrix replaces; this route shares
only `hermite` and `functional_L` with the library.  The cleared duality
sums take every term e_j E_(d-j) [d]! as its own product, the direct loop
that the library's products (e_j [j]!) (E_(d-j) [d-j]!) [d over j] replace.  The printed
p_2m and Theorem 5 sums keep their prefactor outside the sum, as printed,
where the library sums the printed sigma_{m,t} term.  The printed hook
integral is its own product, as printed, where the library's three hook
forms read one hook term.  q-factorials and M_q
are plain products of q-integers, the definition that the library's one
q-ratio step replaces.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd, lcm, prod

from qgue import (
    ONE,
    ZERO,
    MonomialMap,
    QPolynomial,
    Scalar,
    XPoly,
    functional_L,
    hermite,
    m_q,
    q_binomial,
    q_factorial,
    q_integer,
    series_coefficient,
)


def double_factorial(n: int) -> int:
    return prod(range(n, 0, -2)) if n > 0 else 1


def q_integer_product(factors, squared=False) -> QPolynomial:
    """prod [i]_q over the factors i (or [i]_{q^2} with the squared flag), one product each."""
    out = QPolynomial.one()
    for i in factors:
        out = out * q_integer(i, squared).num
    return out


def telescoped_even_moments(k_max):
    """[L(x**(2k)) for k = 0..k_max], telescoped from the inverse Gaussian operator.

    With T = D_q^2/(1+q), T x**n = [n]_q [n-1]_q / [2]_q x**(n-2), and the
    inverse operator is sum_j T**j / [j]!_{q^2}.  Only j = k sends x**(2k) to
    x**0, and consecutive coefficients differ by the factor 1/[k]_{q^2}, so
    mu_k = mu_{k-1} [2k]_q [2k-1]_q / ([2]_q [k]_{q^2}) with mu_0 = 1.
    """
    mu = [ONE]
    for k in range(1, k_max + 1):
        step = q_integer(2 * k) * q_integer(2 * k - 1) / q_integer(2)
        mu.append(mu[-1] * step / q_integer(k, squared=True))
    return mu


@lru_cache(maxsize=None)
def _drop2_factor(n: int) -> Scalar:
    # [n+2]_q [n+1]_q / (1+q); one of the two numerator factors is even-indexed,
    # so the quotient is again a polynomial
    return q_integer(n + 2) * q_integer(n + 1) / q_integer(2)


def _half_second_derivative(p: XPoly) -> XPoly:
    """Apply D_q^2/(1+q)."""
    return XPoly(tuple(p.coeffs[n + 2] * _drop2_factor(n) for n in range(len(p.coeffs) - 2)))


def operator_series(p: XPoly, direction: str = "forward") -> XPoly:
    """Apply E(-D_q^2/(1+q), q^2) (forward) or e(D_q^2/(1+q), q^2) (inverse).

    The series terminates after deg(p)//2 applications of D_q^2, so this is a
    finite exact computation.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    which = "E" if direction == "forward" else "e"
    total = p
    v = p
    k = 0
    while True:
        k += 1
        v = _half_second_derivative(v)
        if v.is_zero:
            break
        c = series_coefficient(k, which, squared=True)
        if direction == "forward" and k % 2:
            c = -c
        total = total + v.scale(c)
    return total


def cleared_duality_sum(d, squared, coefficient=series_coefficient):
    """sum_j (-1)**(d-j) e_j E_(d-j) [d]!, each term its own product, for every j.

    `coefficient(k, which, squared)` gives e_k and E_k; by default the
    library's `series_coefficient`.
    """
    factor = q_factorial(d, squared)
    total = ZERO
    for j in range(d + 1):
        t = coefficient(j, "e", squared) * coefficient(d - j, "E", squared) * factor
        total = total - t if (d - j) % 2 else total + t
    return total


def printed_hook(ell, m, N):
    """The printed hook integral of (ell+1, 1^(2m-ell-1)), verbatim.

    Past the hook, at ell >= 2m, [m-1 over ell//2]_{q^2} is zero and so is the form.
    """
    f = ell // 2
    value = (
        Scalar.q_power((m - f - 1) * (m - f - 2))
        * q_binomial(N + ell, 2 * m)
        * q_binomial(m - 1, f, squared=True)
        * m_q(2 * m - 1)
    )
    return -value if (m - f) % 2 else value


def printed_p2m(m, N):
    """The printed p_2m closed form, its prefactor outside the sum over t."""
    total = ZERO
    for t in range(m + 1):
        term = (
            Scalar.q_power(t * t + (5 - 2 * m) * t)
            * q_binomial(m - 1, t, squared=True)
            * q_binomial(N + 2 * t, 2 * m - 1)
        )
        total = total + (term if (m - t + 1) % 2 == 0 else -term)
    return m_q(2 * m - 1) * Scalar.q_power(N + m * m - 5 * m + 3) * total


def printed_theorem5_rhs(m, s):
    """The printed Theorem 5 right-hand side, its prefactor outside the sum over t.

    A term with a zero binomial is skipped before its denominator is formed.
    """
    total = ZERO
    for t in range(m + 1):
        b1 = q_binomial(m - 1, t, squared=True)
        b2 = q_binomial(s + 2 * t, 2 * m - 1)
        if b1.is_zero or b2.is_zero:
            continue
        paren = (
            Scalar.q_power(1)
            * (ONE - Scalar.q_power(s + 1 - 2 * t))
            / (ONE - Scalar.q_power(s + 2 + 2 * t - m))
            - ONE
        )
        term = Scalar.q_power(t * t + (5 - 2 * m) * t + s) * b1 * b2 * paren
        total = total + (term if (m - t + 1) % 2 == 0 else -term)
    return m_q(2 * m - 1) * Scalar.q_power(m * m - 5 * m + 3) * total


@lru_cache(maxsize=None)
def _hermite_square(s):
    hs = hermite(s)
    return hs * hs


@lru_cache(maxsize=None)
def hermite_squared_by_product(m, s):
    """L(x**(2m) H_s**2) from the XPoly product H_s * H_s."""
    return functional_L(_hermite_square(s).shifted(2 * m))


def pairing_genus_counts_by_matchings(m):
    """One-face gluings of a 2m-gon by genus: every perfect matching of the
    edges from a generator chain, then the cycles of sigma(v + 1) by a scan."""
    n = 2 * m
    counts = {}

    def matchings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for i, other in enumerate(rest):
            for tail in matchings(rest[:i] + rest[i + 1 :]):
                yield [(first, other)] + tail

    for pairing in matchings(tuple(range(n))):
        sigma = [0] * n
        for a, b in pairing:
            sigma[a] = b
            sigma[b] = a
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if not seen[start]:
                cycles += 1
                v = start
                while not seen[v]:
                    seen[v] = True
                    v = sigma[(v + 1) % n]
        g, rem = divmod(m + 1 - cycles, 2)
        assert not rem, "odd Euler characteristic"
        counts[g] = counts.get(g, 0) + 1
    return counts


def ssyt_schur(parts, n_vars):
    """Schur polynomial by enumerating semistandard Young tableaux.

    Rows weakly increase, columns strictly increase, entries in 1..n_vars.
    Returns a map from exponent tuple to integer coefficient.
    """
    parts = tuple(parts)
    rows = len(parts)
    out = {}

    def fill(r, c, tableau):
        if r == rows:
            weight = [0] * n_vars
            for row in tableau:
                for v in row:
                    weight[v - 1] += 1
            key = tuple(weight)
            out[key] = out.get(key, 0) + 1
            return
        if c == parts[r]:
            fill(r + 1, 0, tableau)
            return
        lo = 1
        if c > 0:
            lo = max(lo, tableau[r][c - 1])
        if r > 0:
            lo = max(lo, tableau[r - 1][c] + 1)
        for v in range(lo, n_vars + 1):
            tableau[r].append(v)
            fill(r, c + 1, tableau)
            tableau[r].pop()

    fill(0, 0, [[] for _ in range(rows)])
    return out


def tuple_product(f: MonomialMap, g: MonomialMap) -> MonomialMap:
    """f * g by adding exponent tuples term by term."""
    out = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return MonomialMap(f.n_vars, out)


def vandermonde_squared(n_vars: int) -> MonomialMap:
    """prod_{i<j} (x_i - x_j)**2, multiplied out factor by factor."""
    out = MonomialMap.constant(n_vars, 1)
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            xi = tuple(int(k == i) for k in range(n_vars))
            xj = tuple(int(k == j) for k in range(n_vars))
            factor = MonomialMap(n_vars, {xi: 1, xj: -1})
            out = tuple_product(tuple_product(out, factor), factor)
    return out


def univariate_to_monomials(p: XPoly, var: int, n_vars: int) -> MonomialMap:
    """Embed a univariate polynomial as a MonomialMap in variable `var`."""
    terms = {}
    for k, c in enumerate(p.coeffs):
        if not c.is_zero:
            e = [0] * n_vars
            e[var] = k
            terms[tuple(e)] = c
    return MonomialMap(n_vars, terms)


def family_alternant(polys, n_vars) -> MonomialMap:
    """det[polys[j](x_i)] expanded into monomials by permutation sum."""
    total = {}
    for perm in permutations(range(n_vars)):
        inv = sum(
            1
            for i in range(n_vars)
            for j in range(i + 1, n_vars)
            if perm[i] > perm[j]
        )
        prod_map = MonomialMap.constant(n_vars, ONE if inv % 2 == 0 else -ONE)
        for i in range(n_vars):
            prod_map = tuple_product(prod_map, univariate_to_monomials(polys[perm[i]], i, n_vars))
        for e, c in prod_map.terms.items():
            total[e] = total.get(e, 0) + c
    return MonomialMap(n_vars, total)


def euclid_gcd(a, b):
    """gcd of two integer coefficient lists (ascending) by Euclid over Q.

    The last nonzero remainder is scaled to a primitive integer list with
    positive leading coefficient; the gcd of two zero lists is [].
    """

    def trim(cs):
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    a = trim([Fraction(c) for c in a])
    b = trim([Fraction(c) for c in b])
    while b:
        r = a[:]
        while len(r) >= len(b):
            c, shift = r[-1] / b[-1], len(r) - len(b)
            for j, cb in enumerate(b):
                r[shift + j] -= c * cb
            trim(r)
        a, b = b, r
    if not a:
        return []
    den = lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    g = 0
    for c in ints:
        g = gcd(g, c)
    g = g if ints[-1] > 0 else -g
    return [c // g for c in ints]
