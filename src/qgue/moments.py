"""Moment engine for the q-deformed unitary-invariant Gaussian ensemble.

The normalized multivariate integral of a symmetric polynomial f is
L2(f) / L2(1), where L2 is the coordinatewise Gaussian functional applied
after multiplying by the squared Vandermonde factor.  Two routes compute
it: the monomial oracle (definitional) and the shadow-determinant fast
path, and Theorem-style closed formulas are transcribed verbatim so the
verification harness can compare them against the oracle.

The one-variable moments L(x**k H_s H_t) are weighted path counts on the
Jacobi matrix of the q-Hermite recurrence x H_t = H_{t+1} + b_t H_{t-1},
with b_t = q**(t-1) [t]_q (Flajolet's continued-fraction combinatorics).
If x**k H_s = sum_t c_k(t) H_t, then c_0 = e_s and
c_{k+1}(t) = c_k(t-1) + b_{t+1} c_k(t+1): c_k(t) sums, over the paths of k
up and down steps from height s to height t, the product of b_{u+1} over
the down steps from u+1 to u.  By orthogonality L(x**(2m) H_s**2) =
c_{2m}(s) h_s with h_s = L(H_s**2) = q**(s(s-1)/2) [s]!.  The walk (`_walk`)
runs on plain int tuples: every c_k(t) lies in N[q], and multiplying by b_t
is a sliding sum of t coefficients, so no product, division or gcd occurs.
Each reader takes c_{2m}(s) directly, and only `hermite_squared_moment`
multiplies it by h_s.

The genus tables at q = 1 are checked against the (2m-1)!! gluings of a
2m-gon (`pairing_genus_counts`), whose vertices are counted as edges pair.

The closed-form evaluators (`hook_moment_closed_form`, `sigma_closed_form`,
`p2m_closed_form`, `theorem5_rhs`, `qhz_rhs`) reproduce printed formulas
exactly as printed, known defects included.  The printed hook term is written
once, in `qxpoly._hook_term`; sigma_{m,t} is the hook pair (2t, 2t+1) collapsed
by q-Pascal, and p_2m and Theorem 5 sum it.  Verdicts live in `qgue.verify`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from operator import sub
from typing import Dict, List, NamedTuple, Tuple

from .exactq import (
    ONE,
    ZERO,
    QPolynomial,
    Scalar,
    _plus,
    evaluate_at,
    m_q,
    q_binomial,
    q_factorial,
    q_integer,
)
from .qxpoly import XPoly, _hook_term, gaussian_moment
from .symschur import (
    MonomialMap,
    Partition,
    SchurVector,
    SizeError,
    apply_M2,
    check_oracle_size,
    power_sum_monomials,
    power_sum_vector,
    schur_monomials,
    sigma_at_zero,
)

__all__ = [
    "hermite_norm",
    "normalization",
    "integrate_schur",
    "integrate_symmetric",
    "integrate_power_sum",
    "level_density_moment",
    "hermite_squared_moment",
    "hook_moment_closed_form",
    "sigma_closed_form",
    "p2m_closed_form",
    "theorem5_rhs",
    "theorem5_lhs",
    "qhz_lhs",
    "qhz_rhs",
    "GenusRow",
    "pairing_genus_counts",
    "genus_table",
]

GENUS_MAX_M = 6


def hermite_norm(j: int) -> Scalar:
    """L(H_j**2) = q**(j(j-1)/2) [j]!, the product b_1 ... b_j of the recurrence weights."""
    return Scalar.q_power(j * (j - 1) // 2) * q_factorial(j)


@lru_cache(maxsize=None)
def normalization(N: int) -> Scalar:
    """Total mass L2(1) of the unnormalized N-variable integral."""
    if N < 1:
        raise ValueError("normalization needs N >= 1")
    return apply_M2(MonomialMap.constant(N, 1), gaussian_moment)


def _oracle_integral(f: MonomialMap) -> Scalar:
    """The definitional normalized integral L2(f) / L2(1)."""
    return apply_M2(f, gaussian_moment) / normalization(f.n_vars)


@lru_cache(maxsize=None)
def integrate_schur(kappa: Partition, N: int, method: str = "fast") -> Scalar:
    """Normalized integral of the Schur polynomial s_kappa over N variables."""
    if N < 1:
        raise ValueError("integrate_schur needs N >= 1")
    if method == "fast":
        return sigma_at_zero(kappa, N)
    if method == "oracle":
        check_oracle_size(N, kappa.weight)
        return _oracle_integral(schur_monomials(kappa, N))
    raise ValueError("method must be 'fast' or 'oracle'")


def integrate_symmetric(f: SchurVector) -> Scalar:
    """Linear extension of the fast Schur integral to a Schur-basis vector."""
    total = ZERO
    for p, c in f.entries.items():
        total = total + c * sigma_at_zero(p, f.n_vars)
    return total


def integrate_power_sum(m: int, N: int, method: str = "fast") -> Scalar:
    """Normalized integral of the power sum p_{2m} over N variables."""
    if N < 1:
        raise ValueError("integrate_power_sum needs N >= 1")
    if method == "fast":
        return integrate_symmetric(power_sum_vector(m, N))
    if method == "oracle":
        check_oracle_size(N, 2 * m)
        return _oracle_integral(power_sum_monomials(m, N))
    raise ValueError("method must be 'fast' or 'oracle'")


def level_density_moment(p: XPoly, N: int) -> Scalar:
    """Integral of p(x_1) + ... + p(x_N), as the sum of L(p H_j^2)/L(H_j^2) over j < N.

    H_j has the parity of j, so H_j^2 is even and L(x^(2k+1) H_j^2) = 0: only the even
    coefficients p_{2k} contribute, and L(x^(2k) H_j^2)/L(H_j^2) is the path count
    c_{2k}(j), so the integral is the sum of p_{2k} times the sum of c_{2k}(j) over j < N.
    """
    if N < 1:
        raise ValueError("level_density_moment needs N >= 1")
    even = [(k, c) for k, c in enumerate(p.coeffs[::2]) if c]
    if not even:
        return ZERO
    walks = [_walk(j, even[-1][0]) for j in range(N)]
    total = ZERO
    for k, c in even:
        total = total + c * Scalar(QPolynomial(reduce(_plus, (w[k] for w in walks))))
    return total


def _times_weight(c: Tuple[int, ...], t: int) -> Tuple[int, ...]:
    """c times b_t = q**(t-1) [t]_q (t >= 1): each coefficient sums a window of t of c's.

    With prefix[i] = c[0] + ... + c[i-1] and n = len(c), the coefficient of
    q**(t - 1 + i) is prefix[min(i + 1, n)] - prefix[max(i + 1 - t, 0)] for
    i < n + t - 1; the two lists subtracted below are those terms.
    """
    prefix = [0, *accumulate(c)]
    pad = [0] * (t - 1)
    return (*pad, *map(sub, prefix[1:] + prefix[-1:] * (t - 1), pad + prefix[:-1]))


@lru_cache(maxsize=None)
def _walk(s: int, M: int) -> Tuple[Tuple[int, ...], ...]:
    """(c_0(s), c_2(s), ..., c_2M(s)): the weighted paths from height s back to s.

    Each c is an ascending coefficient tuple in N[q], () for zero.  At step k a
    path still has to get back to s within 2M - k steps, so heights above
    s + min(k, 2M - k) never reach an answer and the vector stops there.
    """
    vec: List[Tuple[int, ...]] = [()] * s + [(1,)]
    out = [(1,)]
    for k in range(1, 2 * M + 1):
        top = s + min(k, 2 * M - k)
        nxt = []
        for t in range(top + 1):
            # an up step from t - 1 has weight 1, a down step from t + 1 weight b_(t+1)
            below = vec[t - 1] if t else ()
            above = vec[t + 1] if t + 1 < len(vec) else ()
            nxt.append(_plus(below, _times_weight(above, t + 1)) if above else below)
        vec = nxt
        if k % 2 == 0:
            out.append(vec[s])
    return tuple(out)


def qhz_lhs(m: int, s: int) -> Scalar:
    """The moment oracle under the normalization h_s: c_2m(s) = L(x**(2m) H_s**2) / L(H_s**2)."""
    if m < 0 or s < 0:
        raise ValueError("needs m, s >= 0")
    return Scalar(QPolynomial(_walk(s, m)[m]))


def hermite_squared_moment(m: int, s: int) -> Scalar:
    """L(x**(2m) H_s**2), the oracle side of the one-variable moment formulas."""
    return qhz_lhs(m, s) * hermite_norm(s)


# ---------------------------------------------------------------------------
# verbatim closed forms
# ---------------------------------------------------------------------------


def hook_moment_closed_form(ell: int, m: int, N: int) -> Scalar:
    """Printed integral of the hook (ell+1, 1^(2m-ell-1)): the hook term of [N+ell over 2m]_q."""
    if m < 1 or ell < 0 or 2 * m - ell - 1 < 0:
        raise ValueError("needs m >= 1 and 0 <= ell <= 2m - 1")
    return _hook_term(q_binomial(N + ell, 2 * m), m, ell // 2, "printed")


def sigma_closed_form(m: int, t: int, N: int) -> Scalar:
    """Printed integral of the hook-pair difference sigma_{m,t}, the term p_2m and Theorem 5 sum.

    It is the printed hook pair H(2t) - H(2t+1), collapsed by q-Pascal,
    [n over k] - [n+1 over k] = -q**(n+1-k) [n over k-1] at n = N+2t, k = 2m:
    the negated hook term of [N+2t over 2m-1]_q, its exponent raised by n+1-k.
    """
    if m < 1 or t < 0:
        raise ValueError("needs m >= 1 and t >= 0")
    binomial = q_binomial(N + 2 * t, 2 * m - 1)
    return _hook_term(binomial, m, t, "printed", N + 2 * t + 1 - 2 * m, negate=True)


def p2m_closed_form(m: int, N: int) -> Scalar:
    """Printed closed form for the integral of p_{2m}: the sum over t <= m of sigma_{m,t}.

    The printed prefactor M_q(2m-1) q**(N + m**2 - 5m + 3), moved into the sum of
    +-q**(t**2 + (5-2m)t) [m-1 over t]_{q^2} [N+2t over 2m-1]_q, gives sigma_{m,t}:
    (m-t-1)(m-t-2) + (N+2t+1-2m) = t**2 + (5-2m)t + N + m**2 - 5m + 3.
    """
    if m < 1:
        raise ValueError("needs m >= 1")
    return sum((sigma_closed_form(m, t, N) for t in range(m + 1)), ZERO)


def theorem5_rhs(m: int, s: int) -> Scalar:
    """Printed right-hand side of the telescoped single-H moment formula.

    With its prefactor M_q(2m-1) q**(m**2 - 5m + 3) moved into the sum as in
    `p2m_closed_form`, term t is sigma_{m,t} at N = s times
    q (1 - q**(s+1-2t)) / (1 - q**(s+2+2t-m)) - 1.  A term whose sigma is zero
    (only its binomials can vanish) is skipped before that denominator is
    formed, so no denominator is zero: if s+2+2t-m = 0 then s+2t = m-2 < 2m-1,
    and [s+2t over 2m-1]_q = 0 skips t.
    """
    if m < 1 or s < 0:
        raise ValueError("needs m >= 1 and s >= 0")
    total = ZERO
    for t in range(m + 1):
        sigma = sigma_closed_form(m, t, s)
        if sigma.is_zero:
            continue
        paren = (
            Scalar.q_power(1)
            * (ONE - Scalar.q_power(s + 1 - 2 * t))
            / (ONE - Scalar.q_power(s + 2 + 2 * t - m))
            - ONE
        )
        total = total + sigma * paren
    return total


def theorem5_lhs(m: int, s: int) -> Scalar:
    """The moment oracle under the printed normalization q**(s(s+1)/2) [s+1]! = h_(s+1).

    That is c_2m(s) h_s / h_(s+1) = c_2m(s) / (q**s [s+1]_q).
    """
    return qhz_lhs(m, s) / (Scalar.q_power(s) * q_integer(s + 1))


def qhz_rhs(m: int, s: int) -> Scalar:
    """The q-deformed one-face map-counting sum (Wimberley-Morales form)."""
    if m < 1 or s < 0:
        raise ValueError("needs m >= 1 and s >= 0")
    total = ZERO
    for k in range(min(m, s) + 1):
        term = (
            Scalar.q_power(m * (s - k) + k * (k - 1) // 2)
            * q_binomial(s, k)
            * q_binomial(m, k)
        )
        for i in range(1, k + 1):
            term = term * (ONE + Scalar.q_power(m + i))
        total = total + term
    return m_q(2 * m - 1) * total


# ---------------------------------------------------------------------------
# genus tables at q = 1
# ---------------------------------------------------------------------------


class GenusRow(NamedTuple):
    """One-face map counts for 2m-gon gluings: interpolated vs enumerated."""

    m: int
    coefficients: Dict[int, int]
    pairing: Dict[int, int]
    matches: bool


def pairing_genus_counts(m: int) -> Dict[int, int]:
    """Enumerate all (2m-1)!! edge pairings of a 2m-gon, counted by genus.

    A pairing is a fixed-point-free involution sigma on the polygon's edges;
    the glued surface has one face, m edges, and V vertices equal to the cycle
    count of pi(v) = sigma(v+1) (indices mod 2m), so 2 - 2g = V - m + 1.

    The lowest free edge is paired with each later free edge, depth first, and
    pi is built one arc at a time: pairing a with b sets pi(a-1) = b and
    pi(b-1) = a.  Each vertex gets one arc out and one in, so the arcs placed
    so far form disjoint cycles and paths, and an arc t -> h goes from the end
    of a path to the start of one.  first[t] is the first vertex of the path
    ending at t, last[h] the last vertex of the path starting at h.  The arc
    closes a cycle exactly when first[t] = h; otherwise the joined path runs
    from first[t] to last[h], the only two entries that change (back to t and
    h on the way up).  The last pair a < b finds either the paths b..a-1 and
    a..b-1, which its arcs close one each, or a..a-1 and b..b-1, which they
    join into one cycle.  So a leaf knows V without a scan.
    """
    if m < 1:
        raise ValueError("pairing_genus_counts needs m >= 1")
    n = 2 * m
    first, last = list(range(n)), list(range(n))
    by_vertices = [0] * (m + 2)

    def glue(free: List[int], cycles: int) -> None:
        a = free[0]
        t = (a - 1) % n
        if len(free) == 2:
            by_vertices[cycles + (2 if first[t] == free[1] else 1)] += 1
            return
        for i in range(1, len(free)):
            b = free[i]
            rest = free[1:i] + free[i + 1 :]
            s = first[t]  # the arc t -> b
            if s == b:
                closed = cycles + 1
            else:
                closed, e = cycles, last[b]
                last[s], first[e] = e, s
            u = first[b - 1]  # the arc b-1 -> a
            if u == a:
                glue(rest, closed + 1)
            else:
                z = last[a]
                last[u], first[z] = z, u
                glue(rest, closed)
                last[u], first[z] = b - 1, a
            if s != b:
                last[s], first[e] = t, b

    glue(list(range(n)), 0)
    counts: Dict[int, int] = {}
    for v, count in enumerate(by_vertices):
        if count:
            g, rem = divmod(m + 1 - v, 2)
            if rem:
                raise ArithmeticError(f"gluing with {v} vertices has odd Euler characteristic")
            counts[g] = count
    return counts


def _interpolate(xs: List[int], ys: List[Fraction]) -> List[Fraction]:
    """Ascending coefficients of the polynomial through the points (xs[i], ys[i]), by Lagrange."""
    total = [Fraction(0)] * len(xs)
    for i, xi in enumerate(xs):
        basis, denom = [1], 1
        for xj in xs[:i] + xs[i + 1 :]:
            basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]  # times (x - xj)
            denom *= xi - xj
        total = [t + c * ys[i] / denom for t, c in zip(total, basis)]
    return total


def genus_table(max_m: int) -> List[GenusRow]:
    """For each m <= max_m, the genus expansion of the 2m-th power-sum moment
    at q = 1 as a polynomial in N, cross-checked against direct enumeration.
    The moment is read from the walk, as the level density moment of x**(2m)."""
    if max_m < 1:
        raise ValueError("genus_table needs max_m >= 1")
    if max_m > GENUS_MAX_M:
        raise SizeError(f"genus_table limited to max_m <= {GENUS_MAX_M}")
    rows = []
    for m in range(1, max_m + 1):
        xs = list(range(m + 2))
        ys = [Fraction(0)]
        for N in range(1, m + 2):
            ys.append(evaluate_at(level_density_moment(XPoly.x_power(2 * m), N), 1))
        table: Dict[int, int] = {}
        for k, c in enumerate(_interpolate(xs, ys)):
            if c == 0:
                continue
            offset = (m + 1) - k
            if offset < 0 or offset % 2 or c.denominator != 1:
                raise ArithmeticError(f"m={m}: N^{k} coefficient {c} is not a genus count")
            table[offset // 2] = int(c)
        pairing = pairing_genus_counts(m)
        rows.append(GenusRow(m, table, pairing, table == pairing))
    return rows
