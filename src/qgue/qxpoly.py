"""Polynomials in x over Q(q): q-derivative, Gaussian operators, and the
q-Hermite / shadow-Hermite families.

`XPoly` takes its ring-generic operations from `exactq._Dense`, the base of
`QPolynomial`, and adds only its Scalar product, x-powers and rendering.

The two Gaussian operators and their images of x**n:

    forward  = E(-D_q^2/(1+q), q^2)   sends x**n to the q-Hermite H_n
    inverse  = e(D_q^2/(1+q), q^2)    sends x**n to the shadow S_n

so by linearity they send p to sum p_n H_n and sum p_n S_n, and that is
how `gaussian_op` computes them, from the cached H_n and the cached closed
form [x**e] S_n = [n over e]_q M_q(n-e-1).  The power series in
D_q^2/(1+q) that defines them is kept in `tests/oracles.py` as the tests'
reference.  The operators are mutually inverse, which is what
makes coefficient extraction in the H-basis (and the moment functional L)
computable.  L is the constant term of the inverse image, and only that
term is computed: it is the sum of p_{2k} M_q(2k-1) over the even
coefficients of p (see `functional_L`).

The direct shadow-basis map, the forward image of a truncated shadow
polynomial, is cached once per (N, ell) in `_direct_shadow_map`.  The other
two expansions sum `_hook_term`, the one hook term that `moments` also reads.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from .exactq import ONE, ZERO, Scalar, _Dense, m_q, q_binomial, q_integer

__all__ = [
    "XPoly",
    "q_derivative",
    "gaussian_op",
    "hermite",
    "shadow_hermite",
    "truncated_shadow",
    "truncated_in_shadow_basis",
    "gaussian_moment",
    "functional_L",
    "hermite_expand",
]


class XPoly(_Dense):
    """Dense polynomial in x with Scalar coefficients; degree -1 marks zero."""

    __slots__ = ()
    _zero = ZERO
    _one = ONE

    @classmethod
    def x_power(cls, n: int) -> "XPoly":
        if n < 0:
            raise ValueError("x_power needs n >= 0")
        return cls._raw((ZERO,) * n + (ONE,))

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one

    def __mul__(self, other: "XPoly") -> "XPoly":
        # apart from QPolynomial's int-list kernel: a zero Scalar skips its row or column
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XPoly.zero()
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca.is_zero:
                for j, cb in enumerate(b):
                    if not cb.is_zero:
                        out[i + j] = out[i + j] + ca * cb
        return XPoly(out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero:
                continue
            sign = " + "
            cs = str(c)
            if cs.startswith("-") and "+" not in cs and "-" not in cs[1:]:
                sign, cs = " - ", cs[1:]
            if "+" in cs[1:] or "-" in cs[1:] or "/" in cs:
                cs = f"({cs})"
            term = cs if k == 0 else (f"x^{k}" if cs == "1" else f"{cs}*x^{k}")
            if not parts:
                parts.append(term if sign == " + " else f"-{term}")
            else:
                parts.append(sign + term)
        return "".join(parts)


def q_derivative(p: XPoly) -> XPoly:
    """The linear operator with D_q x**n = [n]_q x**(n-1)."""
    return XPoly(tuple(p.coeffs[n] * q_integer(n) for n in range(1, len(p.coeffs))))


def gaussian_op(p: XPoly, direction: str = "forward") -> XPoly:
    """Apply E(-D_q^2/(1+q), q^2) (forward) or e(D_q^2/(1+q), q^2) (inverse).

    The forward operator sends x**n to H_n and the inverse one sends x**n to
    S_n, so the images are sum p_n H_n and sum p_n S_n.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    family = hermite if direction == "forward" else shadow_hermite
    out = [ZERO] * len(p.coeffs)
    for n, c in enumerate(p.coeffs):
        if not c.is_zero:
            for k, f in enumerate(family(n).coeffs):
                if not f.is_zero:
                    out[k] = out[k] + c * f
    return XPoly(out)


@lru_cache(maxsize=None)
def hermite(n: int) -> XPoly:
    """The q-Hermite polynomial H_n, via the three-term recurrence
    H_{k+1} = x H_k - q^(k-1) [k]_q H_{k-1}."""
    if n < 0:
        raise ValueError("hermite needs n >= 0")
    if n < 2:
        return XPoly.x_power(n)
    for k in range(2, n - 1):  # fill the cache upward, so no call recurses deeply
        hermite(k)
    k = n - 1
    return hermite(k).shifted(1) - hermite(k - 1).scale(Scalar.q_power(k - 1) * q_integer(k))


@lru_cache(maxsize=None)
def _shadow_coefficient(n: int, e: int) -> Scalar:
    """[x**e] S_n = [n over e]_q L(x**(n-e)), zero unless n - e is even and nonnegative."""
    d = n - e
    return ZERO if d < 0 or d % 2 else q_binomial(n, d) * gaussian_moment(d)


def shadow_hermite(n: int) -> XPoly:
    """The shadow polynomial S_n: sum over k of [n over 2k]_q M_q(2k-1) x**(n-2k)."""
    if n < 0:
        raise ValueError("shadow_hermite needs n >= 0")
    return XPoly([_shadow_coefficient(n, e) for e in range(n + 1)])


def truncated_shadow(N: int, ell: int) -> XPoly:
    """The part of S_{N+ell} divisible by x**N: the sum stops at k = ell // 2."""
    if N < 1 or ell < 1:
        raise ValueError("truncated_shadow needs N >= 1 and ell >= 1")
    return XPoly((ZERO,) * N + shadow_hermite(N + ell).coeffs[N:])


def _hook_term(
    binomial: Scalar, m: int, f: int, method: str, offset: int = 0, negate: bool = False
) -> Scalar:
    """(-1)**(m-f+negate) q**(e+offset) binomial [m-1 over f]_{q^2} M_q(2m-1), the hook term,
    with e = (m-f-1)(m-f-2) as printed or (m-f-1)(m-f) "closed"; a zero binomial skips the rest."""
    if binomial.is_zero:
        return ZERO
    s = m - f
    monomial = Scalar.q_power((s - 1) * (s - 2 if method == "printed" else s) + offset)
    value = binomial * q_binomial(m - 1, f, squared=True) * m_q(2 * m - 1)
    return value * (-monomial if (s + negate) % 2 else monomial)


def truncated_in_shadow_basis(N: int, ell: int, method: str = "direct") -> Dict[int, Scalar]:
    """Coefficients of the truncated shadow polynomial in the basis {S_j}.

    direct: convert via the forward operator (S_j maps to x**j).
    closed: the alternating sum of hook terms (`_hook_term`) over S_{n-2p}, with
    q-power s(s-1) where s = p - floor(ell/2); agrees with the direct conversion.
    printed: the same sum with q-power (s-1)(s-2), the variant that
    circulates in print; kept verbatim so the verification harness can
    measure its monomial defect q**(2(s-1)).
    """
    if N < 1 or ell < 1:
        raise ValueError("truncated_in_shadow_basis needs N >= 1 and ell >= 1")
    if method == "direct":
        return dict(_direct_shadow_map(N, ell))
    if method in ("closed", "printed"):
        n = N + ell
        out = {n: ONE}
        for p in range(ell // 2 + 1, n // 2 + 1):
            out[n - 2 * p] = _hook_term(q_binomial(n, 2 * p), p, ell // 2, method)
        return out
    raise ValueError("method must be 'direct', 'closed' or 'printed'")


@lru_cache(maxsize=None)
def _direct_shadow_map(N: int, ell: int) -> Tuple[Tuple[int, Scalar], ...]:
    """The nonzero (j, [S_j] coefficient) pairs of the forward image of truncated_shadow(N, ell)."""
    image = gaussian_op(truncated_shadow(N, ell), "forward")
    return tuple((k, c) for k, c in enumerate(image.coeffs) if not c.is_zero)


def gaussian_moment(n: int) -> Scalar:
    """L(x**n): zero for odd n and M_q(n-1) for even n (see `functional_L`)."""
    if n < 0:
        raise ValueError("gaussian_moment needs n >= 0")
    return ZERO if n % 2 else m_q(n - 1)


def functional_L(p: XPoly) -> Scalar:
    """The formal q-Gaussian expectation: constant term of the inverse operator image.

    With T = D_q^2/(1+q), T x**n = [n]_q [n-1]_q / [2]_q x**(n-2), and the
    inverse operator is sum_j T**j / [j]!_{q^2}.  T**j lowers the degree by
    2j, so odd powers of x never reach x**0 and only j = k sends x**(2k)
    there, to prod_{i=1..k} [2i]_q [2i-1]_q / ([2]_q [i]_{q^2}) = M_q(2k-1),
    since [2i]_q = [2]_q [i]_{q^2}.  By linearity L(p) = sum_n p_n L(x**n),
    with L(x**n) = `gaussian_moment`(n).
    """
    total = ZERO
    for n, c in enumerate(p.coeffs):
        if not c.is_zero:
            total = total + c * gaussian_moment(n)
    return total


def hermite_expand(p: XPoly) -> Dict[int, Scalar]:
    """Coefficients a_k with p = sum a_k H_k; zeros are omitted."""
    image = gaussian_op(p, "inverse")
    return {k: c for k, c in enumerate(image.coeffs) if not c.is_zero}
