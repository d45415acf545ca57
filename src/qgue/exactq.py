"""Exact arithmetic over Q(q), the field of rational functions in q.

This is the ground field for the whole package.  Its one coefficient ring
is Z[q]; rationals appear only where numbers come in or go out.

  * `QPolynomial`: dense polynomial in q with int coefficients only, trailing
    zeros stripped; the zero polynomial is the empty coefficient sequence.
    Its ring-generic operations live in the base `_Dense`, shared with
    `qxpoly.XPoly`; each keeps its own product, and `_power` is the one
    square-and-multiply loop.
    Multiplication by a one-term polynomial c q^p is a scale and a shift;
    other products, and evaluation, run the coefficient-list kernels below
    directly.  The product and exact-division kernels first strip the power
    of q from their operands, so that no later step carries leading zeros:
    q^va a1 times q^vb b1 is q^(va+vb) a1 b1, and q^vg g1 divides q^va a1
    exactly when va >= vg and g1 | a1; see `_low`.
    Then, when both factors of a product, or the divisor and the quotient of
    a division, have at least _PACK_MIN_LEN = 16 coefficients, the lists are
    packed into single ints (Kronecker substitution: q = X = 2**(8 w) for
    slots of w bytes, signed coefficients in balanced slots) and CPython's
    big-int `*` and `divmod` do the work.  Both ends are linear: `_pack`
    writes each slot with `int.to_bytes`, and `_unpack` reads the slots as
    64-bit limb lanes with `struct` and joins them with `map`.  A product's
    slots hold its coefficients by a width bound.  A division makes one
    packed try at the quotient's width, bits(a) - bits(g) + 1, else the
    schoolbook loop decides; see `_int_divides`.  One schoolbook division
    loop, `_int_divmod`, serves both exact division in Z[q] and the
    pseudo-remainders of the one gcd, Collins' subresultant PRS on primitive
    integer lists.
  * `Scalar`: an element num/den of Q(q) held as a canonical integer pair:
    num and den lie in Z[q] and are coprime over Q, the gcd of all their
    coefficients is 1, and lc(den) > 0.  Construction always canonicalizes,
    so `==` on Scalars is exact field equality, and a number argument goes
    through `Fraction`.  Once the common power of q is stripped, a side with
    a single nonzero coefficient (a constant among them) is coprime to the
    other, so such a pair skips the exact division and the gcd, and both
    sides are divided once by their signed joint content when it is not 1.
    Otherwise each side splits into content and primitive part, num keeping
    its sign and den made positive-leading; by Gauss's lemma one exact
    division of the primitive parts decides whether den divides num over Q,
    and when it does not, their gcd is divided out.  A pair (p, 1) is
    canonical for every p in Z[q], so the sum, difference or product of two
    Scalars with denominator 1 (tested by value) skips the reduction.  Sums
    trim their top without revalidating, and negation and scaling run
    through `map`.
  * The q-products [n]!, M_q(n) = [n][n-2]... and the Gaussian binomials
    are built by one step, `_times_q_ratio`, since [m]_q = (1 - q^m)/(1 - q):
    times (1 - q^a)/(1 - q^b) is a shifted subtraction and a running sum over
    each residue class mod b, both at C speed, so no polynomial product or
    division runs.  [n]! is [n-1]! times [n]_q, M_q(n) is M_q(n-2) times
    [n]_q, and entry k of the cached Gaussian row of n, built on its own, is
    entry k - 1 times (1 - q^(n-k+1))/(1 - q^k); the squared base inflates
    the plain polynomial.

Scalars print with a monic denominator: `str` and `latex` divide both sides
by lc(den), and that is the only place a rational coefficient is built.
LaTeX folding into q-integers [n]_q tests the value at q = 2, where [n]_q is
2**n - 1, before each trial division.  Values are written once, at
construction, and are safe to share freely.
"""

from __future__ import annotations

import math
import operator
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, count, repeat
from typing import Iterable, Optional

__all__ = [
    "PoleError",
    "QPolynomial",
    "Scalar",
    "ZERO",
    "ONE",
    "q_integer",
    "q_factorial",
    "q_binomial",
    "m_q",
    "series_coefficient",
    "evaluate_at",
]


class PoleError(ArithmeticError):
    """Evaluation of a Scalar at a point where its reduced denominator vanishes."""


# ---------------------------------------------------------------------------
# Z[q] kernels on ascending coefficient lists
# ---------------------------------------------------------------------------


def _content(ints) -> int:
    """The gcd of a nonzero integer list, signed like its leading coefficient."""
    return math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)


def _primitive(ints):
    """The primitive part of a nonzero integer list, with positive leading coefficient."""
    g = _content(ints)
    return ints if g == 1 else [c // g for c in ints]


def _eval_int(coeffs, x):
    """Horner evaluation of integer coefficients at an int or a Fraction."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _low(cs) -> int:
    """Index of the first nonzero coefficient of cs; 0 when there is none.

    The Z[q] kernels below strip this power of q from each operand before
    anything else, so the packed path sees no leading zeros.
    Write a = q^va a1 and g = q^vg g1 with a1(0) != 0 != g1(0).
      * Product: a g = q^(va+vg) (a1 g1).
      * Quotient: g | a in Z[q] exactly when va >= vg and g1 | a1, and then
        a/g = q^(va-vg) (a1/g1).  If a = g h with h = q^vh h1, then
        (g1 h1)(0) = g1(0) h1(0) != 0, so va = vg + vh and a1 = g1 h1.
    """
    return next(compress(count(), cs), 0)


def _inflate(cs, k):
    """Substitute q -> q^k in a coefficient sequence, giving a list."""
    out = [0] * ((len(cs) - 1) * k + 1)
    out[::k] = cs
    return out


def _trimmed(cs):
    """cs without its trailing falsy entries, which are found at C speed."""
    if cs and not cs[-1]:
        cs = cs[: len(cs) - next(compress(count(), reversed(cs)), len(cs))]
    return cs


# Both lists of a product, and the divisor and quotient of a division, need at
# least this many coefficients for the packed path; shorter ones take the loops.
_PACK_MIN_LEN = 16


def _bits(cs) -> int:
    """Bit length of the largest absolute value in a nonempty integer list."""
    return max(max(cs), -min(cs)).bit_length()


def _slot_bytes(bits: int) -> int:
    """Bytes per slot so that every int of at most `bits` bits fits a balanced slot."""
    return bits // 8 + 1


def _half_slots(n: int, width: int, at: int) -> int:
    """Half a `width`-byte slot, 2**(8 width - 1), in each of n slots of `at` bytes."""
    return int.from_bytes((b"\1" + b"\0" * (at - 1)) * n, "little") << (8 * width - 1)


def _pack(cs, width: int) -> bytes:
    """The slots of cs, each c plus half a slot in `width` little-endian bytes.

    Every |c| must be below half a slot, 2**(8 width - 1).
    """
    half = 1 << (8 * width - 1)
    return b"".join([(c + half).to_bytes(width, "little") for c in cs])


def _lanes(slots: bytes, width: int, at: int):
    """(k, lane) for k = 0, at, 2 at, ... < width: lane k holds bytes k to k + at - 1 of
    each `width`-byte slot in an `at`-byte slot, zero-padded, one slice per byte."""
    n = len(slots) // width
    for k in range(0, width, at):
        lane = bytearray(n * at)
        for b in range(k, min(k + at, width)):
            lane[b - k :: at] = slots[b::width]
        yield k, lane


def _value(slots: bytes, width: int, at: Optional[int] = None) -> int:
    """The list packed at `width` bytes, evaluated at q = 2**(8 at) (at = width by default).

    Linear, with no loop over the coefficients: at its own width the slots
    are read as one int.  At another width, sum 2**(8 k) lane_k over the
    `_lanes` is the list plus half a `width` slot in each coefficient; the
    half slots are subtracted.
    """
    at = at or width
    if at == width:
        x = int.from_bytes(slots, "little")
    else:
        x = sum(int.from_bytes(lane, "little") << (8 * k) for k, lane in _lanes(slots, width, at))
    return x - _half_slots(len(slots) // width, width, at)


def _slots(x: int, n: int, width: int) -> Optional[bytes]:
    """The slots of the n coefficients whose value at q = 2**(8 width) is x.

    None when x has no such form.  Inverse of `_value` at its own width.
    """
    try:
        return (x + _half_slots(n, width, width)).to_bytes(n * width, "little")
    except OverflowError:
        return None


def _unpack(slots: bytes, width: int):
    """The coefficients in slots of `width` bytes; inverse of `_pack`, also linear.

    The 8-byte `_lanes` hold the slots' 64-bit limbs; one `struct.unpack`
    reads each lane as little-endian limbs, and `map` joins the limbs and
    takes off the half slots, so no Python loop runs over the coefficients.
    """
    limbs = "<%dQ" % (len(slots) // width)
    out = ()
    for k, lane in _lanes(slots, width, 8):
        lane = struct.unpack(limbs, lane)
        out = map(operator.or_, out, map(operator.lshift, lane, repeat(8 * k))) if k else lane
    return list(map(operator.sub, out, repeat(1 << (8 * width - 1))))


def _product_bytes(a, b) -> int:
    """Slot bytes that hold every coefficient of a*b: each is a sum of min(len) products."""
    return _slot_bytes(_bits(a) + _bits(b) + min(len(a), len(b)).bit_length())


def _mul_int(a, b):
    """Product of two nonempty integer lists.

    When both lists have at least _PACK_MIN_LEN coefficients they are
    multiplied as numbers (Kronecker substitution): both are packed at a slot
    width that holds every coefficient of the product, so the slots of the
    numeric product are its coefficients.  Otherwise the schoolbook loop runs.
    The power of q (`_low`) comes out first.
    """
    va, vb = _low(a), _low(b)
    if va or vb:
        square = a is b
        a = a[va:]
        return [0] * (va + vb) + _mul_int(a, a if square else b[vb:])
    if min(len(a), len(b)) >= _PACK_MIN_LEN:
        width = _product_bytes(a, b)
        pa = _value(_pack(a, width), width)
        pb = pa if a is b else _value(_pack(b, width), width)
        return _unpack(_slots(pa * pb, len(a) + len(b) - 1, width), width)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _int_divmod(g, a):
    """(quotient, low remainder) of a by g over Z, the remainder len(g) - 1 long.

    None when a step's leading coefficient is not a multiple of g's, which
    cannot happen when g's leading coefficient is 1 or -1.
    """
    ng = len(g)
    rem = list(a) + [0] * (ng - 1 - len(a))
    lg = g[-1]
    out = [0] * max(len(a) - ng + 1, 0)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + ng - 1]
        if c:
            q, r = divmod(c, lg)
            if r:
                return None
            out[i] = q
            for j in range(ng - 1):
                rem[i + j] -= q * g[j]
    return out, rem[: ng - 1]


def _int_divides(g, a):
    """Exact integer-polynomial division a/g, or None when it is not exact.

    When g and the quotient both have at least _PACK_MIN_LEN coefficients,
    the division is tried once on numbers, at q = X = 2**(8 w) for slots of
    w bytes.  a and g are packed each at a width that holds its
    coefficients, and `_value` re-slots their bytes to w.
      * Remainder: if g | a in Z[q], say a = g h, then a(X) = g(X) h(X) for
        every integer X.  So when g(X) != 0, a nonzero remainder of a(X) by
        g(X) proves the division inexact.
      * Quotient: a zero remainder proves nothing on its own, since the
        coefficients of h may not fit w bytes.  When the numeric quotient
        unpacks into n slots, it is quot(X), so r = g quot - a has r(X) = 0,
        and max|r| <= max|g| sum|quot| + max|a| < 2**B.  As q - X is monic,
        r = (q - X) s in Z[q].  If also r(Y) = 0 at a second point
        Y = 2**(8 w2) != X, then s(Y) = 0 and r = (q - X)(q - Y) t.  A
        nonzero r has a lowest nonzero coefficient X Y t_v, at least X Y in
        absolute value, so X Y >= 2**B proves g quot == a.  The check
        multiplies at the narrowest such Y, w2 = ceil(B / 8) - w bytes (one
        more when that is w); when X >= 2**B already, r = (q - X) s alone
        proves it and no product runs.
      * Width: w holds bits(a) - bits(g) + 1 bits.  That is what the
        quotient needs when a, g and h have nonnegative coefficients:
        g_j h_m <= a_(m+j) gives max|h| <= max|a| / max|g|.  For any other
        lists it is a guess, and the check guards it.
    Any other outcome decides nothing: g(X) = 0 (a coefficient of g too wide
    for its slot, as for g = (q - 256) h at w = 1), a quotient that does not
    unpack, or a failed check.  The schoolbook loop `_int_divmod` decides
    then.  The power of q (`_low`) comes out of a nonzero dividend and of
    the divisor first.
    """
    vg, va = _low(g), _low(a)
    if (vg or va) and any(a):
        if va < vg:
            return None
        out = _int_divides(g[vg:], a[va:])
        return None if out is None else [0] * (va - vg) + out
    n = len(a) - len(g) + 1
    if min(len(g), n) >= _PACK_MIN_LEN:
        ba, bg = _bits(a), _bits(g)
        wa, wg = _slot_bytes(ba), _slot_bytes(bg)
        sa, sg = _pack(a, wa), _pack(g, wg)
        width = _slot_bytes(max(ba - bg, 0) + 1)
        gx = _value(sg, wg, width)
        if gx:
            quot, rem = divmod(_value(sa, wa, width), gx)
            if rem:
                return None
            sq = _slots(quot, n, width)
            if sq is not None:
                quot = _unpack(sq, width)
                # r = g quot - a has r(X) = 0 and max|r| < 2**bound
                bound = max(bg + sum(map(abs, quot)).bit_length(), ba) + 1
                w2 = -(-bound // 8) - width
                if w2 <= 0:
                    return quot
                if w2 == width:
                    w2 += 1
                if _value(sg, wg, w2) * _value(sq, width, w2) == _value(sa, wa, w2):
                    return quot
    qr = _int_divmod(g, a)
    if qr is None or any(qr[1]):
        return None
    return qr[0]


# ---------------------------------------------------------------------------
# dense univariate polynomials, and polynomials in q
# ---------------------------------------------------------------------------


def _plus(a, b) -> tuple:
    """The sum of two ascending coefficient sequences, untrimmed."""
    if len(a) < len(b):
        a, b = b, a
    return (*map(operator.add, a, b), *a[len(b) :])


def _power(x, n: int, one):
    """x**n for n >= 0 by binary square-and-multiply, starting from one."""
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class _Dense:
    """Dense univariate polynomial: ascending coefficients, falsy trailing zeros trimmed.

    A subclass defines `__mul__` and names its ring's zero and one in `_zero` and `_one`.
    """

    __slots__ = ("coeffs",)
    _zero = 0
    _one = 1

    def __init__(self, coeffs=()):
        self.coeffs = _trimmed(tuple(coeffs))

    @classmethod
    def _raw(cls, coeffs: tuple):
        """Trusted constructor: coeffs already normalized and trimmed."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls):
        return cls._raw(())

    @classmethod
    def one(cls):
        return cls._raw((cls._one,))

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self._zero

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._raw(_trimmed(_plus(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw(tuple(map(operator.neg, self.coeffs)))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        return _power(self, n, self.one())

    def scale(self, c):
        if not c:
            return self.zero()
        if c == self._one:
            return self
        if type(c) is type(self._one):
            # a nonzero multiplier from the ring keeps the top coefficient nonzero
            return self._raw(tuple(map(operator.mul, self.coeffs, repeat(c))))
        return type(self)(map(operator.mul, self.coeffs, repeat(c)))

    def shifted(self, j: int):
        """Multiply by the variable**j (j >= 0) or strip j known-zero low coefficients (j < 0)."""
        if j >= 0:
            if not self.coeffs:
                return self
            return self._raw((self._zero,) * j + self.coeffs)
        if any(self.coeffs[:-j]):
            raise ValueError(f"shifted({j}) would drop nonzero coefficients")
        return self._raw(self.coeffs[-j:])


class QPolynomial(_Dense):
    """Dense polynomial in q with integer coefficients; anything but an int raises TypeError."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[int] = ()):
        super().__init__(map(operator.index, coeffs))

    @classmethod
    def q_power(cls, j: int) -> "QPolynomial":
        if j < 0:
            raise ValueError("q_power needs a nonnegative exponent")
        return cls._raw((0,) * j + (1,))

    # -- structure ----------------------------------------------------------

    @property
    def is_one(self) -> bool:
        return self.coeffs == (1,)

    @property
    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (0 for the zero polynomial)."""
        return _low(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals the number it holds, so it hashes like that number
        cs = self.coeffs
        return hash(cs) if len(cs) > 1 else hash(cs[0] if cs else 0)

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _QP_ZERO
        # c q^p times b is b scaled by c and shifted by p
        va = _low(a)
        if va == len(a) - 1:
            return other.scale(a[-1]).shifted(va)
        vb = _low(b)
        if vb == len(b) - 1:
            return self.scale(b[-1]).shifted(vb)
        return QPolynomial._raw(tuple(_mul_int(a, b)))

    def __call__(self, x):
        return _eval_int(self.coeffs, x)

    # -- division ------------------------------------------------------------

    def exact_div(self, other: "QPolynomial") -> Optional["QPolynomial"]:
        """Return self/other when the quotient lies in Z[q], else None."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot = _int_divides(other.coeffs, self.coeffs)
        return None if quot is None else QPolynomial._raw(tuple(quot))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return _join_terms(self.coeffs, _coeff_str)


_QP_ZERO = QPolynomial._raw(())
_QP_ONE = QPolynomial._raw((1,))


# ---------------------------------------------------------------------------
# polynomial gcd: the subresultant PRS
# ---------------------------------------------------------------------------


def _subresultant_gcd(a, b):
    """Subresultant PRS gcd of primitive integer coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    g, h = 1, 1
    while True:
        delta = len(a) - len(b)
        # pseudo-remainder of a by b: scaled by lc(b)**(delta+1), every step is integral
        lc = b[-1] ** (delta + 1)
        qr = _int_divmod(b, [c * lc for c in a])
        if qr is None:
            raise ArithmeticError("pseudo-remainder is not integral; need integer lists")
        rem = _trimmed(qr[1])
        if not rem:
            return _primitive(b)
        divisor = g * h**delta
        rem = [c // divisor for c in rem]
        a, b = b, rem
        g = a[-1]
        h = h * g**delta // h**delta if delta else h
        if len(b) == 1:
            return [1]


def _poly_gcd(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    """Primitive positive-leading gcd over the integers of two nonzero polynomials."""
    return QPolynomial(_subresultant_gcd(_primitive(a.coeffs), _primitive(b.coeffs)))


# ---------------------------------------------------------------------------
# the field Q(q)
# ---------------------------------------------------------------------------


def _divided(p: QPolynomial, c: int) -> QPolynomial:
    """p with every coefficient divided by c, which divides them all."""
    return p if c == 1 else QPolynomial._raw(tuple(map(operator.floordiv, p.coeffs, repeat(c))))


def _reduce_pair(num: QPolynomial, den: QPolynomial):
    """The canonical pair of num/den: coprime over Q, joint content 1 and lc(den) > 0."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator in Q(q)")
    if num.is_zero:
        return _QP_ZERO, _QP_ONE
    nv, dv = num.valuation, den.valuation
    v = min(nv, dv)
    if v:
        num = num.shifted(-v)
        den = den.shifted(-v)
    if nv - v == num.degree or dv - v == den.degree:
        # a side c q^p is a unit when p = 0, and otherwise, with the common
        # power of q stripped, the other side is not divisible by q: the pair
        # is coprime, and only the joint content is left to divide out, with
        # the sign that makes lc(den) > 0
        g = math.gcd(*den.coeffs, *num.coeffs)
        g = g if den.leading > 0 else -g
        return _divided(num, g), _divided(den, g)
    # each side loses its content: num keeps its sign, den is made positive-leading
    cn = math.gcd(*num.coeffs)
    cd = _content(den.coeffs)
    num, den = _divided(num, cn), _divided(den, cd)
    quot = num.exact_div(den)  # by Gauss's lemma, exact over Z exactly when over Q
    if quot is not None:
        num, den = quot, _QP_ONE
    else:
        g = _poly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
    # num and den are now coprime and primitive, and lc(den) > 0: divide out
    # the joint content gcd(cn, cd), with the sign that makes lc(den) > 0
    g = math.gcd(cn, cd) if cd > 0 else -math.gcd(cn, cd)
    return num.scale(cn // g), den.scale(cd // g)


def _as_ratio(x):
    """(p, d) with p in Z[q], d a positive int and x = p/d; a number goes through Fraction."""
    if isinstance(x, QPolynomial):
        return x, 1
    f = Fraction(x)
    return QPolynomial((f.numerator,)), f.denominator


def _operand(x) -> Optional["Scalar"]:
    """x as a Scalar when it is one, an int or a Fraction; else None."""
    if isinstance(x, Scalar):
        return x
    return Scalar(x) if isinstance(x, (int, Fraction)) else None


class Scalar:
    """Element of Q(q): a coprime integer pair num/den, joint content 1 and lc(den) > 0.

    A pair (p, 1) is canonical for every p in Z[q]: it is coprime, its joint
    content is gcd(content(p), 1) = 1 and lc(1) > 0.  So the sum or product of
    two Scalars with denominator 1 is built as (p, 1) with no reduction; any
    other pair goes through `_reduce_pair`, whose single-term-side shortcut is
    proved there.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        (num, a), (den, b) = _as_ratio(num), _as_ratio(den)  # (n/a) / (d/b) = (n b) / (d a)
        self.num, self.den = _reduce_pair(num.scale(b), den.scale(a))

    @classmethod
    def _make(cls, num: QPolynomial, den: QPolynomial) -> "Scalar":
        """Trusted constructor: (num, den) already canonical."""
        s = cls.__new__(cls)
        s.num = num
        s.den = den
        return s

    @classmethod
    def q_power(cls, j: int) -> "Scalar":
        """q**j, with negative j allowed."""
        if j >= 0:
            return cls._make(QPolynomial.q_power(j), _QP_ONE)
        return cls._make(_QP_ONE, QPolynomial.q_power(-j))

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num.is_one and self.den.is_one

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.num == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals the number it holds, so it hashes like that number
        if self.num.degree <= 0 and self.den.degree == 0:
            return hash(Fraction(self.num.coefficient(0), self.den.leading))
        return hash((self.num.coeffs, self.den.coeffs))

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def as_signed_q_power(self):
        """Return (sign, j) when self == sign * q**j with sign in {1, -1}, else None."""
        if self.num.is_zero or any(self.num.coeffs[:-1]):
            return None
        lead = self.num.leading
        if lead not in (1, -1):
            return None
        dv = self.den.valuation
        if self.den.coeffs[dv:] != (1,):
            return None
        return (1 if lead == 1 else -1, self.num.degree - self.den.degree)

    # -- arithmetic: int and Fraction operands are taken on either side ------

    def __add__(self, other) -> "Scalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        if a.is_zero:
            return other
        if c.is_zero:
            return self
        if b.is_one and d.is_one:
            return Scalar._make(a + c, _QP_ONE)
        if b == d:
            return Scalar._make(*_reduce_pair(a + c, b))
        return Scalar._make(*_reduce_pair(a * d + c * b, b * d))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar._make(-self.num, self.den)

    def __sub__(self, other) -> "Scalar":
        other = _operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Scalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        if self.num.is_zero or other.num.is_zero:
            return ZERO
        if self.den.is_one and other.den.is_one:
            return Scalar._make(self.num * other.num, _QP_ONE)
        return Scalar._make(*_reduce_pair(self.num * other.num, self.den * other.den))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """den/num, which needs no reduction: at most a sign change makes lc(den) > 0."""
        if self.num.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        num, den = self.den, self.num
        return Scalar._make(num, den) if den.leading > 0 else Scalar._make(-num, -den)

    def __truediv__(self, other) -> "Scalar":
        other = _operand(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return self.inverse().__mul__(other)

    def __pow__(self, n: int) -> "Scalar":
        return _power(self.inverse(), -n, ONE) if n < 0 else _power(self, n, ONE)

    # -- rendering: both sides divided by lc(den), so the denominator prints monic

    def __str__(self) -> str:
        if self.num.is_zero:
            return "0"
        lc = self.den.leading
        num, den = ([_over(c, lc) for c in side.coeffs] for side in (self.num, self.den))
        ns = _join_terms(num, _coeff_str)
        if len(den) == 1:
            return ns
        ds = _join_terms(den, _coeff_str)
        if len(num) - num.count(0) > 1:
            ns = f"({ns})"
        if len(den) - den.count(0) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def latex(self) -> str:
        if self.num.is_zero:
            return "0"
        lc = self.den.leading
        ns = _latex_side(self.num, lc)
        if self.den.degree == 0:
            return ns
        return r"\frac{%s}{%s}" % (ns, _latex_side(self.den, lc))


ZERO = Scalar._make(_QP_ZERO, _QP_ONE)
ONE = Scalar._make(_QP_ONE, _QP_ONE)


# ---------------------------------------------------------------------------
# string rendering
# ---------------------------------------------------------------------------


def _over(c: int, lc: int):
    """c / lc: an int when the division is exact, else a Fraction."""
    return c // lc if c % lc == 0 else Fraction(c, lc)


def _coeff_str(c, power: int) -> str:
    if power == 0:
        return str(c)
    if power == 1:
        var = "q"
    else:
        var = f"q^{power}"
    if c == 1:
        return var
    if type(c) is Fraction:
        return f"({c}){var}"
    return f"{c}{var}"


def _join_terms(coeffs, term) -> str:
    """Signed ascending sum of term(|c|, k) over the nonzero coefficients c of q**k."""
    parts = []
    for k, c in enumerate(coeffs):
        if c:
            parts.append(("-" if c < 0 else "+" if parts else "") + term(abs(c), k))
    return "".join(parts) or "0"


def _latex_coeff(c, power: int) -> str:
    if power == 0:
        var = ""
    elif power == 1:
        var = "q"
    else:
        var = "q^{%d}" % power
    if type(c) is Fraction:
        cs = r"\tfrac{%d}{%d}" % (c.numerator, c.denominator)
    else:
        cs = "" if (c == 1 and var) else str(c)
    return (cs + var) or "1"


def _fold_q_integers(p: QPolynomial):
    """Try to write p as c * q**v * prod [n]_q**e_n; return (c, v, factors) or None.

    p must be nonzero: `_latex_side` renders only the sides of a nonzero Scalar.
    """
    v = p.valuation
    work = p.shifted(-v) if v else p
    factors: dict = {}
    n = work.degree + 1
    while work.degree > 0 and n >= 2:
        # [n]_q is monic, so quotients stay in Z[q]; most trials fail, and [n]_q
        # is 2**n - 1 at q = 2: test that image first
        quot = work.exact_div(q_integer(n).num) if work(2) % (2**n - 1) == 0 else None
        if quot is not None:
            factors[n] = factors.get(n, 0) + 1
            work = quot
        else:
            n -= 1
    if work.degree > 0:
        return None
    return work.coeffs[0], v, factors


def _latex_side(p: QPolynomial, lc: int) -> str:
    """LaTeX of p / lc, refolded into q-integers where possible."""
    folded = _fold_q_integers(p)
    if folded is not None and folded[2]:
        c, v, factors = folded
        c = _over(c, lc)
        out = ""
        if c == -1:
            out += "-"
        elif c != 1:
            out += _latex_coeff(abs(c), 0) if c > 0 else "-" + _latex_coeff(abs(c), 0)
        if v == 1:
            out += "q"
        elif v:
            out += "q^{%d}" % v
        for n in sorted(factors, reverse=True):
            e = factors[n]
            out += "[%d]_q" % n if e == 1 else "[%d]_q^{%d}" % (n, e)
        return out
    return _join_terms([_over(c, lc) for c in p.coeffs], _latex_coeff)


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------


def _polynomial(cs) -> Scalar:
    """The Scalar of a trimmed int sequence, which is canonical over the denominator 1."""
    return Scalar._make(QPolynomial._raw(tuple(cs)), _QP_ONE)


def _times_q_ratio(cs, a: int, b: int) -> list:
    """cs (1 - q^a)/(1 - q^b) for an int sequence cs, as a list; a, b >= 1.

    Since [m]_q = (1 - q^m)/(1 - q), b = 1 multiplies by [a]_q, and the
    ratio [n over k]/[n over k-1] = [n-k+1]_q/[k]_q is
    (1 - q^(n-k+1))/(1 - q^k).  Times 1 - q^a is a shifted subtraction.  If
    p = (1 - q^b) h then p_i = h_i - h_(i-b), so h_i = p_i + h_(i-b) (with
    h_i = 0 for i < 0) is its only solution: a running sum over each residue
    class mod b.  Past deg(p) - b every running sum is the total of its
    class, so the division is exact, with h of degree deg(p) - b, exactly
    when the top b entries are zero; a nonzero one raises.
    """
    p = list(cs) + [0] * a
    p[a:] = map(operator.sub, p[a:], cs)
    for r in range(b):
        p[r::b] = accumulate(p[r::b])
    if any(p[-b:]):
        raise ArithmeticError(f"1 - q^{b} does not divide the step by (1 - q^{a})/(1 - q^{b})")
    return p[:-b]


@lru_cache(maxsize=None)
def q_integer(n: int, squared: bool = False) -> Scalar:
    """[n]_q = 1 + q + ... + q**(n-1), or [n]_{q^2} with the squared flag."""
    if n < 0:
        raise ValueError("q_integer needs n >= 0")
    if n == 0:
        return ZERO
    return _polynomial(_inflate((1,) * n, 2 if squared else 1))


@lru_cache(maxsize=None)
def q_factorial(n: int, squared: bool = False) -> Scalar:
    """[n]!_q = prod_{i=1..n} [i]_q; the empty product is 1.

    [n]!_{q^2}(q) is [n]!_q(q^2), so the squared base inflates the plain one.
    """
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    if n == 0:
        return ONE
    if squared:
        return _polynomial(_inflate(q_factorial(n).num.coeffs, 2))
    for j in range(1, n):  # fill the cache upward, so no call recurses deeply
        q_factorial(j)
    return _polynomial(_times_q_ratio(q_factorial(n - 1).num.coeffs, n, 1))


@lru_cache(maxsize=None)
def _gaussian_row(n: int) -> tuple:
    """The coefficient tuples of [n over k]_q for 0 <= k <= n/2.

    Entry k is entry k - 1 times [n-k+1]_q/[k]_q (see `_times_q_ratio`).  The
    row keeps the lower half, as [n over k] = [n over n-k], and is built on
    its own: it reads no other row.
    """
    row = [(1,)]
    for k in range(1, n // 2 + 1):
        row.append(tuple(_times_q_ratio(row[-1], n - k + 1, k)))
    return tuple(row)


def q_binomial(n: int, k: int, squared: bool = False) -> Scalar:
    """Gaussian binomial [n over k]_q; zero outside 0 <= k <= n.

    [n over k]_{q^2}(q) is [n over k]_q(q^2), so the squared base inflates
    the row entry.
    """
    if n < 0:
        raise ValueError("q_binomial needs n >= 0")
    if k < 0 or k > n:
        return ZERO
    cs = _gaussian_row(n)[min(k, n - k)]
    return _polynomial(_inflate(cs, 2) if squared else cs)


@lru_cache(maxsize=None)
def m_q(n: int) -> Scalar:
    """[n]_q [n-2]_q [n-4]_q ... over strictly positive factors; 1 for n <= 0."""
    if n <= 0:
        return ONE
    for j in range(2 - n % 2, n - 1, 2):  # fill the cache upward, so no call recurses deeply
        m_q(j)
    return _polynomial(_times_q_ratio(m_q(n - 2).num.coeffs, n, 1))


def series_coefficient(k: int, which: str, squared: bool = False) -> Scalar:
    """Coefficient of x**k in the series e or E over the chosen base.

    e: 1/[k]!;  E: q**(k(k-1)/2)/[k]!_q in the plain base and
    q**(k(k-1))/[k]!_{q^2} in the squared base.
    """
    if k < 0:
        raise ValueError("series_coefficient needs k >= 0")
    if which == "e":
        return q_factorial(k, squared).inverse()
    if which == "E":
        exp = k * (k - 1) if squared else k * (k - 1) // 2
        return Scalar.q_power(exp) / q_factorial(k, squared)
    raise ValueError("series name must be 'e' or 'E'")


def evaluate_at(s: Scalar, q0) -> Fraction:
    """Evaluate s at q = q0.

    A Scalar's num and den are coprime, so they share no root and a
    vanishing denominator is a pole.
    """
    x = Fraction(q0)
    x = x.numerator if x.denominator == 1 else x  # Horner on ints at an integer point
    dv = s.den(x)
    if dv == 0:
        raise PoleError(f"pole at q = {q0}")
    return Fraction(s.num(x)) / Fraction(dv)
