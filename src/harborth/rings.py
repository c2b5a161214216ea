"""Coefficient-ring descriptors for the polynomial layer.

Four rings appear in the pipeline: Z, Q, Z[sqrt(3)] and Q(sqrt(3)).
Coefficients are plain Python objects (int, Fraction, QuadInt, QuadRat);
the descriptor supplies coercion, exact division and normalization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NotDivisible
from .quadratic import QuadInt, QuadRat


class Ring:
    __slots__ = ()

    def __repr__(self):
        return self.name


class _IntegerRing(Ring):
    name = "Z"
    is_field = False
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        if isinstance(x, QuadInt) and x.b == 0:
            return x.a
        if isinstance(x, QuadRat) and x.is_rational() and x.den == 1:
            return x.num.a
        raise TypeError("cannot coerce %r into Z" % (x,))

    def exact_div(self, x, y):
        q, r = divmod(x, y)
        if r:
            raise NotDivisible("%r / %r in Z" % (x, y))
        return q

    def unit_normal(self, lc):
        """Unit making `lc * unit` canonical (positive)."""
        return -1 if lc < 0 else 1

    def conj(self, x):
        return x


class _RationalField(Ring):
    name = "Q"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, QuadInt) and x.b == 0:
            return Fraction(x.a)
        if isinstance(x, QuadRat) and x.is_rational():
            return x.as_fraction()
        raise TypeError("cannot coerce %r into Q" % (x,))

    def exact_div(self, x, y):
        return Fraction(x) / y

    def unit_normal(self, lc):
        return 1 / Fraction(lc)

    def conj(self, x):
        return x


class _QuadIntRing(Ring):
    name = "Zsqrt3"
    is_field = False
    zero = QuadInt(0)
    one = QuadInt(1)

    def coerce(self, x):
        if isinstance(x, QuadInt):
            return x
        if isinstance(x, int):
            return QuadInt(x)
        if isinstance(x, Fraction) and x.denominator == 1:
            return QuadInt(x.numerator)
        if isinstance(x, QuadRat) and x.den == 1:
            return x.num
        raise TypeError("cannot coerce %r into Z[sqrt3]" % (x,))

    def exact_div(self, x, y):
        try:
            return x.divexact(y)
        except ValueError as exc:
            raise NotDivisible(str(exc)) from exc

    def unit_normal(self, lc):
        # canonical: nonnegative rational part; positive sqrt(3) part on ties
        if lc.a < 0 or (lc.a == 0 and lc.b < 0):
            return QuadInt(-1)
        return QuadInt(1)

    def conj(self, x):
        return x.conj()


class _QuadRatField(Ring):
    name = "Qsqrt3"
    is_field = True
    zero = QuadRat(0)
    one = QuadRat(1)

    def coerce(self, x):
        if isinstance(x, QuadRat):
            return x
        if isinstance(x, (int, QuadInt, Fraction)):
            return QuadRat(x)
        raise TypeError("cannot coerce %r into Q(sqrt3)" % (x,))

    def exact_div(self, x, y):
        return x / y

    def unit_normal(self, lc):
        return QuadRat(1) / lc

    def conj(self, x):
        return x.conj()


ZZ = _IntegerRing()
QQ = _RationalField()
ZS3 = _QuadIntRing()
QS3 = _QuadRatField()

_BY_NAME = {"Z": ZZ, "Q": QQ, "Zsqrt3": ZS3, "Qsqrt3": QS3}
_FIELD_OF = {ZZ: QQ, QQ: QQ, ZS3: QS3, QS3: QS3}
_INTEGRAL_OF = {ZZ: ZZ, QQ: ZZ, ZS3: ZS3, QS3: ZS3}


def ring_by_name(name):
    return _BY_NAME[name]


def field_of(ring):
    return _FIELD_OF[ring]


def integral_of(ring):
    return _INTEGRAL_OF[ring]


def has_sqrt3(ring):
    return ring in (ZS3, QS3)


def join(r1, r2):
    """Smallest of the four rings containing both."""
    field = r1.is_field or r2.is_field
    quad = has_sqrt3(r1) or has_sqrt3(r2)
    if quad:
        return QS3 if field else ZS3
    return QQ if field else ZZ


def denominator_of(x):
    if isinstance(x, Fraction):
        return x.denominator
    if isinstance(x, QuadRat):
        return x.den
    return 1


def common_denominator(coeffs):
    """Least common multiple of the coefficient denominators."""
    return lcm(1, *map(denominator_of, coeffs))


def content_of(coeffs):
    """Integer content of Z or Z[sqrt(3)] coefficients: the positive gcd of
    all their rational and sqrt(3) parts (0 when there are none)."""
    g = 0
    for c in coeffs:
        if isinstance(c, int):
            g = gcd(g, c)
        elif isinstance(c, QuadInt):
            g = gcd(g, c.a, c.b)
        else:
            raise TypeError("content is defined over Z and Z[sqrt3]")
        if g == 1:
            break
    return g


def generic_exact_div(x, y):
    """Exact coefficient division dispatching on type (ints through polys)."""
    if isinstance(x, int) and isinstance(y, int):
        q, r = divmod(x, y)
        if r:
            raise NotDivisible("%r / %r" % (x, y))
        return q
    if isinstance(x, QuadInt):
        try:
            return x.divexact(y)
        except ValueError as exc:
            raise NotDivisible(str(exc)) from exc
    if isinstance(x, (Fraction, QuadRat)):
        return x / y
    return x.exact_div(y)  # Poly / MultiPoly
