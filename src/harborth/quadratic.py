"""Exact arithmetic in the quadratic ring Z[sqrt(3)] and its fraction field Q(sqrt(3)).

Elements are written a + b*sqrt(3).  QuadInt keeps integer parts; QuadRat
is a QuadInt numerator over a positive integer denominator, kept in
canonical form (gcd of all three integers is 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class QuadInt:
    """An element a + b*sqrt(3) of Z[sqrt(3)]."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = int(a)
        self.b = int(b)

    def __repr__(self):
        if self.b == 0:
            return "QuadInt(%d)" % self.a
        return "QuadInt(%d, %d)" % (self.a, self.b)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return "%d*sqrt(3)" % self.b
        return "%d %s %d*sqrt(3)" % (self.a, "+" if self.b >= 0 else "-", abs(self.b))

    def __hash__(self):
        return hash((self.a, self.b))

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return QuadInt(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b*s3)(c + d*s3) = ac + 3bd + (ad + bc)*s3
        return QuadInt(self.a * other.a + 3 * self.b * other.b,
                       self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = QuadInt(1)
        base = self
        n = int(n)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self):
        return QuadInt(self.a, -self.b)

    def norm(self):
        """The field norm a^2 - 3*b^2 = x * conj(x)."""
        return self.a * self.a - 3 * self.b * self.b

    def content(self):
        return gcd(self.a, self.b)

    def divexact(self, other):
        """Exact division in Z[sqrt(3)]; raises ValueError if not divisible."""
        other = _coerce(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Z[sqrt(3)]")
        num = self * other.conj()
        if num.a % n or num.b % n:
            raise ValueError("%r not divisible by %r" % (self, other))
        return QuadInt(num.a // n, num.b // n)


def _coerce(x):
    if isinstance(x, QuadInt):
        return x
    if isinstance(x, int):
        return QuadInt(x)
    return NotImplemented


class QuadRat:
    """An element of Q(sqrt(3)): QuadInt numerator over a positive integer
    denominator, with gcd(num.a, num.b, den) == 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, QuadRat):
            num, den = num.num, num.den * den
        if isinstance(num, Fraction):
            num, den = QuadInt(num.numerator), den * num.denominator
        if isinstance(num, int):
            num = QuadInt(num)
        den = int(den)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(gcd(num.a, num.b), den)
        if g > 1:
            num = QuadInt(num.a // g, num.b // g)
            den //= g
        self.num = num
        self.den = den

    @property
    def a(self):
        return Fraction(self.num.a, self.den)

    @property
    def b(self):
        return Fraction(self.num.b, self.den)

    def __repr__(self):
        if self.den == 1:
            return "QuadRat(%r)" % self.num
        return "QuadRat(%r, %d)" % (self.num, self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __eq__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadRat(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadRat(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __rsub__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return QuadRat(-self.num, self.den)

    def __mul__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.num.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(3))")
        # rationalize by the conjugate
        return QuadRat(self.num * other.num.conj() * other.den, self.den * n)

    def __rtruediv__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return QuadRat(1) / self ** (-n)
        return QuadRat(self.num ** n, self.den ** n)

    def conj(self):
        return QuadRat(self.num.conj(), self.den)

    def is_rational(self):
        return self.num.b == 0

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("%r has a nonzero sqrt(3) part" % self)
        return Fraction(self.num.a, self.den)


def _coerce_rat(x):
    if isinstance(x, QuadRat):
        return x
    if isinstance(x, (int, QuadInt, Fraction)):
        return QuadRat(x)
    return NotImplemented


SQRT3 = QuadInt(0, 1)
