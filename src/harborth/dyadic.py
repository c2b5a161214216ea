"""Outward-rounded dyadic interval arithmetic.

Endpoints are dyadic rationals m * 2**e with integer mantissa and exponent.
Every operation rounds the lower endpoint down and the upper endpoint up to
the working bit count, so exact results of member points always stay inside
the output interval.  The default working precision of 400 bits realizes a
1e-100-style certification layer; callers raise it freely.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import EntirelyNegative

DEFAULT_PREC = 400


def _norm(m, e):
    if m == 0:
        return 0, 0
    tz = (m & -m).bit_length() - 1
    return m >> tz, e + tz


def _round_down(m, e, prec):
    excess = m.bit_length() - prec
    if excess <= 0:
        return m, e
    q = m >> excess  # floor shift, correct for negatives
    return q, e + excess


def _round_up(m, e, prec):
    excess = m.bit_length() - prec
    if excess <= 0:
        return m, e
    q, r = divmod(m, 1 << excess)
    return q + (1 if r else 0), e + excess


def _cmp(m1, e1, m2, e2):
    if e1 >= e2:
        m1 <<= e1 - e2
    else:
        m2 <<= e2 - e1
    return (m1 > m2) - (m1 < m2)


def _lowest(pairs):
    """Least of the dyadics m * 2**e in `pairs`, compared exactly at their
    common exponent; returned as (m, e) at that exponent."""
    e = min(pe for _, pe in pairs)
    return min(m << (pe - e) for m, pe in pairs), e


def _highest(pairs):
    """Greatest of the dyadics m * 2**e in `pairs`; see _lowest."""
    e = min(pe for _, pe in pairs)
    return max(m << (pe - e) for m, pe in pairs), e


def _div_adjust(am, ae, bm, be, prec):
    """a/b as (down, up) mantissa pairs at exponent ae-be-s."""
    s = max(0, prec + bm.bit_length() - am.bit_length() + 2)
    q, r = divmod(am << s, bm)  # divmod floors for either divisor sign
    return q, q + (1 if r else 0), ae - be - s


def _sqrt_bounds(m, e, prec):
    """Floor/ceil sqrt of m*2**e with at least prec mantissa bits."""
    if m == 0:
        return (0, 0), (0, 0)
    t = 2 * prec - m.bit_length() + 2
    if (e - t) % 2:
        t += 1
    if t < 0:
        t = 0 if e % 2 == 0 else 1
    n = m << t
    r = isqrt(n)
    half = (e - t) // 2
    lo = (r, half)
    hi = (r, half) if r * r == n else (r + 1, half)
    return lo, hi


class Dyadic:
    """Exact dyadic rational m * 2**e."""

    __slots__ = ("m", "e")

    def __init__(self, m, e=0):
        self.m, self.e = _norm(int(m), int(e))

    @staticmethod
    def from_fraction_down(fr, prec):
        fr = Fraction(fr)
        q, _, e = _div_adjust(fr.numerator, 0, fr.denominator, 0, prec)
        return Dyadic(q, e)

    @staticmethod
    def from_fraction_up(fr, prec):
        fr = Fraction(fr)
        _, q, e = _div_adjust(fr.numerator, 0, fr.denominator, 0, prec)
        return Dyadic(q, e)

    def as_fraction(self):
        if self.e >= 0:
            return Fraction(self.m << self.e)
        return Fraction(self.m, 1 << -self.e)

    def __repr__(self):
        return "Dyadic(%d, %d)" % (self.m, self.e)

    def __eq__(self, other):
        return isinstance(other, Dyadic) and self.m == other.m and self.e == other.e

    def __hash__(self):
        return hash((self.m, self.e))

    def cmp(self, other):
        return _cmp(self.m, self.e, other.m, other.e)

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0


class DyadicInterval:
    """Closed interval [lo, hi] with dyadic endpoints and a working precision."""

    __slots__ = ("lo_m", "lo_e", "hi_m", "hi_e", "prec")

    def __init__(self, lo_m, lo_e, hi_m, hi_e, prec=DEFAULT_PREC):
        if _cmp(lo_m, lo_e, hi_m, hi_e) > 0:
            raise ValueError("interval endpoints out of order")
        self.lo_m, self.lo_e = _norm(lo_m, lo_e)
        self.hi_m, self.hi_e = _norm(hi_m, hi_e)
        self.prec = prec

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(n, prec=DEFAULT_PREC):
        return DyadicInterval(n, 0, n, 0, prec)

    @staticmethod
    def from_fraction(fr, prec=DEFAULT_PREC):
        fr = Fraction(fr)
        if fr.denominator == 1:
            return DyadicInterval(fr.numerator, 0, fr.numerator, 0, prec)
        qd, qu, e = _div_adjust(fr.numerator, 0, fr.denominator, 0, prec)
        return DyadicInterval(qd, e, qu, e, prec)

    @staticmethod
    def from_endpoints(lo, hi, prec=DEFAULT_PREC):
        lo, hi = Fraction(lo), Fraction(hi)
        lo_d = Dyadic.from_fraction_down(lo, prec)
        hi_d = Dyadic.from_fraction_up(hi, prec)
        return DyadicInterval(lo_d.m, lo_d.e, hi_d.m, hi_d.e, prec)

    # -- views ---------------------------------------------------------

    @property
    def lo(self):
        return Dyadic(self.lo_m, self.lo_e)

    @property
    def hi(self):
        return Dyadic(self.hi_m, self.hi_e)

    def lo_fraction(self):
        return self.lo.as_fraction()

    def hi_fraction(self):
        return self.hi.as_fraction()

    def midpoint(self):
        return (self.lo_fraction() + self.hi_fraction()) / 2

    def width(self):
        return self.hi_fraction() - self.lo_fraction()

    def contains(self, value):
        value = Fraction(value)
        return self.lo_fraction() <= value <= self.hi_fraction()

    def contains_zero(self):
        return self.lo_m <= 0 <= self.hi_m

    def is_positive(self):
        return self.lo_m > 0

    def is_negative(self):
        return self.hi_m < 0

    def sign(self):
        """-1, 0 (straddles), or +1."""
        if self.is_positive():
            return 1
        if self.is_negative():
            return -1
        return 0

    def mag_upper(self):
        """A Fraction upper bound on |x| over the interval."""
        return max(abs(self.lo_fraction()), abs(self.hi_fraction()))

    def __repr__(self):
        return "DyadicInterval(%s, %s)" % (self.lo_fraction(), self.hi_fraction())

    def __str__(self):
        return "[%s, %s]" % (float(self.lo_fraction()), float(self.hi_fraction()))

    # -- arithmetic ----------------------------------------------------

    def _wrap(self, lo_m, lo_e, hi_m, hi_e, prec):
        lo_m, lo_e = _round_down(lo_m, lo_e, prec)
        hi_m, hi_e = _round_up(hi_m, hi_e, prec)
        return DyadicInterval(lo_m, lo_e, hi_m, hi_e, prec)

    def __neg__(self):
        return DyadicInterval(-self.hi_m, self.hi_e, -self.lo_m, self.lo_e, self.prec)

    def __add__(self, other):
        other = _as_interval(other, self.prec)
        prec = min(self.prec, other.prec)
        e = min(self.lo_e, other.lo_e)
        lo = (self.lo_m << (self.lo_e - e)) + (other.lo_m << (other.lo_e - e))
        e2 = min(self.hi_e, other.hi_e)
        hi = (self.hi_m << (self.hi_e - e2)) + (other.hi_m << (other.hi_e - e2))
        return self._wrap(lo, e, hi, e2, prec)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_interval(other, self.prec)
        return self + (-other)

    def __rsub__(self, other):
        return _as_interval(other, self.prec) - self

    def __mul__(self, other):
        other = _as_interval(other, self.prec)
        prec = min(self.prec, other.prec)
        cands = []
        for m1, e1 in ((self.lo_m, self.lo_e), (self.hi_m, self.hi_e)):
            for m2, e2 in ((other.lo_m, other.lo_e), (other.hi_m, other.hi_e)):
                cands.append((m1 * m2, e1 + e2))
        lo, hi = _lowest(cands), _highest(cands)
        return self._wrap(lo[0], lo[1], hi[0], hi[1], prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_interval(other, self.prec)
        if other.contains_zero():
            raise ZeroDivisionError("interval division by an interval containing zero")
        prec = min(self.prec, other.prec)
        downs, ups = [], []
        for m1, e1 in ((self.lo_m, self.lo_e), (self.hi_m, self.hi_e)):
            for m2, e2 in ((other.lo_m, other.lo_e), (other.hi_m, other.hi_e)):
                d, u, e = _div_adjust(m1, e1, m2, e2, prec)
                downs.append((d, e))
                ups.append((u, e))
        lo, hi = _lowest(downs), _highest(ups)
        return self._wrap(lo[0], lo[1], hi[0], hi[1], prec)

    def __rtruediv__(self, other):
        return _as_interval(other, self.prec) / self

    def square(self):
        """x**2 over the interval; tighter than self*self around zero."""
        prec = self.prec
        lo2 = (self.lo_m * self.lo_m, 2 * self.lo_e)
        hi2 = (self.hi_m * self.hi_m, 2 * self.hi_e)
        hi = _highest((lo2, hi2))
        if self.contains_zero():
            lo = (0, 0)
        else:
            lo = _lowest((lo2, hi2))
        return self._wrap(lo[0], lo[1], hi[0], hi[1], prec)

    def sqrt(self):
        if self.hi_m < 0:
            raise EntirelyNegative("sqrt of %r" % self)
        prec = self.prec
        if self.lo_m <= 0:
            lo = (0, 0)
        else:
            lo, _ = _sqrt_bounds(self.lo_m, self.lo_e, prec)
        _, hi = _sqrt_bounds(self.hi_m, self.hi_e, prec)
        return self._wrap(lo[0], lo[1], hi[0], hi[1], prec)

    def with_prec(self, prec):
        return DyadicInterval(self.lo_m, self.lo_e, self.hi_m, self.hi_e, prec)

    def decimal(self, digits):
        """Decimal string of the midpoint, rounded to `digits` places."""
        scaled = self.midpoint() * 10 ** digits
        q = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
        sign = "-" if q < 0 else ""
        if digits == 0:
            return sign + str(abs(q))
        s = str(abs(q)).rjust(digits + 1, "0")
        return "%s%s.%s" % (sign, s[:-digits], s[-digits:])


def _as_interval(x, prec):
    if isinstance(x, DyadicInterval):
        return x
    if isinstance(x, int):
        return DyadicInterval.from_int(x, prec)
    if isinstance(x, Fraction):
        return DyadicInterval.from_fraction(x, prec)
    raise TypeError("cannot interpret %r as an interval" % (x,))
