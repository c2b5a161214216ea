"""Dense univariate polynomials over Z, Q, Z[sqrt(3)] and Q(sqrt(3)).

Coefficients are stored ascending by degree with a nonzero leading
coefficient (the zero polynomial has an empty list).  All values are
immutable; arithmetic returns new polynomials.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import DyadicInterval
from .errors import NotDivisible, NotEven
from .quadratic import QuadInt, QuadRat
from .rings import (QQ, QS3, ZS3, ZZ, common_denominator, content_of,
                    field_of, has_sqrt3, integral_of, join, ring_by_name)


class Poly:
    __slots__ = ("ring", "var", "coeffs")

    def __init__(self, ring, coeffs, var="x"):
        coeffs = [ring.coerce(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.ring = ring
        self.var = var
        self.coeffs = tuple(coeffs)

    # -- basic queries --------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            return self.ring.zero
        return self.coeffs[-1]

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring is other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring.name, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(%s, 0)" % self.ring.name
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("(%s)*%s" % (c, self.var))
            else:
                terms.append("(%s)*%s^%d" % (c, self.var, k))
        return " + ".join(terms)

    # -- ring moves -----------------------------------------------------

    def map_ring(self, ring):
        return Poly(ring, self.coeffs, self.var)

    def to_field(self):
        return self.map_ring(field_of(self.ring))

    def conj(self):
        """Coefficient-wise sqrt(3) |-> -sqrt(3)."""
        return Poly(self.ring, [self.ring.conj(c) for c in self.coeffs], self.var)

    def with_var(self, var):
        return Poly(self.ring, self.coeffs, var)

    # -- arithmetic -----------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Poly):
            ring = join(self.ring, other.ring)
        else:
            ring = join(self.ring, _natural_ring(other))
            other = Poly(ring, [other], self.var)
        return self.map_ring(ring), other.map_ring(ring)

    def __add__(self, other):
        a, b = self._coerce_other(other)
        n = max(len(a.coeffs), len(b.coeffs))
        return Poly(a.ring, [a.coeff(i) + b.coeff(i) for i in range(n)], a.var)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._coerce_other(other)
        n = max(len(a.coeffs), len(b.coeffs))
        return Poly(a.ring, [a.coeff(i) - b.coeff(i) for i in range(n)], a.var)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return Poly(self.ring, [-c for c in self.coeffs], self.var)

    def __mul__(self, other):
        a, b = self._coerce_other(other)
        return a._mul_poly(b)

    __rmul__ = __mul__

    def _mul_poly(self, other):
        if self.is_zero() or other.is_zero():
            return Poly(self.ring, [], self.var)
        out = [self.ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                if cj:
                    out[i + j] = out[i + j] + ci * cj
        return Poly(self.ring, out, self.var)

    def __pow__(self, n):
        result = Poly(self.ring, [self.ring.one], self.var)
        base = self
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other):
        """Quotient and remainder over a field."""
        ring = field_of(join(self.ring, other.ring))
        a = list(self.map_ring(ring).coeffs)
        b = other.map_ring(ring)
        if b.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db = b.degree
        inv_lc = ring.exact_div(ring.one, b.lc)
        q = [ring.zero] * max(0, len(a) - db)
        while len(a) - 1 >= db and a:
            k = len(a) - 1 - db
            c = a[-1] * inv_lc
            q[k] = c
            for i in range(db + 1):
                a[k + i] = a[k + i] - c * b.coeffs[i]
            while a and not a[-1]:
                a.pop()
        return Poly(ring, q, self.var), Poly(ring, a, self.var)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        """Exact division in the common ring; raises NotDivisible."""
        ring = join(self.ring, other.ring)
        a = list(self.map_ring(ring).coeffs)
        b = other.map_ring(ring)
        if b.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly(ring, [], self.var)
        if self.degree < b.degree:
            raise NotDivisible("degree of dividend below divisor")
        db = b.degree
        q = [ring.zero] * (len(a) - db)
        while len(a) - 1 >= db and a:
            k = len(a) - 1 - db
            c = ring.exact_div(a[-1], b.lc)
            q[k] = c
            for i in range(db + 1):
                a[k + i] = a[k + i] - c * b.coeffs[i]
            while a and not a[-1]:
                a.pop()
        if a:
            raise NotDivisible("nonzero remainder")
        return Poly(ring, q, self.var)

    def divides(self, other):
        try:
            other.exact_div(self)
            return True
        except NotDivisible:
            return False

    # -- content and normalization ---------------------------------------

    def content(self):
        """Content (see rings.content_of; 0 for the zero polynomial)."""
        return content_of(self.coeffs)

    def primitive(self):
        """(content, primitive part) with canonical leading unit."""
        if self.is_zero():
            return 0, self
        c = self.content()
        p = Poly(self.ring, [self.ring.exact_div(x, self.ring.coerce(c))
                             for x in self.coeffs], self.var)
        u = self.ring.unit_normal(p.lc)
        if u != self.ring.one:
            p = Poly(self.ring, [x * u for x in p.coeffs], self.var)
        return c, p

    def primitive_part(self):
        return self.primitive()[1]

    def monic(self):
        ring = field_of(self.ring)
        p = self.map_ring(ring)
        if p.is_zero():
            return p
        inv = ring.exact_div(ring.one, p.lc)
        return Poly(ring, [c * inv for c in p.coeffs], self.var)

    def clear_denominators(self):
        """Primitive integral polynomial proportional to self."""
        ring = integral_of(self.ring)
        if self.ring is ring:
            return self.primitive_part()
        den = common_denominator(self.coeffs)
        scaled = Poly(ring, [c * den for c in self.coeffs], self.var)
        return scaled.primitive_part()

    # -- calculus and structure -------------------------------------------

    def derivative(self):
        return Poly(self.ring,
                    [self.coeffs[k] * k for k in range(1, len(self.coeffs))],
                    self.var)

    def compose(self, inner):
        """self(inner(x)) by Horner."""
        ring = join(self.ring, inner.ring)
        result = Poly(ring, [], inner.var)
        for c in reversed(self.coeffs):
            result = result * inner + Poly(ring, [c], inner.var)
        return result

    def is_even(self):
        return all(not c for k, c in enumerate(self.coeffs) if k % 2)

    def even_decompose(self):
        """F with F(x**2) == self(x); raises NotEven otherwise."""
        if not self.is_even():
            raise NotEven("odd-degree coefficient present in %r" % (self,))
        return Poly(self.ring, list(self.coeffs[::2]), self.var)

    def scale_argument(self, c):
        """p(c*x)."""
        ring = join(self.ring, _natural_ring(c))
        out, power = [], ring.one
        for k, a in enumerate(self.coeffs):
            out.append(a * power)
            power = power * c
        return Poly(ring, out, self.var)

    def shift_argument(self, c):
        """p(x + c)."""
        x_plus_c = Poly(self.ring, [c, self.ring.one], self.var)
        return self.compose(x_plus_c)

    # -- evaluation --------------------------------------------------------

    def eval(self, x):
        """Exact evaluation at an int/Fraction/QuadInt/QuadRat point."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return self.ring.zero
        return acc

    def eval_interval(self, x):
        """Certified enclosure of p(t) for all t in the interval x."""
        if not isinstance(x, DyadicInterval):
            x = DyadicInterval.from_fraction(Fraction(x))
        prec = x.prec
        sqrt3 = None
        if has_sqrt3(self.ring):
            sqrt3 = DyadicInterval.from_int(3, prec).sqrt()
        acc = DyadicInterval.from_int(0, prec)
        for c in reversed(self.coeffs):
            acc = acc * x + _coeff_interval(c, prec, sqrt3)
        return acc

    # -- gcd family ----------------------------------------------------------

    def gcd(self, other):
        """Gcd over the fraction field, returned monic; integral inputs
        get an integral primitive result instead."""
        a, b = self.to_field(), other.to_field()
        while not b.is_zero():
            a, b = b, a % b
            if not b.is_zero():
                b = b.monic()  # eager canonicalization controls growth
        g = a.monic() if not a.is_zero() else a
        if not self.ring.is_field and not other.ring.is_field:
            return g.clear_denominators()
        return g

    def squarefree_part(self):
        if self.is_zero():
            return self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self.primitive_part() if not self.ring.is_field else self.monic()
        q = self.to_field().exact_div(g.to_field())
        if not self.ring.is_field:
            return q.clear_denominators()
        return q.monic()

    def is_squarefree(self):
        return self.gcd(self.derivative()).degree == 0

    def squarefree_decomposition(self):
        """Yun's algorithm: list of (factor, multiplicity) over the field."""
        f = self.monic()
        if f.degree <= 0:
            return []
        out = []
        df = f.derivative()
        a = f.gcd(df)
        b = f.exact_div(a)
        c = df.to_field().exact_div(a.to_field())
        i = 1
        while b.degree > 0:
            d = c - b.derivative()
            g = b.gcd(d)
            if g.degree > 0:
                out.append((g.monic(), i))
            b = b.exact_div(g)
            c = d.to_field().exact_div(g.to_field())
            i += 1
        return out

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        if self.ring is ZZ:
            coeffs = [str(c) for c in self.coeffs]
            ring = "Z"
        elif self.ring is ZS3:
            coeffs = [[str(c.a), str(c.b)] for c in self.coeffs]
            ring = "Zsqrt3"
        else:
            raise TypeError("only integral polynomials are serialized")
        return {"var": self.var, "ring": ring, "coeffs": coeffs}

    @staticmethod
    def from_json_dict(d):
        ring = ring_by_name(d["ring"])
        if ring is ZZ:
            coeffs = [int(c) for c in d["coeffs"]]
        elif ring is ZS3:
            coeffs = [QuadInt(int(a), int(b)) for a, b in d["coeffs"]]
        else:
            raise TypeError("unexpected ring %r" % d["ring"])
        return Poly(ring, coeffs, d["var"])


def _natural_ring(x):
    if isinstance(x, int):
        return ZZ
    if isinstance(x, Fraction):
        return QQ
    if isinstance(x, QuadInt):
        return ZS3
    if isinstance(x, QuadRat):
        return QS3
    raise TypeError("no coefficient ring for %r" % (x,))


def _coeff_interval(c, prec, sqrt3):
    if isinstance(c, int):
        return DyadicInterval.from_int(c, prec)
    if isinstance(c, Fraction):
        return DyadicInterval.from_fraction(c, prec)
    if isinstance(c, QuadInt):
        return DyadicInterval.from_int(c.a, prec) + sqrt3 * c.b
    if isinstance(c, QuadRat):
        return (DyadicInterval.from_int(c.num.a, prec)
                + sqrt3 * c.num.b) / c.den
    raise TypeError("cannot evaluate coefficient %r" % (c,))


def poly_Z(coeffs, var="x"):
    return Poly(ZZ, coeffs, var)


def poly_Q(coeffs, var="x"):
    return Poly(QQ, [Fraction(c) for c in coeffs], var)


def poly_ZS3(coeffs, var="x"):
    return Poly(ZS3, coeffs, var)
