"""Real algebraic numbers: an irreducible integer minimal polynomial plus an
isolating interval with rational endpoints.

Arithmetic goes through resultants (the classical composition formulas),
followed by factoring the composed polynomial and selecting the factor that
vanishes on the interval enclosure of the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dyadic import DEFAULT_PREC, DyadicInterval
from .elim import resultant
from .errors import Ambiguous
from .factor import (_is_prime, factor_z, irreducibility_certificate,
                     select_factor)
from .multipoly import MultiPoly
from .poly import poly_Z
from .realroots import refine, signature, sturm_count
from .rings import ZZ


class AlgebraicNumber:
    """Exact real algebraic number."""

    __slots__ = ("minpoly", "lo", "hi")

    def __init__(self, minpoly, interval, check=True):
        minpoly = minpoly.map_ring(ZZ).primitive_part()
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if check:
            if sturm_count(minpoly, lo, hi) != 1:
                raise ValueError("interval does not isolate a single root")
            irreducibility_certificate(minpoly)
        self.minpoly = minpoly
        self.lo = lo
        self.hi = hi

    @staticmethod
    def from_rational(q, var="x"):
        q = Fraction(q)
        p = poly_Z([-q.numerator, q.denominator], var)
        return AlgebraicNumber(p, (q - 1, q + 1), check=False)

    @property
    def degree(self):
        return self.minpoly.degree

    def is_rational(self):
        return self.degree == 1

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("%r is irrational" % self)
        return Fraction(-self.minpoly.coeff(0), self.minpoly.coeff(1))

    def __repr__(self):
        return "AlgebraicNumber(%r in [%s, %s])" % (
            self.minpoly, float(self.lo), float(self.hi))

    # -- enclosures -------------------------------------------------------

    def refined(self, width):
        lo, hi = refine(self.minpoly, (self.lo, self.hi), width)
        return AlgebraicNumber(self.minpoly, (lo, hi), check=False)

    def interval(self, prec=DEFAULT_PREC):
        a = self.refined(Fraction(1, 2 ** prec))
        return DyadicInterval.from_endpoints(a.lo, a.hi, prec)

    def sign(self):
        if self.minpoly.coeff(0) == 0 and self.degree == 1:
            return 0
        width = self.hi - self.lo
        a = self
        while True:
            if a.lo > 0:
                return 1
            if a.hi < 0:
                return -1
            width /= 2 ** 16
            a = a.refined(width)

    def __eq__(self, other):
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        if self.minpoly != other.minpoly:
            return False
        return (self - other).sign() == 0 if self.degree > 1 else \
            self.as_fraction() == other.as_fraction()

    def __hash__(self):
        return hash(self.minpoly)

    # -- arithmetic -------------------------------------------------------

    def __neg__(self):
        p = self.minpoly.mirror().primitive_part()
        return AlgebraicNumber(p, (-self.hi, -self.lo), check=False)

    def inverse(self):
        if self.minpoly.coeff(0) == 0:
            raise ZeroDivisionError("inverse of zero")
        rev = poly_Z(list(self.minpoly.coeffs[::-1]), self.minpoly.var)
        witness = lambda prec: DyadicInterval.from_int(1, prec) / \
            self.interval(prec)
        return _select_root(rev.primitive_part(), witness)

    def __add__(self, other):
        other = _coerce(other)
        var = self.minpoly.var
        p, q = self.minpoly, other.minpoly
        py = MultiPoly.from_poly(p.with_var("#y"), (var, "#y"))
        x = MultiPoly.variable(ZZ, (var, "#y"), var)
        y = MultiPoly.variable(ZZ, (var, "#y"), "#y")
        qc = _compose_mp(q, x - y)
        comp = resultant(py, qc, "#y").to_poly(var)
        witness = lambda prec: self.interval(prec) + other.interval(prec)
        return _select_root(comp, witness)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return (-self) + _coerce(other)

    def __mul__(self, other):
        other = _coerce(other)
        if self.minpoly.coeffs == (0, 1) or other.minpoly.coeffs == (0, 1):
            return AlgebraicNumber.from_rational(0, self.minpoly.var)
        var = self.minpoly.var
        p, q = self.minpoly, other.minpoly
        py = MultiPoly.from_poly(p.with_var("#y"), (var, "#y"))
        # y^deg(q) * q(x/y)
        n = q.degree
        terms = {}
        for k, c in enumerate(q.coeffs):
            if c:
                terms[(k, n - k)] = c
        qh = MultiPoly(ZZ, (var, "#y"), terms)
        comp = resultant(py, qh, "#y").to_poly(var)
        witness = lambda prec: self.interval(prec) * other.interval(prec)
        return _select_root(comp, witness)

    __rmul__ = __mul__

    def sqrt(self):
        """Positive square root; the operand must be positive."""
        if self.sign() <= 0:
            raise ValueError("square root of a non-positive number")
        coeffs = []
        for c in self.minpoly.coeffs:
            coeffs.extend((c, 0))
        vanishing = poly_Z(coeffs[:-1], self.minpoly.var)
        witness = lambda prec: self.interval(prec).sqrt()
        return _select_root(vanishing, witness)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()


def _coerce(x):
    if isinstance(x, AlgebraicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return AlgebraicNumber.from_rational(x)
    raise TypeError("cannot interpret %r as an algebraic number" % (x,))


def _compose_mp(q, inner):
    """q(inner) for a univariate q and a MultiPoly inner."""
    ring = inner.ring
    acc = MultiPoly.constant(ring, inner.vars, ring.zero)
    for c in reversed(q.coeffs):
        acc = acc * inner + MultiPoly.constant(ring, inner.vars, c)
    return acc


def _select_root(vanishing, witness, start_digits=60):
    """AlgebraicNumber for the root of some irreducible factor of
    `vanishing` enclosed by the witness callback (precision in bits)."""
    factors = [f for f, _ in factor_z(vanishing.primitive_part()).factors]
    prec = 4 * start_digits
    f = select_factor(factors, witness(prec), refine=witness)
    # find the isolating interval of f containing the witness enclosure
    iv = witness(prec)
    lo, hi = iv.lo_fraction(), iv.hi_fraction()
    while (not f.eval(lo) or not f.eval(hi)
           or sturm_count(f, lo, hi) != 1):
        prec *= 2
        if prec > 1 << 16:
            raise Ambiguous("cannot isolate the selected root")
        iv = witness(prec)
        lo, hi = iv.lo_fraction(), iv.hi_fraction()
    return AlgebraicNumber(f, (lo, hi), check=False)


# ---------------------------------------------------------------------------
# solvability by radicals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadicalsVerdict:
    degree: int
    real_roots: int
    verdict: str           # "solvable" | "not-solvable" | "inconclusive"
    reason: str


def radicals_criterion(p):
    """Galois-theoretic test for expressibility of the roots in radicals.

    For an irreducible polynomial of odd prime degree n with more than one
    but fewer than n real roots, complex conjugation is a transposition and
    the Galois group contains an n-cycle; together they generate the full
    symmetric group, which is not solvable for n >= 5.  Degrees up to 4 are
    always solvable; everything else is left inconclusive."""
    p = p.map_ring(ZZ).primitive_part()
    irreducibility_certificate(p)
    n = p.degree
    sig = signature(p)
    if n <= 4:
        return RadicalsVerdict(n, sig.real_roots, "solvable",
                               "degree at most 4")
    if _is_prime(n) and 1 < sig.real_roots < n:
        return RadicalsVerdict(
            n, sig.real_roots, "not-solvable",
            "irreducible of prime degree %d with %d real roots: the Galois "
            "group is the full symmetric group" % (n, sig.real_roots))
    return RadicalsVerdict(n, sig.real_roots, "inconclusive",
                           "criterion requires odd prime degree and a real "
                           "root count strictly between 1 and the degree")
