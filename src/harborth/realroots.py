"""Real root counting, isolation and refinement via Sturm sequences.

All queries are exact: evaluation points are rationals, the Sturm chain is
kept over Z with positive scaling only (signs must survive), and isolating
intervals have non-root rational endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EndpointRoot, NotSquarefree, ZeroInput
from .poly import Poly
from .rings import ZZ, common_denominator


@dataclass(frozen=True)
class RootIsolation:
    poly: Poly
    intervals: tuple       # ((lo, hi) Fractions, ascending, pairwise disjoint)

    @property
    def count(self):
        return len(self.intervals)


@dataclass(frozen=True)
class Signature:
    degree: int
    real_roots: int
    complex_pairs: int


def _positive_primitive(p):
    """Divide by the positive integer content; the sign is preserved."""
    c = p.content()
    if c in (0, 1):
        return p
    return Poly(ZZ, [x // c for x in p.coeffs], p.var)


def sturm_chain(p):
    """Sturm chain of an integer polynomial, scaled by positive constants."""
    p = _positive_primitive(p.map_ring(ZZ))
    if p.is_zero():
        raise ZeroInput("Sturm chain of the zero polynomial")
    chain = [p]
    if p.degree >= 1:
        chain.append(_positive_primitive(p.derivative()))
    while chain[-1].degree >= 1:
        rem = chain[-2].to_field() % chain[-1].to_field()
        if rem.is_zero():
            break
        den = common_denominator(rem.coeffs)
        rem = Poly(ZZ, [-(c * den) for c in rem.coeffs], p.var)
        chain.append(_positive_primitive(rem))
    return chain


def _sign_at(p, num, den=1):
    """Sign of den**deg * p(num/den), which for den > 0 is the sign of
    p(num/den): homogeneous Horner over the integers."""
    acc, scale = 0, 1
    for c in reversed(p.coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _sign_at_fraction(p, x):
    return _sign_at(p, x.numerator, x.denominator)


def _variations(chain, x):
    x = Fraction(x)
    signs = [s for s in (_sign_at_fraction(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p, lo, hi, chain=None):
    """Number of distinct real roots of p in (lo, hi]; p must be squarefree
    on the endpoints (EndpointRoot otherwise)."""
    if p.is_zero():
        raise ZeroInput("Sturm count of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if not _sign_at_fraction(p, lo) or not _sign_at_fraction(p, hi):
        raise EndpointRoot("polynomial vanishes at an endpoint")
    chain = chain or sturm_chain(p)
    return _variations(chain, lo) - _variations(chain, hi)


def root_bound(p):
    """Power of two exceeding the magnitude of every root (Cauchy bound)."""
    p = p.map_ring(ZZ)
    if p.degree < 1:
        raise ZeroInput("no roots to bound")
    top = abs(p.lc)
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree else 0
    bound = 1 + (m + top - 1) // top
    b = 1
    while b < bound:
        b *= 2
    return b


def isolate(p):
    """Disjoint open isolating intervals, one per distinct real root.

    Endpoints are dyadic rationals and never roots; rational roots get a
    shrinking bracket around the exact value."""
    p = p.map_ring(ZZ)
    if p.degree < 1:
        raise ZeroInput("cannot isolate roots of a constant")
    work = p.squarefree_part().clear_denominators()
    chain = sturm_chain(work)
    b = root_bound(work)
    out = []
    stack = [(Fraction(-b), Fraction(b))]
    while stack:
        lo, hi = stack.pop()
        n = sturm_count(work, lo, hi, chain)
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if _sign_at_fraction(work, mid):
            stack.append((lo, mid))
            stack.append((mid, hi))
            continue
        # exact rational root at the midpoint: bracket it separately
        eps = (hi - lo) / 4
        while (not _sign_at_fraction(work, mid - eps)
               or not _sign_at_fraction(work, mid + eps)
               or sturm_count(work, mid - eps, mid + eps, chain) != 1):
            eps /= 2
        out.append((mid - eps, mid + eps))
        stack.append((lo, mid - eps))
        stack.append((mid + eps, hi))
    out.sort()
    return RootIsolation(work, tuple(out))


def refine(p, interval, width, chain=None):
    """Shrink an isolating interval below `width` (bisection, exact).

    Once a Sturm count shows the interval isolates one root of the
    squarefree chain head, each step keeps the half where the sign
    changes.  Raises ValueError for a width <= 0, which bisection never
    reaches."""
    width = Fraction(width)
    if width <= 0:
        raise ValueError("refinement width must be positive, got %s" % width)
    p = p.map_ring(ZZ)
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    chain = chain or sturm_chain(p.squarefree_part().clear_denominators())
    work = chain[0]
    if sturm_count(work, lo, hi, chain) != 1:
        raise ValueError("interval does not isolate a single root")
    sign_lo = _sign_at_fraction(work, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        sign_mid = _sign_at_fraction(work, mid)
        if not sign_mid:
            # the root is exactly at the midpoint; step off it (the root is
            # the only one in the interval, so the new point is no root)
            mid = lo + (hi - lo) * Fraction(3, 8)
            sign_mid = _sign_at_fraction(work, mid)
        if sign_mid != sign_lo:
            hi = mid
        else:
            lo = mid
    return lo, hi


def signature(p):
    """(real root count, complex-conjugate pair count) of a squarefree
    integer polynomial."""
    p = p.map_ring(ZZ)
    if p.degree < 1:
        raise ZeroInput("signature of a constant")
    iso = isolate(p)
    if iso.poly.degree != p.degree:
        # isolation works on the squarefree part, which only a repeated
        # factor makes smaller
        raise NotSquarefree("signature requires a squarefree polynomial")
    return Signature(p.degree, iso.count, (p.degree - iso.count) // 2)
