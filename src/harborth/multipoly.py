"""Sparse multivariate polynomials.

Terms map exponent vectors to nonzero coefficients.  The variable tuple is
ordered; lexicographic comparisons (used by the elimination machinery) treat
earlier variables as greater.
"""

from __future__ import annotations

from .dyadic import DyadicInterval
from .errors import NotDivisible
from .poly import Poly, _coeff_interval, _natural_ring
from .rings import (common_denominator, content_of, field_of, has_sqrt3,
                    integral_of, join)


class MultiPoly:
    __slots__ = ("ring", "vars", "terms")

    def __init__(self, ring, vars, terms):
        self.ring = ring
        self.vars = tuple(vars)
        clean = {}
        for exps, c in terms.items():
            c = ring.coerce(c)
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(ring, vars, value):
        return MultiPoly(ring, vars, {(0,) * len(vars): value})

    @staticmethod
    def variable(ring, vars, name):
        exps = [0] * len(vars)
        exps[list(vars).index(name)] = 1
        return MultiPoly(ring, vars, {tuple(exps): ring.one})

    @staticmethod
    def from_poly(p, vars=None):
        vars = vars or (p.var,)
        idx = list(vars).index(p.var)
        terms = {}
        for k, c in enumerate(p.coeffs):
            exps = [0] * len(vars)
            exps[idx] = k
            terms[tuple(exps)] = c
        return MultiPoly(p.ring, vars, terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = align(self, other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.ring.name, self.vars, tuple(sorted(self.terms.items()))))

    def degree(self, var):
        if not self.terms:
            return -1
        i = list(self.vars).index(var)
        return max(e[i] for e in self.terms)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.vars), self.ring.zero)

    def sorted_terms(self):
        return sorted(self.terms.items(), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join("%s^%d" % (v, e) if e > 1 else v
                            for v, e in zip(self.vars, exps) if e)
            parts.append("(%s)%s" % (c, "*" + mono if mono else ""))
        return " + ".join(parts)

    # -- arithmetic ----------------------------------------------------------

    def _binop_ready(self, other):
        if isinstance(other, MultiPoly):
            a, b = align(self, other)
        elif isinstance(other, Poly):
            a, b = align(self, MultiPoly.from_poly(other))
        else:
            ring = join(self.ring, _natural_ring(other))
            a = self.map_ring(ring)
            b = MultiPoly.constant(ring, a.vars, other)
        ring = join(a.ring, b.ring)
        return a.map_ring(ring), b.map_ring(ring)

    def map_ring(self, ring):
        if ring is self.ring:
            return self
        return MultiPoly(ring, self.vars, self.terms)

    def __add__(self, other):
        a, b = self._binop_ready(other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, a.ring.zero) + c
        return MultiPoly(a.ring, a.vars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return MultiPoly(self.ring, self.vars,
                         {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        a, b = self._binop_ready(other)
        terms = {}
        zero = a.ring.zero
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, zero) + c1 * c2
        return MultiPoly(a.ring, a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = MultiPoly.constant(self.ring, self.vars, self.ring.one)
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

    # -- conversions ------------------------------------------------------

    def drop_vars(self):
        """Remove variables that do not occur (keeps at least one)."""
        used = [i for i in range(len(self.vars))
                if any(e[i] for e in self.terms)]
        if not used:
            used = [0] if self.vars else []
        vars = tuple(self.vars[i] for i in used)
        terms = {tuple(e[i] for i in used): c for e, c in self.terms.items()}
        return MultiPoly(self.ring, vars, terms)

    def to_poly(self, var=None):
        """Dense univariate view; requires at most one occurring variable."""
        p = self.drop_vars()
        occurring = [v for v in p.vars if p.degree(v) > 0]
        if len(occurring) > 1:
            raise ValueError("polynomial is genuinely multivariate: %r" % occurring)
        name = var or (occurring[0] if occurring else (p.vars[0] if p.vars else "x"))
        if not p.vars:
            return Poly(self.ring, [], name)
        i = list(p.vars).index(occurring[0]) if occurring else 0
        deg = max((e[i] for e in p.terms), default=-1)
        coeffs = [self.ring.zero] * (deg + 1)
        for e, c in p.terms.items():
            coeffs[e[i]] = c
        return Poly(self.ring, coeffs, name)

    def coefficients_in(self, var):
        """Ascending coefficient list in `var`; entries are MultiPoly in the
        remaining variables."""
        i = list(self.vars).index(var)
        rest = tuple(v for v in self.vars if v != var)
        deg = self.degree(var)
        buckets = [dict() for _ in range(deg + 1)]
        for e, c in self.terms.items():
            re = tuple(x for j, x in enumerate(e) if j != i)
            buckets[e[i]][re] = c
        return [MultiPoly(self.ring, rest, b) for b in buckets]

    @staticmethod
    def from_coefficients(coeffs, var, vars):
        """Inverse of coefficients_in: coeffs are MultiPoly in vars-without-var."""
        i = list(vars).index(var)
        ring = coeffs[0].ring if coeffs else None
        terms = {}
        for k, cp in enumerate(coeffs):
            for e, c in cp.terms.items():
                full = list(e[:i]) + [k] + list(e[i:])
                terms[tuple(full)] = c
        return MultiPoly(ring, vars, terms)

    def substitute(self, name, value):
        """Substitute a scalar, Poly or MultiPoly for a variable."""
        if isinstance(value, Poly):
            value = MultiPoly.from_poly(value)
        if not isinstance(value, MultiPoly):
            ring = join(self.ring, _natural_ring(value))
            value = MultiPoly.constant(ring, self.vars, value)
        coeffs = self.coefficients_in(name)
        rest = tuple(v for v in self.vars if v != name)
        acc = None
        for c in reversed(coeffs):
            term = MultiPoly(c.ring, rest, c.terms)
            acc = term if acc is None else acc * value + term
        if acc is None:
            return MultiPoly(self.ring, rest, {})
        return acc

    def eval_interval(self, assignment):
        """Enclosure of the polynomial over interval-valued variables."""
        precs = [iv.prec for iv in assignment.values()]
        prec = min(precs) if precs else 128
        sqrt3 = DyadicInterval.from_int(3, prec).sqrt() if has_sqrt3(self.ring) else None
        total = DyadicInterval.from_int(0, prec)
        for e, c in self.sorted_terms():
            term = _coeff_interval(c, prec, sqrt3)
            for v, k in zip(self.vars, e):
                if k:
                    iv = assignment[v]
                    for _ in range(k):
                        term = term * iv
            total = total + term
        return total

    # -- ring-style operations -------------------------------------------

    def content(self):
        return content_of(self.terms.values())

    def primitive_part(self):
        c = self.content()
        if c in (0, 1):
            p = self
        else:
            p = MultiPoly(self.ring, self.vars,
                          {e: self.ring.exact_div(x, self.ring.coerce(c))
                           for e, x in self.terms.items()})
        lt = p.leading_term()
        if lt is None:
            return p
        u = self.ring.unit_normal(lt[1])
        if u != self.ring.one:
            p = MultiPoly(p.ring, p.vars, {e: x * u for e, x in p.terms.items()})
        return p

    def leading_term(self):
        """Lex-leading (exponent, coefficient) or None."""
        if not self.terms:
            return None
        e = max(self.terms)
        return e, self.terms[e]

    def exact_div(self, other):
        a, b = self._binop_ready(other)
        ring = a.ring
        lt = b.leading_term()
        if lt is None:
            raise ZeroDivisionError("division by the zero polynomial")
        le, lcb = lt
        rem = dict(a.terms)
        out = {}
        while rem:
            me = max(rem)
            if any(x < y for x, y in zip(me, le)):
                raise NotDivisible("leading monomial not divisible")
            qe = tuple(x - y for x, y in zip(me, le))
            qc = ring.exact_div(rem[me], lcb)
            out[qe] = qc
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(qe, e2))
                new = rem.get(e, ring.zero) - qc * c2
                if new:
                    rem[e] = new
                else:
                    rem.pop(e, None)
        return MultiPoly(ring, a.vars, out)

    def conj(self):
        return MultiPoly(self.ring, self.vars,
                         {e: self.ring.conj(c) for e, c in self.terms.items()})

    def to_field(self):
        return self.map_ring(field_of(self.ring))

    def clear_denominators(self):
        ring = integral_of(self.ring)
        den = common_denominator(self.terms.values())
        scaled = MultiPoly(ring, self.vars,
                           {e: c * den for e, c in self.terms.items()})
        return scaled.primitive_part()


def align(a, b):
    """Common variable tuple: a's order, then b's extras appended."""
    if a.vars == b.vars:
        return a, b
    vars = list(a.vars) + [v for v in b.vars if v not in a.vars]
    return _extend(a, vars), _extend(b, vars)


def _extend(p, vars):
    if tuple(vars) == p.vars:
        return p
    pos = [list(vars).index(v) for v in p.vars]
    terms = {}
    for e, c in p.terms.items():
        full = [0] * len(vars)
        for j, x in zip(pos, e):
            full[j] = x
        terms[tuple(full)] = c
    return MultiPoly(p.ring, vars, terms)
