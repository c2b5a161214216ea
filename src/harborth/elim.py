"""Variable elimination: resultants via subresultant polynomial remainder
sequences, a fraction-free Sylvester-determinant oracle, and a small
Buchberger engine for lexicographic Groebner bases.
"""

from __future__ import annotations

from .errors import DegreeTooLarge, ZeroInput
from .multipoly import MultiPoly, _extend, align
from .poly import Poly
from .rings import generic_exact_div


# ---------------------------------------------------------------------------
# subresultant PRS
# ---------------------------------------------------------------------------

def _strip(c):
    while c and not c[-1]:
        c.pop()
    return c


def _prem(a, b):
    """Pseudo-remainder of coefficient lists (ascending), generic domain.

    Returns lc(b)^(deg a - deg b + 1) * a mod b: the full power is
    applied even when a reduction step drops the degree by more than
    one, as the subresultant divisions rely on it."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    e = max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        la = a[-1]
        k = len(a) - 1 - db
        a = [c * lb for c in a]
        for i in range(db + 1):
            a[k + i] = a[k + i] - la * b[i]
        _strip(a)
        e -= 1
    for _ in range(e):
        a = [c * lb for c in a]
    return a


def _resultant_lists(a, b, one, zero):
    """Resultant of two coefficient lists over an integral domain."""
    if not a or not b:
        raise ZeroInput("resultant of the zero polynomial")
    sign = 1
    if len(a) < len(b):
        if ((len(a) - 1) * (len(b) - 1)) % 2:
            sign = -sign
        a, b = b, a
    if len(b) == 1:
        return _pow(b[0], len(a) - 1, one) * (one if sign > 0 else -one)
    g = one
    h = one
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if (da % 2) and (db % 2):
            sign = -sign
        r = _prem(a, b)
        if not r:
            return zero  # positive-degree common factor
        divisor = g * _pow(h, delta, one)
        a = b
        b = [generic_exact_div(c, divisor) for c in r]
        g = a[-1]
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            h = g
        else:
            h = generic_exact_div(_pow(g, delta, one), _pow(h, delta - 1, one))
        if len(b) == 1:
            da = len(a) - 1
            if da == 1:
                res = b[0]
            else:
                res = generic_exact_div(_pow(b[0], da, one), _pow(h, da - 1, one))
            return res if sign > 0 else -res


def _pow(x, n, one):
    r = one
    for _ in range(n):
        r = r * x
    return r


def resultant(p, q, var):
    """Res_var(p, q) by subresultant PRS.

    Accepts Poly (returns a scalar) or MultiPoly (returns a MultiPoly in the
    remaining variables).
    """
    if isinstance(p, Poly) and isinstance(q, Poly):
        ring = p.ring
        if p.is_zero() or q.is_zero():
            raise ZeroInput("resultant of the zero polynomial")
        return _resultant_lists(list(p.coeffs), list(q.coeffs), ring.one, ring.zero)
    if isinstance(p, Poly):
        p = MultiPoly.from_poly(p)
    if isinstance(q, Poly):
        q = MultiPoly.from_poly(q)
    p, q = align(p, q)
    if p.is_zero() or q.is_zero():
        raise ZeroInput("resultant of the zero polynomial")
    a = p.coefficients_in(var)
    b = q.coefficients_in(var)
    rest = tuple(v for v in p.vars if v != var)
    one = MultiPoly.constant(p.ring, rest, p.ring.one)
    zero = MultiPoly(p.ring, rest, {})
    return _resultant_lists(a, b, one, zero)


def multipoly_gcd(p, q, var):
    """Gcd of two multivariate polynomials with respect to one variable.

    Primitive pseudo-remainder sequence over the polynomial coefficient
    ring; the result is integer-primitive but may carry polynomial content
    in the remaining variables."""
    p, q = align(p, q)
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    a = p.coefficients_in(var)
    b = q.coefficients_in(var)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _strip(_prem(a, b))
        if not r:
            break
        rm = MultiPoly.from_coefficients(r, var, p.vars).primitive_part()
        a, b = b, rm.coefficients_in(var)
        if len(b) == 1:
            return MultiPoly.constant(p.ring, p.vars, p.ring.one)
    return MultiPoly.from_coefficients(b, var, p.vars).primitive_part()


def _derivative_in(p, var):
    i = list(p.vars).index(var)
    terms = {}
    for e, c in p.terms.items():
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
    return MultiPoly(p.ring, p.vars, terms)


def var_content(p, var, other):
    """Primitive gcd of the nonzero coefficients of p in `var`, as a
    polynomial in `other`, the only other variable occurring in p."""
    cont = None
    for c in p.coefficients_in(var):
        if c:
            cp = c.to_poly(other)
            cont = cp if cont is None else cont.gcd(cp)
            if cont.degree == 0:
                break
    return cont.primitive_part()


def drop_var_content(p, var):
    """p divided by its content in `var`, when one other variable occurs."""
    rest = [v for v in p.vars if v != var and p.degree(v) > 0]
    if len(rest) != 1:
        return p
    cont = var_content(p, var, rest[0])
    if cont.degree < 1:
        return p
    return p.exact_div(MultiPoly.from_poly(cont, p.vars)).primitive_part()


def squarefree_part(p, var):
    """Repeated factors in `var` removed (the input must be primitive).

    When at most one other variable occurs, it is first specialized at the
    first integer t >= 2 that keeps the degree in `var`.  A repeated factor
    of positive degree in `var` survives such a specialization, so a
    squarefree image proves p squarefree without the gcd."""
    rest = [v for v in p.vars if v != var and p.degree(v) > 0]
    if p and len(rest) <= 1:
        coeffs = [c.to_poly() for c in p.coefficients_in(var)]
        t = 2
        while not coeffs[-1].eval(t):
            t += 1
        if Poly(p.ring, [c.eval(t) for c in coeffs], var).is_squarefree():
            return p
    g = multipoly_gcd(p, _derivative_in(p, var), var)
    if g.degree(var) < 1:
        return p
    g = drop_var_content(g, var)
    out = p.exact_div(g).primitive_part()
    return drop_var_content(out, var)


def sylvester_matrix(p, q):
    """Sylvester matrix of two univariate polynomials (rows as lists)."""
    m, n = p.degree, q.degree
    size = m + n
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([p.ring.zero] * i + pc + [p.ring.zero] * (n - 1 - i))
    for i in range(m):
        rows.append([q.ring.zero] * i + qc + [q.ring.zero] * (m - 1 - i))
    return rows, size


def sylvester_resultant_oracle(p, q, max_degree=8):
    """Independent oracle: Sylvester determinant by fraction-free Gaussian
    elimination (Bareiss).  Guarded to small degrees; test-scale only."""
    if p.degree > max_degree or q.degree > max_degree:
        raise DegreeTooLarge("oracle guard: degrees must be <= %d" % max_degree)
    if p.is_zero() or q.is_zero():
        raise ZeroInput("resultant of the zero polynomial")
    if p.degree == 0:
        return _pow(p.lc, q.degree, p.ring.one)
    if q.degree == 0:
        return _pow(q.lc, p.degree, q.ring.one)
    rows, size = sylvester_matrix(p, q)
    return _bareiss_det(rows, size, p.ring.one)


def _bareiss_det(rows, n, one):
    sign = 1
    prev = one
    for k in range(n - 1):
        if not rows[k][k]:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return rows[0][0] - rows[0][0]  # a zero of the right type
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                rows[i][j] = generic_exact_div(num, prev)
            rows[i][k] = rows[i][k] - rows[i][k]
        prev = rows[k][k]
    det = rows[n - 1][n - 1]
    return det if sign > 0 else -det


# ---------------------------------------------------------------------------
# Buchberger (lexicographic order; earlier variables in the tuple are greater)
# ---------------------------------------------------------------------------

def _lt(p):
    e = max(p.terms)
    return e, p.terms[e]


def _monomial_div(e1, e2):
    if all(x >= y for x, y in zip(e1, e2)):
        return tuple(x - y for x, y in zip(e1, e2))
    return None


def _lcm_exp(e1, e2):
    return tuple(max(x, y) for x, y in zip(e1, e2))


def normal_form(p, basis):
    """Full reduction of p modulo basis (field coefficients)."""
    ring = p.ring
    rem = dict(p.terms)
    out = {}
    lts = [(_lt(g), g) for g in basis if g]
    while rem:
        e = max(rem)
        c = rem.pop(e)
        for (ge, gc), g in lts:
            q = _monomial_div(e, ge)
            if q is not None:
                factor = ring.exact_div(c, gc)
                for e2, c2 in g.terms.items():
                    te = tuple(x + y for x, y in zip(q, e2))
                    if te == e:
                        continue
                    cur = rem.get(te, ring.zero) - factor * c2
                    if cur:
                        rem[te] = cur
                    else:
                        rem.pop(te, None)
                break
        else:
            out[e] = c
    return MultiPoly(ring, p.vars, out)


def _s_poly(f, g):
    ring = f.ring
    (fe, fc), (ge, gc) = _lt(f), _lt(g)
    l = _lcm_exp(fe, ge)
    mf = tuple(x - y for x, y in zip(l, fe))
    mg = tuple(x - y for x, y in zip(l, ge))
    tf = MultiPoly(ring, f.vars, {mf: ring.exact_div(ring.one, fc)})
    tg = MultiPoly(ring, g.vars, {mg: ring.exact_div(ring.one, gc)})
    return tf * f - tg * g


def _monic(p):
    if not p:
        return p
    _, c = _lt(p)
    inv = p.ring.exact_div(p.ring.one, c)
    return MultiPoly(p.ring, p.vars, {e: x * inv for e, x in p.terms.items()})


def groebner(gens, order=None):
    """Reduced lexicographic Groebner basis.

    `order` fixes the variable tuple (first variable greatest); defaults to
    the variables of the first generator.  Coefficients are moved to the
    fraction field.  The zero ideal yields [].
    """
    gens = [g.to_field() if isinstance(g, MultiPoly) else
            MultiPoly.from_poly(g).to_field() for g in gens]
    gens = [g for g in gens if g]
    if not gens:
        return []
    if order:
        vars = tuple(order)
    else:
        acc = gens[0]
        for g in gens[1:]:
            acc, _ = align(acc, g)
        vars = acc.vars
    gens = [_extend(g, vars) for g in gens]
    basis = [_monic(g) for g in gens]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    # sugar-flavoured selection: smallest lcm of leading monomials first
    while pairs:
        pairs.sort(key=lambda ij: sum(_lcm_exp(_lt(basis[ij[0]])[0],
                                               _lt(basis[ij[1]])[0])))
        i, j = pairs.pop(0)
        fe, ge = _lt(basis[i])[0], _lt(basis[j])[0]
        if _lcm_exp(fe, ge) == tuple(x + y for x, y in zip(fe, ge)):
            continue  # coprime leading monomials: S-poly reduces to zero
        s = normal_form(_s_poly(basis[i], basis[j]), basis)
        if s:
            s = _monic(s)
            basis.append(s)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # minimalize: ascending lex keeps divisor leading monomials first
    minimal = []
    for g in sorted(basis, key=lambda g: _lt(g)[0]):
        ge = _lt(g)[0]
        if any(_monomial_div(ge, _lt(h)[0]) is not None for h in minimal):
            continue
        minimal.append(g)
    # interreduce
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others)
        if r:
            reduced.append(_monic(r))
    reduced.sort(key=lambda g: _lt(g)[0])
    return reduced


def groebner_contains(basis, p):
    """True if p reduces to zero modulo the basis."""
    p = p.to_field() if isinstance(p, MultiPoly) else MultiPoly.from_poly(p).to_field()
    if not basis:
        return not p
    p = _extend(p, basis[0].vars)
    return not normal_form(p, basis)
