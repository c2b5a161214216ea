"""Exact factorization and reconstruction.

Four engines live here:

* factor_z          -- univariate over Z (modular factorization, Hensel
                       lifting to a height bound, subset recombination);
* factor_zsqrt3     -- univariate over Z[sqrt(3)] via the norm map down to Z;
* factor_bivariate  -- bivariate over Z or Z[sqrt(3)] by specializing the
                       parameter, factoring the image and lifting each
                       candidate back as a power series in the parameter;
* even_reconstruct  -- integer-relation (PSLQ) reconstruction of an even
                       minimal polynomial from high-precision enclosures of
                       the square of the number, at a known half-degree,
                       rechecked on a sharper enclosure and certified
                       irreducible.  That it vanishes at the number is a
                       numerical finding: callers prove it exactly (by
                       exact division or an algebraic zero test).

select_factor picks the unique factor vanishing at an interval witness, and
irreducibility_certificate records why a polynomial admits no proper factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt

from .dyadic import DyadicInterval
from .elim import drop_var_content, var_content
from .errors import (Ambiguous, DegreeBoundExceeded, NotDivisible,
                     NotIrreducible, UnluckySpecializations, ZeroInput)
from .gfp import (gf_ext_gcd, gf_factor_squarefree, gf_from_int_poly,
                  gf_is_squarefree, gf_monic, gf_mul, gf_scale)
from .gfp import gf_add as _madd
from .gfp import gf_divmod as _mdivmod
from .gfp import gf_sub as _msub
from .multipoly import MultiPoly, _extend
from .poly import Poly, poly_Z
from .quadratic import QuadInt, QuadRat
from .rings import QQ, QS3, ZS3, ZZ, field_of, integral_of


@dataclass(frozen=True)
class FactorizationResult:
    """content * prod(f**m for f, m in factors) == the input, exactly."""
    content: object                 # int or QuadInt scalar
    factors: tuple                  # ((Poly-or-MultiPoly, multiplicity), ...)

    def expand(self):
        acc = _product(self.factors)
        if acc is None:
            raise ZeroInput("empty factorization has no canonical expansion")
        return acc * self.content

    def verify(self, original):
        if not self.factors:
            if isinstance(original, Poly):
                return original == Poly(original.ring, [self.content], original.var)
            return original == MultiPoly.constant(original.ring, original.vars,
                                                  self.content)
        return self.expand() == original


def _product(factors):
    """prod(f**m for f, m in factors), or None when there are none."""
    prod = None
    for f, m in factors:
        part = f ** m
        prod = part if prod is None else prod * part
    return prod


def _coeff_key(c):
    return (c.a, c.b) if isinstance(c, QuadInt) else (c,)


@dataclass(frozen=True)
class IrreducibilityCertificate:
    degree: int
    method: str          # "linear" | "modular-degrees" | "bounded-recombination"
    primes: tuple
    degree_sets: tuple   # per prime, the sorted modular factor degrees


# ---------------------------------------------------------------------------
# factorization over Z
# ---------------------------------------------------------------------------

def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _odd_primes():
    return filter(_is_prime, itertools.count(3, 2))


def _sym(c, m):
    c %= m
    return c - m if 2 * c > m else c


def _modular_samples(f, want=5, skip=()):
    """(prime, monic modular factors) for primes where f stays squarefree."""
    out = []
    for p in _odd_primes():
        if f.lc % p == 0 or p in skip:
            continue
        fp = gf_from_int_poly(f.coeffs, p)
        if not gf_is_squarefree(fp, p):
            continue
        out.append((p, gf_factor_squarefree(gf_monic(fp, p), p)))
        if len(out) == want or len(out[-1][1]) == 1:
            break
    return out


def _degree_mask(samples, n):
    allowed = (1 << (n + 1)) - 1
    for _, facs in samples:
        bits = 1
        for g in facs:
            bits |= bits << (len(g) - 1)
        allowed &= bits
    return allowed


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lifting step: from modulus m to m*m.

    Requires f == g*h (mod m), s*g + t*h == 1 (mod m), h monic and
    lc(g) == lc(f) invertible.  Returns the lifted quadruple.
    """
    m2 = m * m
    fm = [c % m2 for c in f]
    e = _msub(fm, gf_mul(g, h, m2), m2)
    q, r = _mdivmod(gf_mul(s, e, m2), h, m2)
    g1 = _madd(g, _madd(gf_mul(t, e, m2), gf_mul(q, g, m2), m2), m2)
    h1 = _madd(h, r, m2)
    b = _msub(_madd(gf_mul(s, g1, m2), gf_mul(t, h1, m2), m2), [1], m2)
    c, d = _mdivmod(gf_mul(s, b, m2), h1, m2)
    s1 = _msub(s, d, m2)
    t1 = _msub(_msub(t, gf_mul(t, b, m2), m2), gf_mul(c, g1, m2), m2)
    if len(g1) != len(g) or len(h1) != len(h):
        raise ArithmeticError("Hensel step lost a degree")
    return g1, h1, s1, t1


def _lift_tree(f, gs, p, M):
    """Lift f == lc(f) * prod(gs) from mod p to mod M == p**(2**L).

    f is an integer coefficient list, gs are monic mod p.  Returns the list
    of monic lifted factors mod M, in the order of gs.
    """
    if len(gs) == 1:
        fm = [c % M for c in f]
        inv = pow(fm[-1], -1, M)
        return [gf_scale(fm, inv, M)]
    k = len(gs) // 2
    g = [f[-1] % p]
    for gi in gs[:k]:
        g = gf_mul(g, gi, p)
    h = [1]
    for gi in gs[k:]:
        h = gf_mul(h, gi, p)
    unit, s, t = gf_ext_gcd(g, h, p)
    if unit != [1]:
        raise ArithmeticError("local factors are not coprime")
    m = p
    while m < M:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _lift_tree(g, gs[:k], p, M) + _lift_tree(h, gs[k:], p, M)


def _recombine(f, lifted, m, allowed):
    """True factors of f from lifted modular factors, smallest subsets first."""
    factors = []
    pool = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(pool):
        hit = None
        for combo in itertools.combinations(pool, size):
            deg = sum(len(lifted[i]) - 1 for i in combo)
            if not (allowed >> deg) & 1:
                continue
            tc = f.lc
            for i in combo:
                tc = tc * lifted[i][0] % m
            tc = _sym(tc, m)
            if tc == 0 or (f.lc * f.coeff(0)) % tc:
                continue
            gl = [f.lc % m]
            for i in combo:
                gl = gf_mul(gl, lifted[i], m)
            g = poly_Z([_sym(c, m) for c in gl], f.var).primitive_part()
            if g.degree >= 1 and g.divides(f):
                hit = (combo, g)
                break
        if hit is None:
            size += 1
            continue
        combo, g = hit
        factors.append(g)
        f = f.exact_div(g)
        pool = [i for i in pool if i not in combo]
    if f.degree >= 1:
        factors.append(f.primitive_part())
    return factors


def _zassenhaus(f):
    """Irreducible factors of a primitive squarefree f over Z, f(0) != 0."""
    n = f.degree
    if n == 1:
        return [f]
    samples = _modular_samples(f)
    if not samples:
        raise ArithmeticError("no usable prime found for %r" % (f,))
    if min(len(facs) for _, facs in samples) == 1:
        return [f]
    allowed = _degree_mask(samples, n)
    if allowed & ~(1 | (1 << n)) == 0:
        return [f]
    p, facs = min(samples, key=lambda s: (len(s[1]), s[0]))
    height = max(abs(c) for c in f.coeffs)
    bound = 2 * (isqrt(n + 1) + 1) * (1 << n) * height * abs(f.lc) + 1
    M = p
    while M < bound:
        M *= M
    lifted = _lift_tree(list(f.coeffs), facs, p, M)
    return _recombine(f, lifted, M, allowed)


def factor_z(p):
    """Complete factorization over Z into primitive irreducible factors with
    positive leading coefficients, sorted by (degree, coefficients)."""
    return _factor_univariate(
        p.map_ring(ZZ), lambda part: _zassenhaus(part.clear_denominators()))


def _factor_univariate(p, split):
    """Factorization of p over its (integral) ring; `split` maps a monic
    squarefree part of positive degree to its irreducible factors."""
    if p.is_zero():
        raise ZeroInput("cannot factor the zero polynomial")
    if p.degree == 0:
        return FactorizationResult(p.coeff(0), ())
    factors = []
    coeffs = list(p.coeffs)
    shift = 0
    while not coeffs[0]:
        coeffs.pop(0)
        shift += 1
    if shift:
        factors.append((Poly(p.ring, [0, 1], p.var), shift))
    core = Poly(p.ring, coeffs, p.var)
    if core.degree >= 1:
        for part, mult in core.squarefree_decomposition():
            factors.extend((irr, mult) for irr in split(part))
    factors.sort(key=lambda fm: (fm[0].degree,
                                 tuple(map(_coeff_key, fm[0].coeffs))))
    q = p.exact_div(_product(factors))
    if q.degree != 0:
        raise ArithmeticError("content quotient is not a scalar")
    result = FactorizationResult(q.coeff(0), tuple(factors))
    if not result.verify(p):
        raise ArithmeticError("factorization failed to reassemble")
    return result


def irreducibility_certificate(p, prime_budget=8):
    """Certificate that p is irreducible over Q, or NotIrreducible.

    Two certifying arguments: the subset sums of modular factor degrees
    rule out every proper factor degree ("modular-degrees"), or a full
    factorization with recombination up to the height bound returns a
    single factor ("bounded-recombination").
    """
    p = p.map_ring(ZZ).primitive_part()
    n = p.degree
    if n < 1:
        raise NotIrreducible("constants are not irreducible")
    if n == 1:
        return IrreducibilityCertificate(1, "linear", (), ())
    if p.coeff(0) == 0 or not p.is_squarefree():
        raise NotIrreducible("divisible by its variable or a square")
    samples = _modular_samples(p, want=prime_budget)
    primes = tuple(q for q, _ in samples)
    degree_sets = tuple(tuple(len(g) - 1 for g in facs) for _, facs in samples)
    allowed = _degree_mask(samples, n)
    if samples and allowed & ~(1 | (1 << n)) == 0:
        return IrreducibilityCertificate(n, "modular-degrees", primes, degree_sets)
    if len(_zassenhaus(p)) == 1:
        return IrreducibilityCertificate(n, "bounded-recombination",
                                         primes, degree_sets)
    raise NotIrreducible("%r has a proper factor" % (p,))


# ---------------------------------------------------------------------------
# factorization over Z[sqrt(3)]
# ---------------------------------------------------------------------------

def factor_zsqrt3(p):
    """Complete factorization over Z[sqrt(3)] via norms down to Z.

    Factors are primitive with canonical leading unit; the content is the
    exact scalar quotient (a QuadInt, not necessarily +-1)."""
    return _factor_univariate(p.map_ring(ZS3), _norm_factor)


def _norm_factor(f):
    """Irreducible factors of a monic squarefree f over Q(sqrt(3)).

    Shift the argument by multiples of sqrt(3) until the norm
    f(x - s*sqrt(3)) * conj is squarefree over Q, factor that norm over Z,
    and intersect each piece with f."""
    if f.degree == 1:
        return [f.clear_denominators()]
    for s in range(32):
        offset = QuadRat(QuadInt(0, -s))
        fs = f.shift_argument(offset)
        norm = fs * fs.conj()  # invariant under conjugation: rational
        N = Poly(QQ, [c.as_fraction() for c in norm.coeffs],
                 f.var).clear_denominators()
        if N.is_squarefree():
            break
    else:
        raise UnluckySpecializations("no squarefree norm after 32 shifts")
    out = []
    back = QuadRat(QuadInt(0, s))
    for Ni, _ in factor_z(N).factors:
        h = fs.gcd(Ni.map_ring(QS3).with_var(f.var))
        if h.degree >= 1:
            out.append(h.shift_argument(back).clear_denominators())
    return out


# ---------------------------------------------------------------------------
# bivariate factorization
# ---------------------------------------------------------------------------

def factor_bivariate(F, var, param, max_tries=12):
    """Factor a bivariate polynomial over Z or Z[sqrt(3)].

    The primitive part must be squarefree.  Content with respect to `var`
    (a polynomial in `param` alone) is split off and factored univariately;
    the remainder is factored by specializing `param` to a small integer,
    factoring the image, and lifting candidate subsets back as power series
    in `param` around the specialization point."""
    ring = integral_of(F.ring)
    work = F.map_ring(ring) if F.ring is ring else F.clear_denominators()
    work = _extend(work, _two_vars(work, var, param))
    if work.is_zero():
        raise ZeroInput("cannot factor the zero polynomial")
    factors = []
    cont = var_content(work, var, param)
    if cont.degree >= 1:
        work = work.exact_div(MultiPoly.from_poly(cont, work.vars))
        uni = factor_z(cont) if ring is ZZ else factor_zsqrt3(cont)
        for g, m in uni.factors:
            factors.append((MultiPoly.from_poly(g.with_var(param), work.vars), m))
    if work.degree(var) >= 1:
        for g in _bifactor_core(work.primitive_part(), var, param, max_tries):
            factors.append((g, 1))
    elif not work.is_constant():
        raise ValueError("no occurrence of %r after content removal" % var)
    factors.sort(key=_mp_sort_key)
    prod = _product(factors)
    original = _extend(F, work.vars).map_ring(ring) if F.ring is ring else work
    content_mp = original.exact_div(prod) if prod is not None else original
    if not content_mp.is_constant():
        raise ArithmeticError("factorization failed to reassemble")
    result = FactorizationResult(content_mp.constant_value(), tuple(factors))
    return result


def _mp_sort_key(fm):
    g, _ = fm
    return (g.total_degree(),
            sorted((e, _coeff_key(c)) for e, c in g.terms.items()))


def _two_vars(F, var, param):
    occurring = [v for v in F.vars if F.degree(v) > 0]
    extra = [v for v in occurring if v not in (var, param)]
    if extra:
        raise ValueError("unexpected variables %r" % extra)
    return (var, param)


def _bifactor_core(F, var, param, max_tries):
    """Irreducible factors of a primitive squarefree bivariate polynomial."""
    ring = F.ring
    K = field_of(ring)
    n = F.degree(var)
    lead = F.coefficients_in(var)[n].to_poly(param)
    t0 = None
    tried = 0
    for cand in _specialization_points():
        if tried >= max_tries:
            break
        point = ring.coerce(cand)
        if not lead.eval(point):
            continue
        tried += 1
        f0 = F.substitute(param, point).to_poly(var)
        if f0.is_squarefree():
            t0 = cand
            break
    if t0 is None:
        raise UnluckySpecializations(
            "no squarefree specialization in %d tries" % max_tries)
    uni = factor_z(f0) if ring is ZZ else factor_zsqrt3(f0)
    images = [g for g, _ in uni.factors]
    if len(images) == 1:
        return [F]

    # make the polynomial monic in `var`: Fm = sum c_i * L^(n-1-i) * var^i
    vars2 = (var, param)
    Ff = _extend(F, vars2).to_field()
    Lf = MultiPoly.from_poly(lead.with_var(param), vars2).to_field()
    v_mp = MultiPoly.variable(K, vars2, var)
    coeffs = Ff.coefficients_in(var)
    Fm = v_mp ** n
    for i, ci in enumerate(coeffs[:n]):
        Fm = Fm + _extend(ci, vars2) * Lf ** (n - 1 - i) * v_mp ** i
    D = Fm.degree(param)
    lt0 = K.coerce(lead.eval(ring.coerce(t0)))
    images_m = [g.map_ring(K).scale_argument(K.exact_div(K.one, lt0)).monic()
                for g in images]

    r = len(images_m)
    for size in range(1, r // 2 + 1):
        for combo in itertools.combinations(range(r), size):
            g_series = _lift_candidate(Fm, images_m, combo, var, param, t0, D)
            if g_series is None:
                continue
            try:
                Fm.exact_div(g_series)
            except NotDivisible:
                continue
            # undo the monicization: v -> L*v, then strip the junk the
            # leading coefficient substitution drags in (integer content
            # and polynomial content in the parameter)
            raw = g_series.substitute(var, Lf * v_mp)
            fac = drop_var_content(_extend(raw, vars2).clear_denominators(),
                                   var)
            try:
                cof = _extend(F, vars2).exact_div(fac)
            except NotDivisible:
                continue
            return [fac] + _bifactor_core(cof.primitive_part(), var, param,
                                          max_tries)
    return [F]


def _specialization_points():
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _lift_candidate(Fm, images_m, combo, var, param, t0, D):
    """Lift the subset product of specialized factors to a series factor of
    Fm in powers of (param - t0), truncated at the exact degree bound D.
    Returns the candidate as a MultiPoly in (var, param), or None when the
    lift is inconsistent."""
    K = Fm.ring
    one = Poly(K, [K.one], var)
    g0 = one
    h0 = one
    for i, g in enumerate(images_m):
        if i in combo:
            g0 = g0 * g
        else:
            h0 = h0 * g
    _, s, t = _poly_ext_gcd(g0, h0)

    u = "#u"
    vars3 = (var, u)
    u_mp = MultiPoly.variable(K, vars3, u)
    t_shift = MultiPoly.variable(K, vars3, u) + K.coerce(t0)
    Fu = _extend(Fm, (var, param)).substitute(param, t_shift)
    Fu = _extend(Fu, vars3)
    g = MultiPoly.from_poly(g0, vars3)
    h = MultiPoly.from_poly(h0, vars3)
    for j in range(1, D + 1):
        diff = Fu - g * h
        e = _series_coeff(diff, u, j, var)
        if e.is_zero():
            continue
        B = (s * e) % h0
        A = (e - B * g0).to_field().exact_div(h0.to_field())
        g = g + u_mp ** j * MultiPoly.from_poly(A.with_var(var), vars3)
        h = h + u_mp ** j * MultiPoly.from_poly(B.with_var(var), vars3)
    if _truncate(Fu - g * h, u, D + 1):
        return None
    back = MultiPoly.variable(K, (var, param), param) - K.coerce(t0)
    return _extend(g.substitute(u, back), (var, param))


def _series_coeff(mp, u, j, var):
    i = list(mp.vars).index(u)
    terms = {}
    for e, c in mp.terms.items():
        if e[i] == j:
            terms[tuple(x for k, x in enumerate(e) if k != i)] = c
    rest = tuple(v for v in mp.vars if v != u)
    return MultiPoly(mp.ring, rest, terms).to_poly(var)


def _truncate(mp, u, order):
    i = list(mp.vars).index(u)
    return MultiPoly(mp.ring, mp.vars,
                     {e: c for e, c in mp.terms.items() if e[i] < order})


def _poly_ext_gcd(a, b):
    """(g, s, t) over a field with s*a + t*b == g, g monic."""
    K = a.ring
    zero, one = Poly(K, [], a.var), Poly(K, [K.one], a.var)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0.is_zero():
        inv = K.exact_div(K.one, r0.lc)
        r0, s0, t0 = r0 * inv, s0 * inv, t0 * inv
    return r0, s0, t0


# ---------------------------------------------------------------------------
# reconstruction and selection
# ---------------------------------------------------------------------------

def even_reconstruct(square_sample, half_degree, var, digits):
    """Even irreducible integer polynomial vanishing on the sampled value.

    square_sample(digits) must return an enclosure of the *square* of the
    target number with width below 10**-digits.  The relation is searched
    at the exact half-degree in the square, re-checked on a sharper
    enclosure, and returned as an even polynomial in `var`, certified
    irreducible.  This is a reconstruction, not a proof that it vanishes;
    callers prove that by exact arithmetic downstream."""
    from mpmath import mp, pslq

    iv = square_sample(digits)
    mid = iv.midpoint()
    with mp.workdps(digits + 20):
        u = mp.mpf(mid.numerator) / mid.denominator
        powers = [mp.one]
        for _ in range(half_degree):
            powers.append(powers[-1] * u)
        rel = pslq(powers, maxcoeff=10 ** (digits // 3), maxsteps=1000000)
    if rel is None:
        raise DegreeBoundExceeded(
            "no degree-%d relation for the squared sample at %d digits"
            % (half_degree, digits))
    dense = []
    for c in rel:
        dense.extend((c, 0))
    cand = poly_Z(dense[:-1], var).primitive_part()
    half = cand.even_decompose()
    sharper = square_sample(digits + digits // 2)
    if not half.eval_interval(sharper).contains_zero():
        raise DegreeBoundExceeded(
            "candidate fails the sharper enclosure recheck")
    irreducibility_certificate(cand)
    return cand


def select_factor(factors, witness, refine=None, max_prec=1 << 14):
    """The unique factor whose enclosure at the witness straddles zero.

    `witness` is a DyadicInterval (univariate factors) or a dict mapping
    variable names to intervals (multivariate); `refine` maps a precision in
    bits to a sharper witness and is used to separate multiple candidates."""
    prec = _witness_prec(witness)
    while True:
        hits = [f for f in factors if _eval_witness(f, witness).contains_zero()]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise Ambiguous("no factor vanishes at the witness")
        if refine is None or prec >= max_prec:
            raise Ambiguous("%d factors vanish at precision %d bits"
                            % (len(hits), prec))
        prec *= 2
        witness = refine(prec)


def _witness_prec(witness):
    if isinstance(witness, DyadicInterval):
        return witness.prec
    return min(iv.prec for iv in witness.values())


def _eval_witness(f, witness):
    if isinstance(f, MultiPoly):
        return f.eval_interval(witness)
    if isinstance(witness, dict):
        witness = witness[f.var]
    return f.eval_interval(witness)
