"""Dense polynomial arithmetic over GF(p), used by the factorization engine.

Polynomials are lists of ints in [0, p) ascending by degree, no trailing
zeros.  p is an odd prime throughout.
"""

from __future__ import annotations

import random


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def gf_from_int_poly(coeffs, p):
    return trim([c % p for c in coeffs])


def gf_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def gf_sub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return trim(out)


def gf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return trim([c % p for c in out])


def gf_scale(a, s, p):
    s %= p
    return trim([c * s % p for c in a])


def gf_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return gf_scale(a, inv, p)


def gf_divmod(a, b, p):
    """Division with remainder; also valid modulo a prime power as long as
    the divisor's leading coefficient is invertible."""
    if not b:
        raise ZeroDivisionError
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv % p
        k = len(a) - 1 - db
        q[k] = c
        for i in range(db + 1):
            a[k + i] = (a[k + i] - c * b[i]) % p
        trim(a)
    return trim(q), a


def gf_rem(a, b, p):
    return gf_divmod(a, b, p)[1]


def gf_gcd(a, b, p):
    while b:
        a, b = b, gf_rem(a, b, p)
    return gf_monic(a, p)


def gf_ext_gcd(a, b, p):
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, p), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        r0 = gf_scale(r0, inv, p)
        s0 = gf_scale(s0, inv, p)
        t0 = gf_scale(t0, inv, p)
    return r0, s0, t0


def gf_pow_mod(a, n, mod, p):
    result = [1]
    base = gf_rem(a, mod, p)
    while n:
        if n & 1:
            result = gf_rem(gf_mul(result, base, p), mod, p)
        base = gf_rem(gf_mul(base, base, p), mod, p)
        n >>= 1
    return result


def gf_deriv(a, p):
    return trim([a[i] * i % p for i in range(1, len(a))])


def gf_is_squarefree(a, p):
    g = gf_gcd(a, gf_deriv(a, p), p)
    return len(g) == 1


def gf_factor_squarefree(a, p):
    """Distinct-degree then equal-degree splitting of a squarefree monic
    polynomial; returns the sorted list of monic irreducible factors."""
    a = gf_monic(a, p)
    out = []
    x = [0, 1]
    h = x
    f = a
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = gf_pow_mod(h, p, f, p)
        g = gf_gcd(gf_sub(h, x, p), f, p)
        if len(g) > 1:
            out.extend(_equal_degree_split(g, d, p))
            f, _ = gf_divmod(f, g, p)
            h = gf_rem(h, f, p)
    if len(f) > 1:
        out.append(f)
    out.sort(key=lambda q: (len(q), q[::-1]))
    return out


def _equal_degree_split(f, d, p):
    n = len(f) - 1
    if n == d:
        return [f]
    rng = random.Random((0, p, n, d, tuple(f)).__hash__())
    while True:
        r = [rng.randrange(p) for _ in range(n)] + [1]
        g = gf_gcd(r, f, p)
        if 1 < len(g) < len(f):
            break
        e = (p ** d - 1) // 2
        b = gf_pow_mod(r, e, f, p)
        g = gf_gcd(gf_sub(b, [1], p), f, p)
        if 1 < len(g) < len(f):
            break
    q, _ = gf_divmod(f, g, p)
    return _equal_degree_split(g, d, p) + _equal_degree_split(q, d, p)
