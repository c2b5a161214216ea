"""Exact arithmetic in the radical tower housing the construction coordinates.

The base (level -1) is Q[T]/(P) for the degree-22 parameter minimal
polynomial P; on top sit four square roots g_0 .. g_3 (sqrt(3), the
triangle height, the circle-intersection offset, and the upper-circle
radicand) as nested quadratic extensions.  An element of level k is
a + b*g_k with a, b of lower level and b nonzero: it is stored at the
level of its highest root, and (a + b g)(c + d g) = (ac + bd g^2) +
(ad + bc) g with g^2 the lower-level square of g.

A base residue is a pair (nums, den): the integer coefficients of a
polynomial of degree below n = deg P in the basis 1, T, ..., T^(n-1),
over one positive integer denominator.  Residues are canonical -- no
trailing zero coefficient, gcd(content, den) == 1, and zero is the one
value None -- so equality and the formal zero verdicts are exact tuple
comparisons.  A product is an integer convolution followed by one pass
over a table of the integer rows L^(n-1) T^(n+k) mod P (L the leading
coefficient of the primitive integer P), precomputed per tower, so
multiplication never builds a Fraction.  Residues become Q-polynomials
only at the edges: `Tower.base`, `TowerElement.base_poly`, and the
inverse of a base element.

Zero decisions are exact: multiplying by the conjugate (b negated) at
the top level, level by level, descends to the base ring, where vanishing
modulo the irreducible base modulus decides vanishing at the embedded
point (the conjugate cofactors are interval-checked nonzero for the zero
verdict).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .dyadic import DEFAULT_PREC, DyadicInterval
from .factor import _poly_ext_gcd
from .geometry import SOLUTION_BRACKET
from .poly import Poly
from .realroots import refine, sturm_chain
from .rings import QQ, ZZ, common_denominator


@dataclass(frozen=True)
class ZeroTest:
    verdict: str            # "proved-zero" | "proved-nonzero" | "unknown"
    detail: str = ""

    def __bool__(self):
        return self.verdict == "proved-zero"


# ---------------------------------------------------------------------------
# base residues: (integer coefficient tuple, positive denominator)
# ---------------------------------------------------------------------------

def _canon(nums, den):
    """Canonical residue of nums/den (den > 0), or None for zero."""
    nums = list(nums)
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return None
    g = gcd(den, *nums)
    if g > 1:
        nums = [c // g for c in nums]
        den //= g
    return tuple(nums), den


def _add(a, b):
    (A, da), (B, db) = a, b
    g = gcd(da, db)
    fa, fb = db // g, da // g
    n = max(len(A), len(B))
    A = [c * fa for c in A] + [0] * (n - len(A))
    for i, c in enumerate(B):
        A[i] += c * fb
    return _canon(A, da * fa)


def _neg(a):
    return tuple(-c for c in a[0]), a[1]


def _reduction_table(P):
    """Rows L^(n-1) * T^(n+k) mod P, k = 0 .. n-2, as integer tuples.

    With L*T^n == r0 := -(p_0 + ... + p_(n-1) T^(n-1)) mod P, the vector
    v_k = L^(k+1) T^(n+k) mod P is integral, v_(k+1) = L*T*v_k folds its
    top coefficient back through r0, and row k is L^(n-2-k) * v_k."""
    n, L = P.degree, P.lc
    r0 = [-c for c in P.coeffs[:n]]
    rows, v = [], r0
    for k in range(n - 1):
        scale = L ** (n - 2 - k)
        rows.append(tuple(c * scale for c in v))
        top = v[-1]
        v = [top * r0[0]] + [L * v[i - 1] + top * r0[i] for i in range(1, n)]
    return rows


class Tower:
    """Q[T]/(modulus) extended by square roots with fixed positive branches.

    Generators are appended with `adjoin(name, square)` where `square` is a
    TowerElement over the previously adjoined generators; the new generator
    denotes the nonnegative square root of it at the embedded point.
    """

    def __init__(self, modulus, root_interval):
        P = modulus.map_ring(QQ).clear_denominators()
        self.modulus = P.monic()
        self.degree = P.degree
        self.names = []
        self.squares = []
        self._table = _reduction_table(P)
        self._scale = P.lc ** (P.degree - 1)
        self._chain = sturm_chain(P)
        self._root = (Fraction(root_interval[0]), Fraction(root_interval[1]))
        self._gen_ivs = {}    # prec -> list of generator intervals

    # -- residue arithmetic --------------------------------------------------

    def _mulmod(self, a, b):
        """Canonical residue of a*b modulo the base modulus."""
        (A, da), (B, db) = a, b
        prod = [0] * (len(A) + len(B) - 1)
        for i, x in enumerate(A):
            if x:
                for j, y in enumerate(B):
                    prod[i + j] += x * y
        n = self.degree
        if len(prod) <= n:
            return _canon(prod, da * db)
        s = self._scale
        out = [c * s for c in prod[:n]]
        for c, row in zip(prod[n:], self._table):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return _canon(out, da * db * s)

    def _residue(self, p):
        """Canonical residue of a Q-polynomial in T."""
        p = p.map_ring(QQ) % self.modulus
        den = common_denominator(p.coeffs)
        return _canon([int(c * den) for c in p.coeffs], den)

    def _poly(self, res):
        nums, den = res
        return Poly(QQ, [Fraction(c, den) for c in nums], self.modulus.var)

    # -- element constructors ---------------------------------------------

    def zero(self):
        return TowerElement(self)

    def base(self, p):
        """Element from a rational or a Q-polynomial in T (reduced modulo
        the modulus)."""
        if isinstance(p, Poly):
            return TowerElement(self, -1, self._residue(p))
        p = Fraction(p)
        return TowerElement(self, -1, _canon([p.numerator], p.denominator))

    def param(self):
        return self.base(Poly(QQ, [0, 1], self.modulus.var))

    def gen(self, name):
        return TowerElement(self, self.names.index(name), self.zero(),
                            self.base(1))

    def adjoin(self, name, square):
        """Add a generator whose square is the given lower element."""
        if square.tower is not self:
            raise ValueError("square element belongs to a different tower")
        self.names.append(name)
        self.squares.append(square)
        self._gen_ivs.clear()
        return self.gen(name)

    # -- interval shadows ---------------------------------------------------

    def param_interval(self, prec=DEFAULT_PREC):
        lo, hi = refine(self._chain[0], self._root,
                        Fraction(1, 2 ** prec), self._chain)
        self._root = (lo, hi)
        return DyadicInterval.from_endpoints(lo, hi, prec)

    def gen_intervals(self, prec=DEFAULT_PREC):
        ivs = self._gen_ivs.get(prec)
        if ivs is None:
            ivs = [self.param_interval(prec)]
            for sq in self.squares:
                ivs.append(sq._eval_with(ivs, prec).sqrt())
            self._gen_ivs[prec] = ivs
        return ivs


class TowerElement:
    """a + b*g_level with a, b of lower level and b nonzero; at level -1
    the base residue `a` (None for zero), with b None."""

    __slots__ = ("tower", "level", "a", "b")

    def __init__(self, tower, level=-1, a=None, b=None):
        self.tower = tower
        self.level = level
        self.a = a
        self.b = b

    # -- structure -----------------------------------------------------------

    def is_zero_element(self):
        """Formally zero (all coefficients vanish)."""
        return self.level < 0 and self.a is None

    def base_poly(self):
        if self.level >= 0:
            raise ValueError("element is not in the base ring")
        if self.a is None:
            return Poly(QQ, [], self.tower.modulus.var)
        return self.tower._poly(self.a)

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        return (self.tower is other.tower and self.level == other.level
                and self.a == other.a and self.b == other.b)

    def __repr__(self):
        return "TowerElement(level %d)" % self.level

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return self.tower.base(other)
        raise TypeError("cannot interpret %r as a tower element" % (other,))

    def __add__(self, other):
        return _plus(self, self._coerce(other))

    __radd__ = __add__

    def __neg__(self):
        return _negate(self)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        return _times(self, self._coerce(other))

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a tower element")
        result = self.tower.base(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def conj(self):
        """Flip the sign of the top generator."""
        return TowerElement(self.tower, self.level, self.a, _negate(self.b))

    def inverse(self):
        if self.level < 0:
            if self.a is None:
                raise ZeroDivisionError("inverse of the zero element")
            g, _, inv = _poly_ext_gcd(self.tower.modulus, self.base_poly())
            if g.degree != 0:
                raise ZeroDivisionError(
                    "element shares a factor with the modulus")
            return self.tower.base(inv)
        c = self.conj()
        return c * (self * c).inverse()

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    # -- interval evaluation ---------------------------------------------------

    def _eval_with(self, gen_ivs, prec):
        if self.level >= 0:
            g = gen_ivs[1 + self.level]
            return (self.a._eval_with(gen_ivs, prec)
                    + self.b._eval_with(gen_ivs, prec) * g)
        if self.a is None:
            return DyadicInterval.from_int(0, prec)
        nums, den = self.a
        return Poly(ZZ, nums).eval_interval(gen_ivs[0]) / den

    def interval(self, prec=DEFAULT_PREC):
        """Certified enclosure of the element at the embedded point."""
        return self._eval_with(self.tower.gen_intervals(prec), prec)

    # -- the certified zero test -----------------------------------------------

    def zero_test(self, prec=DEFAULT_PREC):
        if self.is_zero_element():
            return ZeroTest("proved-zero", "all tower coefficients vanish")
        iv = self.interval(prec)
        if not iv.contains_zero():
            return ZeroTest("proved-nonzero",
                            "enclosure excludes zero: %s" % iv)
        cur = self
        cofactors = []
        while cur.level >= 0:
            c = cur.conj()
            cofactors.append(c)
            cur = cur * c
        if not cur.is_zero_element():
            # nonzero residue modulo an irreducible modulus cannot vanish
            # at the root, hence neither can any factor of the product
            return ZeroTest("proved-nonzero",
                            "conjugate norm is a nonzero base residue")
        for c in cofactors:
            if c.interval(prec).contains_zero():
                return ZeroTest(
                    "unknown",
                    "conjugate norm vanishes but a cofactor enclosure "
                    "straddles zero at precision %d" % prec)
        return ZeroTest("proved-zero",
                        "conjugate norm vanishes; all %d cofactors are "
                        "interval-nonzero" % len(cofactors))


# Ring operations on elements of any levels.  They recurse through these
# functions rather than the operators, so one operator call is one
# arithmetic operation of the caller.

def _node(level, a, b):
    """a + b*g_level, stored one level down when b vanishes."""
    if b.is_zero_element():
        return a
    return TowerElement(a.tower, level, a, b)


def _plus(x, y):
    if x.level < y.level:
        x, y = y, x
    if x.level < 0:
        if x.a is None:
            return y
        if y.a is None:
            return x
        return TowerElement(x.tower, -1, _add(x.a, y.a))
    if y.level < x.level:
        return TowerElement(x.tower, x.level, _plus(x.a, y), x.b)
    return _node(x.level, _plus(x.a, y.a), _plus(x.b, y.b))


def _negate(x):
    if x.level >= 0:
        return TowerElement(x.tower, x.level, _negate(x.a), _negate(x.b))
    return x if x.a is None else TowerElement(x.tower, -1, _neg(x.a))


def _times(x, y):
    if x.level < y.level:
        x, y = y, x
    tower, k = x.tower, x.level
    if k < 0:
        if x.a is None or y.a is None:
            return tower.zero()
        return TowerElement(tower, -1, tower._mulmod(x.a, y.a))
    if y.level < k:
        return _node(k, _times(x.a, y), _times(x.b, y))
    a, b, c, d = x.a, x.b, y.a, y.b
    g2 = tower.squares[k]
    return _node(k, _plus(_times(a, c), _times(_times(b, d), g2)),
                 _plus(_times(a, d), _times(b, c)))


# ---------------------------------------------------------------------------
# the coordinate tower
# ---------------------------------------------------------------------------

def build_coordinates(minpoly_T):
    """The tower plus exact coordinates of the nine crucial vertices.

    Frames: returns (tower, A-frame coordinate dict).  The branch signs are
    the fixed construction table (see the geometry module).
    """
    tw = Tower(minpoly_T, SOLUTION_BRACKET)
    T = tw.param()
    r3 = tw.adjoin("sqrt3", tw.base(3))
    w1 = tw.adjoin("height", tw.base(1) - T * T)        # t = sqrt(1 - T^2)
    x_E = r3 * T
    y_E = T * 2 + r3 * w1
    d2 = x_E * x_E + y_E * y_E                          # |AE|^2
    w2 = tw.adjoin("offset", (tw.base(4) - d2) / (d2 * 4))
    x_F = x_E / 2 - w2 * y_E
    y_F = y_E / 2 + w2 * x_E
    x_D = (r3 * T * 3 + w1) / 2
    y_D = (T + r3 * w1) * Fraction(3, 2)
    X = x_D - x_F
    Y = y_D - y_F
    r2 = X * X + Y * Y                                  # (2s)^2
    w4 = tw.adjoin("arch",
                   tw.base(-9) + r2 * 10 - r2 * r2)     # sqrt(-9+40s^2-16s^4)
    inv_r2 = r2.inverse()                               # 1/(2s)^2
    s2 = r2 / 4                                         # s^2

    # G, H, J in the diagonal frame (F at the origin, D at (2s, 0)), each
    # coordinate scaled by 2s; rotating back by (X, Y)/(2s) removes it
    def back(XP, YP):
        return (x_F + (XP * X - YP * Y) * inv_r2,
                y_F + (XP * Y + YP * X) * inv_r2)

    X_G = (s2 * 4 - 3) / 2
    Y_G = w4 / 2
    X_H = (s2 * 12 - 3 + r3 * w4) / 4
    Y_H = (r3 * 3 + r3 * s2 * 4 + w4) / 4
    X_J = (s2 * 4 - 3 - r3 * w4) / 4
    Y_J = (r3 * s2 * 4 - r3 * 3 + w4) / 4

    zero = tw.zero()
    coords = {
        "A": (zero, zero),
        "B": (w1, T),
        "C": (w1 * 2, zero),
        "D": (x_D, y_D),
        "E": (x_E, y_E),
        "F": (x_F, y_F),
        "G": back(X_G, Y_G),
        "H": back(X_H, Y_H),
        "J": back(X_J, Y_J),
    }
    return tw, coords


def to_center_frame(coords):
    """Shift the x-coordinates by -x_J (origin at the symmetry center)."""
    x_J = coords["J"][0]
    return {p: (x - x_J, y) for p, (x, y) in coords.items()}


def defining_constraints(kcoords):
    """The fourteen defining equations, restated in the center frame.

    Returns (label, TowerElement) pairs; each must test zero."""
    x = {p: kcoords[p][0] for p in kcoords}
    y = {p: kcoords[p][1] for p in kcoords}
    t = x["B"] - x["A"]
    T = y["B"]

    def dist2(p, q, r2):
        return ((x[p] - x[q]) ** 2 + (y[p] - y[q]) ** 2 - r2)

    eqs = [
        ("triangle height", t * t + T * T - 1),
        ("trapezoid slant at D", -t * (x["D"] - x["A"] - t * 2) + T * y["D"]
         - Fraction(3, 2)),
        ("|CD| = 3", dist2("D", "C", 9)),
        ("trapezoid slant at E", t * (x["E"] - x["B"]) - T * (y["E"] - y["B"])
         + 1),
        ("|BE| = 2", dist2("E", "B", 4)),
        ("|AF| = 1", dist2("F", "A", 1)),
        ("|EF| = 1", dist2("E", "F", 1)),
        ("|FG| = 1", dist2("F", "G", 1)),
        ("|DG| = 2", dist2("D", "G", 4)),
        ("|DH| = 2", dist2("D", "H", 4)),
        ("|GH| = 2", dist2("G", "H", 4)),
        ("|FJ| = 1", dist2("F", "J", 1)),
        ("|GJ| = 1", dist2("G", "J", 1)),
        ("orthogonality x_H = x_J", x["H"] - x["J"]),
    ]
    return eqs
