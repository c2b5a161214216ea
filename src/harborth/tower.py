"""Exact arithmetic in the radical tower housing the construction coordinates.

The base is Q[T]/(P) for the degree-22 parameter minimal polynomial P;
on top sit five square roots (sqrt(3), the triangle height, the
circle-intersection offset, the frame diagonal, and the upper-circle
radicand).  Elements are stored as dictionaries mapping 0/1 exponent
vectors over the generators to base residues.

A base residue is a pair (nums, den): the integer coefficients of a
polynomial of degree below n = deg P in the basis 1, T, ..., T^(n-1),
over one positive integer denominator.  Residues are canonical -- no
trailing zero coefficient, gcd(content, den) == 1, and zero is never
stored -- so equality and the formal zero verdicts are exact tuple
comparisons.  A product is an integer convolution followed by one pass
over a table of the integer rows L^(n-1) T^(n+k) mod P (L the leading
coefficient of the primitive integer P), precomputed per tower, so
multiplication never builds a Fraction.  Residues become Q-polynomials
only at the edges: `Tower.base`, `TowerElement.base_poly`, and the
inverse of a base element.

Zero decisions are exact: an element with no coefficients is zero as a
formal tower element; otherwise the product with its conjugates descends
to the base ring, where vanishing modulo the irreducible base modulus
decides vanishing at the embedded point (the conjugate cofactors are
interval-checked nonzero for the zero verdict).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .dyadic import DEFAULT_PREC, DyadicInterval
from .factor import _poly_ext_gcd
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
        return TowerElement(self, {})

    def base(self, p):
        """Element from a rational or a Q-polynomial in T (reduced modulo
        the modulus)."""
        if isinstance(p, Poly):
            res = self._residue(p)
        else:
            p = Fraction(p)
            res = _canon([p.numerator], p.denominator)
        if res is None:
            return self.zero()
        return TowerElement(self, {(0,) * len(self.names): res})

    def param(self):
        return self.base(Poly(QQ, [0, 1], self.modulus.var))

    def gen(self, name):
        i = self.names.index(name)
        exps = [0] * len(self.names)
        exps[i] = 1
        return TowerElement(self, {tuple(exps): ((1,), 1)})

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
        cached = self._gen_ivs.get(prec)
        if cached is not None and len(cached) == len(self.names) + 1:
            return cached
        ivs = [self.param_interval(prec)]
        for sq in self.squares:
            ivs.append(sq._eval_with(ivs, prec).sqrt())
        self._gen_ivs[prec] = ivs
        return ivs


class TowerElement:
    __slots__ = ("tower", "coeffs")

    def __init__(self, tower, coeffs):
        """`coeffs` maps exponent tuples to canonical residues or None."""
        self.tower = tower
        width = len(tower.names)
        self.coeffs = {tuple(e) + (0,) * (width - len(e)): r
                       for e, r in coeffs.items() if r is not None}

    # -- structure -----------------------------------------------------------

    def _items(self):
        """Coefficient items with exponent tuples padded to current width."""
        w = len(self.tower.names)
        for e, r in self.coeffs.items():
            yield e + (0,) * (w - len(e)), r

    def is_zero_element(self):
        """Formally zero (all coefficients vanish)."""
        return not self.coeffs

    def top_level(self):
        """Highest generator index that occurs, or -1 for base elements."""
        top = -1
        for e in self.coeffs:
            for i in range(len(e) - 1, top, -1):
                if e[i]:
                    top = max(top, i)
                    break
        return top

    def base_poly(self):
        if self.top_level() >= 0:
            raise ValueError("element is not in the base ring")
        for _, r in self._items():
            return self.tower._poly(r)
        return Poly(QQ, [], self.tower.modulus.var)

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        return self.tower is other.tower and \
            dict(self._items()) == dict(other._items())

    def __repr__(self):
        n = len(self.coeffs)
        return "TowerElement(%d term%s, top level %d)" % (
            n, "" if n == 1 else "s", self.top_level())

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return self.tower.base(other)
        raise TypeError("cannot interpret %r as a tower element" % (other,))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self._items())
        for e, r in other._items():
            out[e] = _add(out[e], r) if e in out else r
        return TowerElement(self.tower, out)

    __radd__ = __add__

    def __neg__(self):
        return TowerElement(self.tower,
                            {e: _neg(r) for e, r in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        tower = self.tower
        mulmod = tower._mulmod
        acc = {}
        for e1, r1 in self._items():
            for e2, r2 in other._items():
                pending = [(tuple(a + b for a, b in zip(e1, e2)),
                            mulmod(r1, r2))]
                while pending:
                    e, r = pending.pop()
                    if r is None:
                        continue
                    hot = next((i for i, x in enumerate(e) if x >= 2), None)
                    if hot is None:
                        prev = acc.get(e)
                        acc[e] = _add(prev, r) if prev else r
                        continue
                    rest = list(e)
                    rest[hot] -= 2
                    for se, sr in tower.squares[hot]._items():
                        ne = tuple(a + b for a, b in zip(rest, se))
                        pending.append((ne, mulmod(r, sr)))
        return TowerElement(tower, acc)

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
            base = base * base
            n >>= 1
        return result

    def conj(self, level):
        """Flip the sign of the generator at the given level."""
        return TowerElement(self.tower, {e: _neg(r) if e[level] else r
                                         for e, r in self._items()})

    def inverse(self):
        top = self.top_level()
        if top < 0:
            if self.is_zero_element():
                raise ZeroDivisionError("inverse of the zero element")
            g, _, inv = _poly_ext_gcd(self.tower.modulus, self.base_poly())
            if g.degree != 0:
                raise ZeroDivisionError(
                    "element shares a factor with the modulus")
            return self.tower.base(inv)
        c = self.conj(top)
        norm = self * c
        return c * norm.inverse()

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    # -- interval evaluation ---------------------------------------------------

    def _eval_with(self, gen_ivs, prec):
        t_iv = gen_ivs[0]
        total = DyadicInterval.from_int(0, prec)
        for e, (nums, den) in self.coeffs.items():
            term = Poly(ZZ, nums).eval_interval(t_iv) / den
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * gen_ivs[1 + i]
            total = total + term
        return total

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
        while cur.top_level() >= 0:
            c = cur.conj(cur.top_level())
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


# ---------------------------------------------------------------------------
# the coordinate tower
# ---------------------------------------------------------------------------

def build_coordinates(minpoly_T, root_interval=(Fraction(12, 100),
                                                Fraction(13, 100))):
    """The tower plus exact coordinates of the nine crucial vertices.

    Frames: returns (tower, A-frame coordinate dict).  The branch signs are
    the fixed construction table (see the geometry module).
    """
    tw = Tower(minpoly_T, root_interval)
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
    w3 = tw.adjoin("diagonal", r2)                      # 2s
    w4 = tw.adjoin("arch",
                   tw.base(-9) + r2 * 10 - r2 * r2)     # sqrt(-9+40s^2-16s^4)
    inv2s = w3 / r2                                     # 1/(2s)
    s2 = r2 / 4                                         # s^2

    def back(XP, YP):
        return (x_F + XP * inv2s * X - YP * inv2s * Y,
                y_F + XP * inv2s * Y + YP * inv2s * X)

    X_G = (s2 * 4 - 3) * inv2s / 2
    Y_G = w4 * inv2s / 2
    X_H = (s2 * 12 - 3 + r3 * w4) * inv2s / 4
    Y_H = (r3 * 3 + r3 * s2 * 4 + w4) * inv2s / 4
    X_J = (s2 * 4 - 3 - r3 * w4) * inv2s / 4
    Y_J = (r3 * s2 * 4 - r3 * 3 + w4) * inv2s / 4

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
