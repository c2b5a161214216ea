"""Certified construction of the Harborth quarter-configuration.

All points are pairs of outward-rounded dyadic intervals, so every sign
decision (circle intersection branches, the bisection predicate) is backed
by a true enclosure.  Angle values in reports are computed with mpmath at
the working precision; they are for human consumption, never load-bearing.

The nine crucial vertices, with the triangle height T as the free
parameter:

    A = (0, 0), B = (t, T) with t = sqrt(1 - T^2), C = (2t, 0);
    D and E close the two rhombi hanging off the A-B-C strip;
    F, G, H, J are cut out by unit/length-2 circle intersections.

The branch of each circle intersection is fixed by the target shape: with
the intersection point written as c1 + a*(c2-c1) + branch*k*perp(c2-c1),
the signs are F:+1, G:+1, H:-1, J:+1 (seeded once from the published
fifteen-digit coordinates and kept static; see BRANCHES).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .dyadic import DEFAULT_PREC, DyadicInterval
from .errors import (Ambiguous, MissingAnchor, NoIntersection,
                     TangentDegenerate)
from .factor import irreducibility_certificate
from .poly import poly_Z
from .realroots import refine

BRANCHES = {"F": 1, "G": 1, "H": -1, "J": 1}

POINTS = ("A", "B", "C", "D", "E", "F", "G", "H", "J")

# minimal polynomial and bracket of the right endpoint b = sqrt(7-3*sqrt(5))/4
# of the feasible height range
ENDPOINT_QUARTIC = [1, 0, -56, 0, 64]
ENDPOINT_BRACKET = (Fraction(13, 100), Fraction(14, 100))

# bracket of the solved height (the 90-degree configuration)
SOLUTION_BRACKET = (Fraction(12, 100), Fraction(13, 100))


@dataclass
class Configuration:
    """Coordinates of the crucial vertices in a named frame."""
    frame: str
    T: Fraction
    prec: int
    points: dict = field(default_factory=dict)

    def point(self, name):
        try:
            return self.points[name]
        except KeyError:
            raise MissingAnchor("frame %r has no point %r"
                                % (self.frame, name)) from None


@dataclass(frozen=True)
class AngleReport:
    """The completion angle phi = alpha + beta and its two slopes.

    alpha is the angle between the crossbar HJ and the diagonal DF, beta
    the angle between DF and the baseline AC.  At the solved height the
    slopes satisfy m_alpha * m_beta = 1 (phi = 90 degrees)."""
    T: Fraction
    phi: str
    alpha: str
    beta: str
    m_alpha: DyadicInterval
    m_beta: DyadicInterval


@dataclass(frozen=True)
class ExtremalReport:
    """Right endpoint of the height range and the extreme angles."""
    b: tuple               # (lo, hi) Fractions bracketing b, width < 1e-60
    phi_at_0: str
    phi_at_b: str
    residuals: dict


def _iv(value, prec):
    if isinstance(value, DyadicInterval):
        return value.with_prec(prec)
    return DyadicInterval.from_fraction(Fraction(value), prec)


def circ_circ(c1, r1sq, c2, r2sq, branch, prec=DEFAULT_PREC):
    """Intersection of circles |P-c1|^2 = r1sq and |P-c2|^2 = r2sq.

    branch +1 picks the point to the left of the directed line c1 -> c2,
    branch -1 the one to the right."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    x1, y1 = (_iv(c, prec) for c in c1)
    x2, y2 = (_iv(c, prec) for c in c2)
    r1sq, r2sq = _iv(r1sq, prec), _iv(r2sq, prec)
    dx, dy = x2 - x1, y2 - y1
    d2 = dx.square() + dy.square()
    if d2.contains_zero():
        raise TangentDegenerate("circle centers cannot be separated")
    a = (d2 + r1sq - r2sq) / (d2 * 2)
    k2 = r1sq / d2 - a.square()
    if k2.is_negative():
        raise NoIntersection("circles certified disjoint")
    if k2.contains_zero():
        raise TangentDegenerate(
            "intersection offset straddles zero (tangent or insufficient "
            "precision)")
    k = k2.sqrt()
    if branch < 0:
        k = -k
    return (x1 + a * dx - k * dy, y1 + a * dy + k * dx)


def build_config(T, precision=DEFAULT_PREC):
    """All nine crucial vertices for triangle height T, in the A-frame.

    T may be a Fraction (exact height) or a DyadicInterval enclosing the
    height; interval input yields enclosures valid for the whole interval.
    """
    prec = precision
    if isinstance(T, DyadicInterval):
        if not (0 <= T.lo_fraction() and T.hi_fraction() < 1):
            raise ValueError("height must lie in [0, 1)")
        T_iv = T.with_prec(prec)
        T = T.midpoint()
    else:
        T = Fraction(T)
        if not 0 <= T < 1:
            raise ValueError("height must lie in [0, 1)")
        T_iv = _iv(T, prec)
    one = DyadicInterval.from_int(1, prec)
    r3 = DyadicInterval.from_int(3, prec).sqrt()
    t = (one - T_iv.square()).sqrt()
    zero = DyadicInterval.from_int(0, prec)
    A = (zero, zero)
    B = (t, T_iv)
    C = (t * 2, zero)
    D = ((r3 * T_iv * 3 + t) / 2, (T_iv + r3 * t) * Fraction(3, 2))
    E = (r3 * T_iv, T_iv * 2 + r3 * t)
    F = circ_circ(A, 1, E, 1, BRANCHES["F"], prec)
    G = circ_circ(F, 1, D, 4, BRANCHES["G"], prec)
    H = circ_circ(D, 4, G, 4, BRANCHES["H"], prec)
    J = circ_circ(F, 1, G, 1, BRANCHES["J"], prec)
    return Configuration("A", T, prec, dict(zip(POINTS,
                                                (A, B, C, D, E, F, G, H, J))))


def _mpf(iv, dps):
    mid = iv.midpoint()
    with mpmath.workdps(dps):
        return mpmath.mpf(mid.numerator) / mid.denominator


def _deg_str(radians, dps):
    with mpmath.workdps(dps):
        return mpmath.nstr(radians * 180 / mpmath.pi, 18)


def phi(T, precision=DEFAULT_PREC):
    """Completion-angle report at height T."""
    cfg = build_config(T, precision)
    x_D, y_D = cfg.points["D"]
    x_F, y_F = cfg.points["F"]
    X, Y = x_D - x_F, y_D - y_F
    S = X.square() + Y.square()
    radicand = S * 10 - S.square() - 9
    root = radicand.sqrt()
    r3 = DyadicInterval.from_int(3, precision).sqrt()
    m_alpha = (r3 * 3) / (S + r3 * root)
    m_beta = Y / X
    dps = max(30, precision * 30 // 100)
    with mpmath.workdps(dps):
        alpha = mpmath.atan(_mpf(m_alpha, dps))
        beta = mpmath.atan(_mpf(m_beta, dps))
        return AngleReport(cfg.T, _deg_str(alpha + beta, dps),
                           _deg_str(alpha, dps), _deg_str(beta, dps),
                           m_alpha, m_beta)


def _gap(T, prec):
    """Enclosure of x_H - x_J at height T."""
    cfg = build_config(T, prec)
    return cfg.points["H"][0] - cfg.points["J"][0]


def _gap_sign(T, prec):
    """Sign of x_H - x_J; positive below the solved height."""
    while True:
        s = _gap(T, prec).sign()
        if s:
            return s
        prec *= 2
        if prec > 1 << 22:
            raise Ambiguous("cannot decide the crossbar gap sign at %r" % T)


def _locate_cell(gap, cells):
    """Secant guess of the grid cell holding the root of `gap`.

    gap(i) is the midpoint of the x_H - x_J enclosure at grid point i,
    0 <= i <= cells.  The iteration runs on grid indices, starting from the
    two bracket ends, and stops once a step moves by less than one cell, or
    after as many steps as bisection would take.  Nothing here is
    certified: the guess only decides where solve_T looks first."""
    x0, x1 = 0, cells
    f0, f1 = gap(x0), gap(x1)
    for _ in range(cells.bit_length()):
        if f1 == f0:
            break
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        k = min(max(math.floor(x), 0), cells - 1)
        if abs(x - x1) < 1:
            return k
        x0, f0, x1, f1 = x1, f1, k, gap(k)
    return min(x1, cells - 1)


def _certify_cell(sign, k, cells):
    """Grid indices (a, a + 1) with sign(a) > 0 > sign(a + 1).

    Starts from the guessed cell (k, k + 1) and, while a certified sign
    disagrees with it, gallops toward the sign change with doubling steps;
    the bracket found that way is then bisected.  A bad guess costs probes,
    never a different cell."""
    known = {}

    def s(i):
        if i not in known:
            known[i] = sign(i)
        return known[i]

    a, b, step = k, k + 1, 1
    while s(a) < 0:
        if a == 0:
            raise ValueError("bisection bracket does not straddle the "
                             "solution")
        a, b, step = max(0, a - step), a, 2 * step
    while s(b) > 0:
        if b == cells:
            raise ValueError("bisection bracket does not straddle the "
                             "solution")
        a, b, step = b, min(cells, b + step), 2 * step
    while b - a > 1:
        mid = (a + b) // 2
        if s(mid) > 0:
            a = mid
        else:
            b = mid
    return a, b


def solve_T(tolerance=Fraction(1, 10 ** 16)):
    """Enclosure of the height at which the crossbar HJ turns vertical.

    x_H - x_J decreases through zero on the bracket (0.12, 0.13).  Cut the
    bracket into 2**n equal cells, n the least with a cell width h at most
    `tolerance`; the answer is the cell [lo + a*h, lo + (a+1)*h] on whose
    ends the certified gap sign turns from + to -, the same cell that
    bisecting the bracket n times returns.  A secant iteration on the
    midpoint of the x_H - x_J enclosure locates the cell in about a dozen
    constructions, and two _gap_sign calls certify it."""
    tolerance = Fraction(tolerance)
    lo, hi = SOLUTION_BRACKET
    prec = max(128, tolerance.denominator.bit_length()
               - tolerance.numerator.bit_length() + 96)
    ratio, cells = (hi - lo) / tolerance, 1
    while cells < ratio:
        cells *= 2
    h = (hi - lo) / cells
    k = _locate_cell(lambda i: _gap(lo + i * h, prec).midpoint(), cells)
    a, b = _certify_cell(lambda i: _gap_sign(lo + i * h, prec), k, cells)
    return DyadicInterval.from_endpoints(lo + a * h, lo + b * h, prec)


def endpoint_bracket(width):
    """Bracket (lo, hi) narrower than `width` around the right endpoint b.

    b is the root of ENDPOINT_QUARTIC in ENDPOINT_BRACKET: the quartic is
    certified irreducible, so it is b's minimal polynomial, and refine
    rejects a bracket that does not isolate exactly one of its roots."""
    quartic = poly_Z(ENDPOINT_QUARTIC, "T")
    irreducibility_certificate(quartic)
    return refine(quartic, ENDPOINT_BRACKET, width)


def extremal(precision=DEFAULT_PREC):
    """The feasible height range endpoint b and the extreme angles.

    b is the positive root of 64T^4 - 56T^2 + 1 near 0.135, equal to
    sqrt(7 - 3*sqrt(5))/4; the angle at b is evaluated on the
    construction just inside the endpoint (the configuration degenerates
    to tangent circles exactly at b).  The residual dictionary records
    the closed-form cross-checks:

      * sin(phi(0)) against (7 + 3*sqrt(5))/4 * sqrt(3/(22 + 6*sqrt(5)))
      * cos(alpha(b)) against its nested-radical closed form
      * m_alpha * m_beta - 1 at the solved height
    """
    b = endpoint_bracket(Fraction(1, 10 ** 60))
    dps = max(30, precision * 30 // 100)
    report0 = phi(0, precision)

    # sample just inside the right endpoint; the angle is Holder-1/2 there,
    # so an offset of 10^-40 perturbs phi by well under 10^-15
    T_near = b[0] - Fraction(1, 10 ** 40)
    report_b = phi(T_near, precision)

    with mpmath.workdps(dps):
        s5 = mpmath.sqrt(5)
        sin_phi0 = (7 + 3 * s5) / 4 * mpmath.sqrt(3 / (22 + 6 * s5))
        res_phi0 = abs(mpmath.sin(mpmath.radians(
            mpmath.mpf(report0.phi))) - sin_phi0)
        R = mpmath.sqrt(230 + 34 * s5)
        cos_alpha = (68 + 3 * R + 9 * s5 * (8 + R)) / (
            2 * (23 + 3 * s5) * mpmath.sqrt(97 - 3 * s5 + 3 * R))
        res_alpha = abs(mpmath.cos(mpmath.radians(
            mpmath.mpf(report_b.alpha))) - cos_alpha)
        solved = solve_T(Fraction(1, 10 ** 30))
        at_sol = phi(solved.midpoint(), precision)
        res_slopes = (at_sol.m_alpha * at_sol.m_beta - 1).mag_upper()
        residuals = {
            "sin_phi_at_0": mpmath.nstr(res_phi0, 5),
            "cos_alpha_at_b": mpmath.nstr(res_alpha, 5),
            "slope_product_at_solution": mpmath.nstr(
                mpmath.mpf(res_slopes.numerator) / res_slopes.denominator, 5),
        }
    return ExtremalReport(b, report0.phi, report_b.phi, residuals)


def frame_transform(cfg, target):
    """Re-express a configuration in another frame.

    Frames: "A" (construction frame, A at the origin, C on the x-axis),
    "F" (origin F, x-axis along the diagonal FD), "K" (x shifted so the
    vertical crossbar line x = x_J becomes the y-axis).
    """
    if target == cfg.frame:
        return cfg
    prec = cfg.prec
    if cfg.frame == "A":
        if target == "K":
            x_J = cfg.point("J")[0]
            pts = {p: (x - x_J, y) for p, (x, y) in cfg.points.items()}
        elif target == "F":
            x_F, y_F = cfg.point("F")
            x_D, y_D = cfg.point("D")
            X, Y = x_D - x_F, y_D - y_F
            two_s = (X.square() + Y.square()).sqrt()
            ux, uy = X / two_s, Y / two_s
            pts = {p: ((x - x_F) * ux + (y - y_F) * uy,
                       (y - y_F) * ux - (x - x_F) * uy)
                   for p, (x, y) in cfg.points.items()}
        else:
            raise MissingAnchor("unknown target frame %r" % (target,))
    elif cfg.frame == "K" and target == "A":
        # in the K frame x_A = -x_J(old), so the shift is recoverable
        x_A = cfg.point("A")[0]
        pts = {p: (x - x_A, y) for p, (x, y) in cfg.points.items()}
    else:
        raise MissingAnchor(
            "cannot transform from frame %r to %r: the required anchors "
            "are only available in the construction frame"
            % (cfg.frame, target))
    return Configuration(target, cfg.T, prec, pts)
