"""Checks of the workloads' outputs, computed apart from the program.

Nothing here imports harborth.  The reference point is a numerical solution
of the fourteen defining constraints of the quarter configuration (mpmath,
80 digits); polynomial facts come from sympy.  Every check raises
CheckFailed with a message naming what failed.
"""

import math
import random

import mpmath
import sympy

DPS = 80
ROOT_RADIUS = mpmath.mpf(10) ** -40

COORDINATE_KEYS = ("T", "y_D", "y_E", "y_F", "y_G", "y_H", "y_J",
                   "x_A", "x_B", "x_C", "x_D", "x_E", "x_F", "x_G")
UNKNOWNS = ("T", "t", "xD", "yD", "xE", "yE", "xF", "yF",
            "xG", "yG", "xH", "yH", "xJ", "yJ")


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# the quarter configuration, solved numerically
# ---------------------------------------------------------------------------

def constraints(T, t, xD, yD, xE, yE, xF, yF, xG, yG, xH, yH, xJ, yJ):
    """The fourteen defining equations with A = (0, 0), B = (t, T),
    C = (2t, 0)."""
    def d2(ax, ay, bx, by, r2):
        return (ax - bx) ** 2 + (ay - by) ** 2 - r2
    return [
        t * t + T * T - 1,
        -t * (xD - 2 * t) + T * yD - mpmath.mpf(3) / 2,
        d2(xD, yD, 2 * t, 0, 9),
        t * (xE - t) - T * (yE - T) + 1,
        d2(xE, yE, t, T, 4),
        d2(xF, yF, 0, 0, 1),
        d2(xE, yE, xF, yF, 1),
        d2(xF, yF, xG, yG, 1),
        d2(xD, yD, xG, yG, 4),
        d2(xD, yD, xH, yH, 4),
        d2(xG, yG, xH, yH, 4),
        d2(xF, yF, xJ, yJ, 1),
        d2(xG, yG, xJ, yJ, 1),
        xH - xJ,
    ]


def _cut(c1, r1, c2, r2, branch):
    """Float intersection of two circles; branch +1 lies left of c1 -> c2."""
    dx, dy = c2[0] - c1[0], c2[1] - c1[1]
    d2 = dx * dx + dy * dy
    a = (d2 + r1 * r1 - r2 * r2) / (2 * d2)
    k = branch * math.sqrt(r1 * r1 / d2 - a * a)
    return (c1[0] + a * dx - k * dy, c1[1] + a * dy + k * dx)


def _float_configuration(T):
    """Float construction at height T (a starting point for Newton only)."""
    t = math.sqrt(1 - T * T)
    r3 = math.sqrt(3)
    D = ((3 * r3 * T + t) / 2, 1.5 * (T + r3 * t))
    E = (r3 * T, 2 * T + r3 * t)
    F = _cut((0.0, 0.0), 1, E, 1, 1)
    G = _cut(F, 1, D, 2, 1)
    H = _cut(D, 2, G, 2, -1)
    J = _cut(F, 1, G, 1, 1)
    return [T, t, *D, *E, *F, *G, *H, *J]


def reference_coordinates():
    """The fourteen coordinates of the paper, x in the center frame x_J = 0.

    The height is bracketed by a float bisection on x_H - x_J over
    (0.12, 0.13); the float configuration there is polished by Newton on
    the defining constraints at 80 digits."""
    lo, hi = 0.12, 0.13
    for _ in range(60):
        mid = (lo + hi) / 2
        c = _float_configuration(mid)
        if c[10] - c[12] > 0:
            lo = mid
        else:
            hi = mid
    start = _float_configuration(lo)
    with mpmath.workdps(DPS):
        sol = mpmath.findroot(constraints, [mpmath.mpf(v) for v in start],
                              tol=mpmath.mpf(10) ** (-2 * DPS + 10))
        vals = dict(zip(UNKNOWNS, sol))
        resid = max(abs(r) for r in constraints(*sol))
        require(resid < mpmath.mpf(10) ** -(DPS - 10),
                "reference solve did not converge: residual %s"
                % mpmath.nstr(resid, 5))
        xJ = vals["xJ"]
        coords = {"T": +vals["T"]}
        for p in "DEFGHJ":
            coords["y_" + p] = +vals["y" + p]
        x = {"A": 0, "B": vals["t"], "C": 2 * vals["t"]}
        for p in "DEFG":
            x[p] = vals["x" + p]
        for p, v in x.items():
            coords["x_" + p] = v - xJ
    return coords


# ---------------------------------------------------------------------------
# univariate minimal polynomials
# ---------------------------------------------------------------------------

def _rational(coeffs):
    """Integer coefficients (ascending) from [a, b] pairs with b = 0."""
    require(all(b == 0 for _, b in coeffs), "coefficients are not rational")
    return [a for a, _ in coeffs]


def check_minpoly(key, coeffs, value):
    """Degree 22, irreducible over Q, 6 real roots, and a root within
    1e-40 of `value` (a sign change across value -/+ 1e-40)."""
    x = sympy.Symbol("x")
    P = sympy.Poly(list(reversed(coeffs)), x, domain="ZZ")
    require(P.degree() == 22, "%s: degree %d, not 22" % (key, P.degree()))
    require(P.is_irreducible, "%s: reducible over Q" % key)
    require(P.count_roots() == 6, "%s: %d real roots, not 6"
            % (key, P.count_roots()))
    with mpmath.workdps(2 * DPS):
        lo = mpmath.polyval(list(reversed(coeffs)), value - ROOT_RADIUS)
        hi = mpmath.polyval(list(reversed(coeffs)), value + ROOT_RADIUS)
    require(lo * hi < 0, "%s: no root within 1e-40 of %s"
            % (key, mpmath.nstr(value, 20)))


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_certify(report, coords):
    require(report.get("all_checks_passed") is True,
            "report does not pass its own checks")
    unit = report["unit_distance"]
    require(len(unit) == 14, "%d unit-distance verdicts, not 14" % len(unit))
    for label, v in unit.items():
        require(v["verdict"] == "proved-zero",
                "constraint %r: %s" % (label, v["verdict"]))
    for key in COORDINATE_KEYS:
        poly = report["tables"][key]["polynomial"]
        require(poly.get("ring") == "Z", "%s: ring %r" % (key, poly.get("ring")))
        check_minpoly(key, [int(c) for c in poly["coeffs"]], coords[key])


def _eval_bivariate(poly, point):
    """Value and magnitude scale of a Z[sqrt 3] bivariate polynomial."""
    r3 = mpmath.sqrt(3)
    total = scale = mpmath.mpf(0)
    for exps, (a, b) in poly["terms"]:
        term = (a + b * r3)
        for var, e in zip(poly["vars"], exps):
            term *= point[var] ** e
        total += term
        scale += abs(term)
    return total, scale


PARENT_DEGREE = 8  # of the stage-2 resultants in x_F and in y_F


def _require_irreducible_factor(key, poly, var):
    """poly has degree 1..7 in var and is irreducible: over Q(sqrt 3) if it
    has a sqrt 3 part, else over Q."""
    r3 = sympy.sqrt(3)
    syms = sympy.symbols(poly["vars"])
    expr = sympy.Add(*[(a + b * r3) * sympy.Mul(*[v ** e for v, e in
                                                   zip(syms, exps)])
                       for exps, (a, b) in poly["terms"]])
    deg = sympy.Poly(expr, *syms, extension=r3).degree(
        syms[poly["vars"].index(var)])
    require(0 < deg < PARENT_DEGREE, "%s: degree %d in %s, not in 1..%d"
            % (key, deg, var, PARENT_DEGREE - 1))
    extension = {"extension": r3} if any(b for _, (_, b) in poly["terms"]) \
        else {}
    _, factors = sympy.factor_list(expr, *syms, **extension)
    count = sum(m for _, m in factors)
    require(count == 1, "%s: reducible, %d factors" % (key, count))


def check_circle_cut(outputs, seed):
    """x_F~T and y_F~T are irreducible factors of the degree-8 parents and
    vanish at F = unit circles around A and E cut, at seeded heights in
    (0, b), b = sqrt(7 - 3 sqrt 5) / 4."""
    for key, var in (("x_F~T", "x_F"), ("y_F~T", "y_F")):
        _require_irreducible_factor(key, outputs[key], var)
    rng = random.Random(seed)
    with mpmath.workdps(DPS):
        b = mpmath.sqrt(7 - 3 * mpmath.sqrt(5)) / 4
        for _ in range(4):
            T = mpmath.mpf(rng.uniform(0.02, 0.98)) * b
            t = mpmath.sqrt(1 - T * T)
            xE, yE = mpmath.sqrt(3) * T, 2 * T + mpmath.sqrt(3) * t
            # E closes the rhombus: |BE| = 2 and the slant condition
            require(abs((xE - t) ** 2 + (yE - T) ** 2 - 4) < 1e-70 and
                    abs(t * (xE - t) - T * (yE - T) + 1) < 1e-70,
                    "E is off its constraints")
            d2 = xE * xE + yE * yE
            a = mpmath.mpf(1) / 2
            k = mpmath.sqrt(1 / d2 - a * a)
            xF, yF = a * xE - k * yE, a * yE + k * xE
            for key, point in (("x_F~T", {"x_F": xF, "T": T}),
                               ("y_F~T", {"y_F": yF, "T": T})):
                require(sorted(outputs[key]["vars"]) == sorted(point),
                        "%s has variables %r" % (key, outputs[key]["vars"]))
                val, scale = _eval_bivariate(outputs[key], point)
                require(abs(val) < mpmath.mpf(10) ** -(DPS - 20) * scale,
                        "%s does not vanish at T = %s"
                        % (key, mpmath.nstr(T, 12)))


def _sqrt3_parts(coeffs):
    T = sympy.Symbol("T")
    a = sympy.Poly(list(reversed([c[0] for c in coeffs])), T, domain="QQ")
    b = sympy.Poly(list(reversed([c[1] for c in coeffs])), T, domain="QQ")
    return a, b, T


def _divide_linear(a, b, sign, T):
    """(a + b sqrt3) / (2T + sign sqrt3), or None if it does not divide."""
    # multiply by the conjugate 2T - sign sqrt3 and divide by 4T^2 - 3
    na = a * sympy.Poly(2 * T, T) - b * (3 * sign)
    nb = b * sympy.Poly(2 * T, T) - a * sign
    q = sympy.Poly(4 * T ** 2 - 3, T, domain="QQ")
    qa, ra = na.div(q)
    qb, rb = nb.div(q)
    return (qa, qb) if ra.is_zero and rb.is_zero else None


def _divide_rational(a, b, f):
    qa, ra = a.div(f)
    qb, rb = b.div(f)
    return (qa, qb) if ra.is_zero and rb.is_zero else None


def check_parameter(outputs, coords):
    P = _rational(outputs["T"])
    check_minpoly("T", P, coords["T"])
    a, b, T = _sqrt3_parts(outputs["eliminant"])
    degree = max(a.degree(), b.degree())
    require(degree == 156, "eliminant degree %d, not 156" % degree)
    PT = sympy.Poly(list(reversed(P)), T, domain="QQ")
    require(_divide_rational(a, b, PT) is not None,
            "P_T does not divide both parts of the eliminant")
    counts = {}
    for label, sign in (("2T + sqrt(3)", 1), ("2T - sqrt(3)", -1)):
        counts[label] = 0
        while True:
            q = _divide_linear(a, b, sign, T)
            if q is None:
                break
            a, b = q
            counts[label] += 1
    quartic = sympy.Poly(64 * T ** 4 - 24 * T ** 2 + 9, T, domain="QQ")
    for label, f in (("64T^4 - 24T^2 + 9", quartic), ("P_T", PT)):
        counts[label] = 0
        while True:
            q = _divide_rational(a, b, f)
            if q is None:
                break
            a, b = q
            counts[label] += 1
    cofactor = max(a.degree(), b.degree())
    small = {"2T + sqrt(3)": 1, "2T - sqrt(3)": 1, "64T^4 - 24T^2 + 9": 6}
    want = dict(small, P_T=1)
    require(counts == want, "factor multiplicities %r, not %r"
            % (counts, want))
    require(cofactor == 108 and 1 + 1 + 6 * 4 + 22 + cofactor == 156,
            "cofactor degree %d, not 108" % cofactor)
    require(outputs["factor_counts"] == small
            and outputs["cofactor_degree"] == cofactor,
            "reported accounting %r, cofactor degree %d, disagrees"
            % (outputs["factor_counts"], outputs["cofactor_degree"]))
