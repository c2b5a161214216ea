"""Embedded reference tables for the Harborth graph coordinates.

Everything the pipeline must reproduce lives here: the fourteen published
minimal polynomials (the parameter T plus thirteen vertex coordinates), the
15-digit numeric coordinate block, the intermediate eliminants that anchor
the individual derivation stages, and the extremal-value constants.

The tables are transcribed once and guarded by a checksum which is verified
at import time; certification compares freshly derived polynomials against
these, so a transcription error fails loudly with a coefficient diff.

Coefficient conventions: univariate tables list ascending coefficients;
bivariate tables map exponent pairs to coefficients; a coefficient written
as a two-element list [a, b] means a + b*sqrt(3).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .multipoly import MultiPoly
from .poly import Poly
from .quadratic import QuadInt
from .rings import ZS3, ZZ

# ---------------------------------------------------------------------------
# minimal polynomials (all even, degree 22; even-slot coefficients ascending)
# ---------------------------------------------------------------------------

_EVEN22 = {
    "T": [-492075, 52356780, -1441635408, 12222052416, -60567699456,
          189747007488, -417660420096, 607025037312, -655053815808,
          446118756352, -422064422912, 437348466688],
    "y_D": [-2470693585135788, 1679453964496051893, -2462573171102886288,
            1847147913929328048, -888334179987132288, 302241307009227264,
            -74768143621533696, 13516084620361728, -1721332250836992,
            139442448236544, -6126808596480, 109337116672],
    "y_E": [-387038865725307, 255845547796716, -1080696123714384,
            985178573370432, 290816529555456, 1229422640467968,
            -399291497201664, -226953868935168, -145914316455936,
            84049703993344, -9462031056896, 437348466688],
    "y_F": [-6156736033068, 4132620043369020, -28069535202466347,
            54174190167055116, -44321252355544320, 16893977313239424,
            -3430375146685440, 781964817629184, -165954075623424,
            16400930701312, -579898179584, 27334279168],
    "y_G": [-912811377667500, 16117998953248125, -36709013218422600,
            37940201286814800, -23463887481854208, 10021184125203456,
            -3290335763447808, 888521341648896, -192809455583232,
            29839017902080, -2742026240000, 109337116672],
    "y_H": [-12148787578527675, -123412000423046805, -441020584930952232,
            273168911377174014, -27343071784237320, -3667116898760364,
            823044986987616, -32095868573376, -4779985142784,
            615643279360, -27098808320, 427098112],
    "y_J": [-9964518750000, 570277711828125, -1780552966387500,
            849106838377800, 644904447905880, -102048280254828,
            -56106534718368, 9027433758528, 605520976896,
            -103349145600, -2815229952, 427098112],
    "x_A": [-830376562500, 1358127000000, -34144387143750,
            96857243056800, -68697978132015, -189712941147,
            6188723588664, -704220643376, -52577813248,
            27196394496, -2918612992, 106774528],
    "x_B": [-17372788157292129, 85946816541669534, -172967171143553289,
            125428630440736260, -35361034276033728, 4402034757921792,
            -436015591392256, 77220067192832, -11054716223488,
            874491412480, -34734080000, 557842432],
    "x_C": [-55268097000787592100, 83653148035178006805,
            -49933201015710366166, 15170804748275250138,
            -2623723693990622868, 292733387369474292, -24051159678783648,
            1563610131071808, -77064294460416, 2572257472512,
            -50083921920, 427098112],
    "x_D": [-15937557042969, 69169635141939, -133600085051911,
            150590940104181, -109441808559384, 53597367271968,
            -17996039805696, 4144963934208, -647005151232,
            66726690816, -4293132288, 139460608],
    "x_E": [-30534686672400, 184473995962680, -493600710483009,
            800738068318020, -883225203916608, 687262746783744,
            -378024688788480, 145061641105408, -37695035736064,
            6218402758656, -582162055168, 27334279168],
    "x_F": [-622521, 20028276, -150285424, -349270464, 7694997504,
            -5213620224, -109200064512, 709185896448, -1112735219712,
            387346071552, 124822487040, 8925478912],
    "x_G": [-106929, 9380331, -257190919, 2410771629, -11872837680,
            35430882432, -66974055936, 79549160448, -56180293632,
            20514865152, -2573205504, 139460608],
}

MINPOLY_KEYS = ("T", "y_D", "y_E", "y_F", "y_G", "y_H", "y_J",
                "x_A", "x_B", "x_C", "x_D", "x_E", "x_F", "x_G")

# ---------------------------------------------------------------------------
# 15-digit coordinates (origin A, base ray AC as positive x-axis)
# ---------------------------------------------------------------------------

NUMERICS = {
    "B": ("0.992685948824186", "0.120725337054926"),
    "D": ("0.809996600722107", "2.760161754567202"),
    "E": ("0.209102417540010", "1.960833173433061"),
    "F": ("-0.061398137844065", "0.998113354619244"),
    "G": ("-0.838419516770942", "1.627587561152422"),
    "H": ("-0.995049481192288", "3.621444891616507"),
    "J": ("-0.995049481192288", "0.639930204451542"),
}

# ---------------------------------------------------------------------------
# intermediate eliminants anchoring the derivation stages
# ---------------------------------------------------------------------------
# Bivariate tables: {"vars": (main, param), "terms": {(i, j): c}} with c an
# int or an [a, b] pair meaning a + b*sqrt(3).

INTERMEDIATE = {
    # y_D against T (quadratic relation from the trapezoid system)
    "y_D~T": {"vars": ("y_D", "T"),
              "terms": {(0, 0): 27, (0, 2): -36, (1, 1): 12, (2, 0): -4}},
    # x_D against T: quartic over Z, and its selected conjugate factor
    "x_D~T quartic": {"vars": ("x_D", "T"),
                      "terms": {(0, 0): 1, (0, 2): -56, (0, 4): 784,
                                (2, 0): -8, (2, 2): -208, (4, 0): 16}},
    "x_D~T": {"vars": ("x_D", "T"),
              "terms": {(0, 0): -1, (0, 2): 28, (1, 1): [0, -12],
                        (2, 0): 4}},
    "x_E~T": {"vars": ("x_E", "T"), "terms": {(0, 2): 3, (2, 0): -1}},
    "y_E~T": {"vars": ("y_E", "T"),
              "terms": {(0, 0): -3, (0, 2): 7, (1, 1): -4, (2, 0): 1}},
    # x_F against T: degree-8 eliminant over Z, then the selected quartic
    "x_F~T deg8": {"vars": ("x_F", "T"), "terms": {
        (0, 0): -81, (0, 2): 10800, (0, 4): -422496, (0, 6): 4272384,
        (0, 8): -19194112, (0, 10): 45801472, (0, 12): -63111168,
        (0, 14): 48234496, (0, 16): -16777216,
        (2, 0): 1296, (2, 2): -92448, (2, 4): 1645056, (2, 6): -9573888,
        (2, 8): 30072832, (2, 10): -57655296, (2, 12): 66060288,
        (2, 14): -29360128,
        (4, 0): -7776, (4, 2): 228096, (4, 4): -1555200, (4, 6): 5271552,
        (4, 8): -12189696, (4, 10): 15728640, (4, 12): -9437184,
        (6, 0): 20736, (6, 2): -152064, (6, 4): 331776, (6, 6): -196608,
        (6, 8): -1310720, (6, 10): 2097152,
        (8, 0): -20736, (8, 2): 110592, (8, 4): -442368, (8, 6): 786432,
        (8, 8): -1048576}},
    "y_F~T": {"vars": ("y_F", "T"), "terms": {
        (0, 0): 81, (0, 2): -648, (0, 4): 144, (0, 6): -2304, (0, 8): 4096,
        (1, 1): 432, (1, 3): -864, (1, 5): 6528, (1, 7): -10240,
        (2, 0): -216, (2, 2): 1584, (2, 4): -5376, (2, 6): 9216,
        (3, 1): -576, (3, 3): 1536, (3, 5): -4096,
        (4, 0): 144, (4, 2): -384, (4, 4): 1024}},
    "x_F~T": {"vars": ("x_F", "T"), "terms": {
        (0, 0): -9, (0, 2): 600, (0, 4): -3472, (0, 6): 5888, (0, 8): -4096,
        (1, 1): [0, -72], (1, 3): [0, 768], (1, 5): [0, -896],
        (1, 7): [0, 2048],
        (2, 0): 72, (2, 2): -1200, (2, 4): 2048, (2, 6): -5120,
        (3, 1): [0, 288], (3, 3): [0, -768], (3, 5): [0, 2048],
        (4, 0): -144, (4, 2): 384, (4, 4): -1024}},
    # relations in the frame with F at the origin and D at (2s, 0)
    "X_G~s": {"vars": ("X_G", "s"),
              "terms": {(0, 0): 3, (0, 2): -4, (1, 1): 4}},
    "Y_G~s": {"vars": ("Y_G", "s"),
              "terms": {(0, 0): 9, (0, 2): -40, (0, 4): 16, (2, 2): 16}},
    "X_H~s": {"vars": ("X_H", "s"),
              "terms": {(0, 0): 9, (0, 2): -48, (0, 4): 48, (1, 1): 12,
                        (1, 3): -48, (2, 2): 16}},
    "Y_H~s": {"vars": ("Y_H", "s"),
              "terms": {(0, 0): -81, (0, 2): -144, (0, 4): -352,
                        (0, 6): -256, (0, 8): -256, (2, 2): 144,
                        (2, 4): 896, (2, 6): 256, (4, 4): -256}},
    "X_J~s": {"vars": ("X_J", "s"),
              "terms": {(0, 0): 9, (0, 2): -36, (0, 4): 16, (1, 1): 12,
                        (1, 3): -16, (2, 2): 16}},
    "Y_J~s": {"vars": ("Y_J", "s"),
              "terms": {(0, 0): 81, (0, 2): -504, (0, 4): 1072,
                        (0, 6): -896, (0, 8): 256, (2, 2): -144,
                        (2, 4): 256, (2, 6): -256, (4, 4): 256}},
    # the orthogonality (slope) condition on X = x_D - x_F, Y = y_D - y_F
    "slope(X,Y)": {"vars": ("X", "Y"),
                   "terms": {(0, 0): 27, (2, 0): -30, (4, 0): 4,
                             (1, 1): [0, -6], (2, 2): 4}},
    "X~T": {"vars": ("X", "T"), "terms": {
        (0, 2): 108, (0, 4): -684, (0, 6): 1344, (0, 8): -1344,
        (1, 1): [0, -36], (1, 3): [0, 300], (1, 5): [0, -616],
        (1, 7): [0, 1024],
        (2, 0): 9, (2, 2): -213, (2, 4): 496, (2, 6): -1216,
        (3, 1): [0, 36], (3, 3): [0, -96], (3, 5): [0, 256],
        (4, 0): -9, (4, 2): 24, (4, 4): -64}},
    "Y~T": {"vars": ("Y", "T"), "terms": {
        (0, 0): 81, (0, 2): -405, (0, 4): 900, (0, 6): -1008, (0, 8): 448,
        (1, 1): 54, (1, 3): -54, (1, 5): 456, (1, 7): -512,
        (2, 0): -54, (2, 2): 207, (2, 4): -624, (2, 6): 576,
        (3, 1): -18, (3, 3): 48, (3, 5): -128,
        (4, 0): 9, (4, 2): -24, (4, 4): 64}},
    # mirrored frame with J at the origin and JH as positive x-axis:
    # U (the new y of G, equal to the x_G of the symmetric frame) vs x_F
    "U~x_F": {"vars": ("U", "x_F"),
              "terms": {(0, 0): -3, (2, 0): 4, (1, 1): -4, (0, 2): 4}},
}

# ---------------------------------------------------------------------------
# extremal values and the degree-156 eliminant accounting
# ---------------------------------------------------------------------------

EXTREMAL_QUARTIC = [1, 0, -56, 0, 64]      # vanishes at the maximal T
PHI_AT_ZERO = "85.884964999269942"         # degrees, 15-digit references
PHI_AT_MAX = "94.590425288952345"
T_SOLVED = "0.120725337054926"

# small certified factors of the degree-156 eliminant (over Z[sqrt(3)]):
# (2T + sqrt(3)), (2T - sqrt(3)), (64T^4 - 24T^2 + 9)^6, and the degree-22
# table entry; the remaining cofactor has degree 108 (= 28 + 80).
SMALL_FACTOR_LINEAR = {"terms": {(0,): [0, 1], (1,): 2}}  # 2T + sqrt(3)
SMALL_FACTOR_QUARTIC = [9, 0, -24, 0, 64]
SMALL_FACTOR_QUARTIC_MULTIPLICITY = 6
RESIDUAL_COFACTOR_DEGREES = (28, 80)

_CHECKSUM = "9d696a2371ba387b8a9f7b7bab294979e9358ffb3da562d9e1cc84f8fc62f388"


def _canonical():
    blob = {
        "minpoly": {k: _EVEN22[k] for k in MINPOLY_KEYS},
        "numerics": NUMERICS,
        "intermediate": {k: {"vars": v["vars"],
                             "terms": sorted((list(e), c)
                                             for e, c in v["terms"].items())}
                         for k, v in INTERMEDIATE.items()},
        "extremal": [EXTREMAL_QUARTIC, PHI_AT_ZERO, PHI_AT_MAX, T_SOLVED],
        "deg156": [SMALL_FACTOR_LINEAR["terms"][(0,)],
                   SMALL_FACTOR_QUARTIC, SMALL_FACTOR_QUARTIC_MULTIPLICITY,
                   list(RESIDUAL_COFACTOR_DEGREES)],
    }
    return json.dumps(blob, sort_keys=True, default=list).encode()


def verify_checksum():
    digest = hashlib.sha256(_canonical()).hexdigest()
    if digest != _CHECKSUM:
        raise RuntimeError("reference table checksum mismatch: %s" % digest)
    return digest


verify_checksum()


# ---------------------------------------------------------------------------
# typed views
# ---------------------------------------------------------------------------

def minpoly(key):
    """The reference minimal polynomial as a primitive Poly over Z."""
    dense = []
    for c in _EVEN22[key]:
        dense.extend((c, 0))
    return Poly(ZZ, dense[:-1], key if key == "T" else key)


def numeric_fraction(point, axis):
    """15-digit reference coordinate as an exact Fraction."""
    return Fraction(NUMERICS[point][0 if axis == "x" else 1])


def _coerce_table_coeff(c):
    if isinstance(c, list):
        return QuadInt(c[0], c[1])
    return QuadInt(c)


def intermediate(key):
    """A reference eliminant as a MultiPoly (over Z, or Z[sqrt(3)] when any
    coefficient has a sqrt(3) part)."""
    spec = INTERMEDIATE[key]
    if any(isinstance(c, list) for c in spec["terms"].values()):
        terms = {e: _coerce_table_coeff(c) for e, c in spec["terms"].items()}
        return MultiPoly(ZS3, spec["vars"], terms)
    return MultiPoly(ZZ, spec["vars"], dict(spec["terms"]))


def extremal_quartic(var="T"):
    return Poly(ZZ, EXTREMAL_QUARTIC, var)


def linear_sqrt3_factor(sign, var="T"):
    """2T + sign*sqrt(3) over Z[sqrt(3)]."""
    return Poly(ZS3, [QuadInt(0, sign), QuadInt(2)], var)


def small_quartic_factor(var="T"):
    return Poly(ZZ, SMALL_FACTOR_QUARTIC, var)
