"""Deterministic SVG picture of the matchstick configuration.

The construction pins down one quarter of the figure (the crucial
vertices A..J); the full graph is that quarter together with its images
under the two reflections whose axes cross at the center.  In the center
frame the reflections are plain sign flips, so the quarter is computed
once at certified precision and replicated.

All coordinates are printed from exact dyadic enclosures, so two renders
with the same flags produce byte-identical files, and no more decimal
places are printed than every enclosure certifies.
"""

from fractions import Fraction

from .dyadic import DEFAULT_PREC
from .errors import HarborthError
from .geometry import Configuration, build_config, frame_transform, solve_T

# one drawn segment per defining constraint (pairs collapsed: the two
# trapezoid slant equations share their endpoint pairs with |AD| and
# |BE|; the orthogonality constraint is the crossbar HJ itself)
EDGES = (
    ("A", "B"), ("A", "D"), ("A", "F"), ("B", "E"), ("C", "D"),
    ("D", "G"), ("D", "H"), ("E", "F"), ("F", "G"), ("F", "J"),
    ("G", "H"), ("G", "J"), ("H", "J"),
)

# quadrant tags: identity, flip across the vertical axis, across the
# horizontal axis, and across both
_QUADS = ((1, 1, ""), (-1, 1, "'"), (1, -1, "''"), (-1, -1, "'''"))

FRAMES = ("A", "F", "K")


def _full_configuration(frame, precision):
    if frame not in FRAMES:
        raise ValueError("frame must be one of %s" % (", ".join(FRAMES)))
    T = solve_T(Fraction(1, 10 ** 40))
    cfg = build_config(T, precision)
    center = frame_transform(cfg, "K")
    pts = {}
    for name, (x, y) in center.points.items():
        for sx, sy, tag in _QUADS:
            pts[name + tag] = (x * sx, y * sy)
    full = Configuration("K", center.T, center.prec, pts)
    if frame == "A":
        full = frame_transform(full, "A")
    elif frame == "F":
        full = frame_transform(frame_transform(full, "A"), "F")
    return full


def render_svg(frame="K", digits=6, precision=DEFAULT_PREC):
    """The complete figure in the requested frame, as an SVG string."""
    full = _full_configuration(frame, precision)
    # the rounded midpoint of an enclosure of width w is within 10^-d of
    # every point in it once w <= 10^-d
    widest = max(c.width() for point in full.points.values() for c in point)
    certified = 0
    while widest * 10 ** (certified + 1) <= 1:
        certified += 1
    if digits > certified:
        raise HarborthError(
            "%d decimal places requested, but the coordinate enclosures "
            "certify only %d" % (digits, certified))
    # SVG's y axis points down; negate y on output
    coords = {name: (x.decimal(digits), (-y).decimal(digits))
              for name, (x, y) in full.points.items()}
    xs = sorted(float(x) for x, _ in coords.values())
    ys = sorted(float(y) for _, y in coords.values())
    pad = 0.4
    box = (xs[0] - pad, ys[0] - pad,
           xs[-1] - xs[0] + 2 * pad, ys[-1] - ys[0] + 2 * pad)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        'viewBox="%.4f %.4f %.4f %.4f">' % box,
        '<g stroke="#444444" stroke-width="0.02" '
        'stroke-linecap="round" fill="none">',
    ]
    for p, q in EDGES:
        for _, _, tag in _QUADS:
            (x1, y1), (x2, y2) = coords[p + tag], coords[q + tag]
            lines.append('<line x1="%s" y1="%s" x2="%s" y2="%s"/>'
                         % (x1, y1, x2, y2))
    lines.append('</g>')
    lines.append('<g fill="#aa1111">')
    for name in sorted(coords):
        x, y = coords[name]
        lines.append('<circle cx="%s" cy="%s" r="0.035"/>' % (x, y))
    lines.append('</g>')
    lines.append('<g font-family="monospace" font-size="0.16" '
                 'fill="#000000">')
    for _, _, tag in _QUADS:
        for name in sorted(coords):
            if not name.endswith(tag) or len(name) != len(tag) + 1:
                continue
            x, y = coords[name]
            lines.append('<text x="%s" y="%s" dx="0.05" dy="-0.05">%s'
                         '</text>' % (x, y, name))
        break  # label the base quarter only
    lines.append('</g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
