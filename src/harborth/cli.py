"""Command-line interface.

Subcommands:

  derive   run the derivation pipeline (all stages or a single one)
  certify  run the full certification and emit the JSON report
  roots    isolate (and optionally refine) the real roots of a
           polynomial given as a JSON file
  explore  tabulate the completion angle phi(T) over the admissible
           height range [0, b]
  render   write the deterministic SVG figure

Exit codes: 0 on success, 1 on certification failure or computation
error, 2 on usage errors.  The environment variable HARBORTH_DIGITS
overrides the default working precision (decimal digits; default 120).
Both share a floor of 15 digits (at 5, a circle intersection of the
construction can no longer be decided): a smaller --digits is a usage
error, and a smaller HARBORTH_DIGITS falls back to the default.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import HarborthError
from .geometry import extremal, phi
from .pipeline import Pipeline, _any_to_json
from .poly import Poly
from .realroots import isolate, refine, sturm_chain
from .svg import FRAMES, render_svg

DEFAULT_DIGITS = 120
MIN_DIGITS = 15


def _digits(raw):
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < MIN_DIGITS:
        raise argparse.ArgumentTypeError(
            "must be an integer of at least %d, got %r" % (MIN_DIGITS, raw))
    return value


def _env_digits():
    try:
        return _digits(os.environ.get("HARBORTH_DIGITS", ""))
    except argparse.ArgumentTypeError:
        return DEFAULT_DIGITS


def _bits(digits):
    # ~3.33 bits per decimal digit (120 digits -> the 400-bit default)
    return max(64, digits * 10 // 3)


def _width(raw):
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or value <= 0:
        raise argparse.ArgumentTypeError(
            "must be a positive number, got %r" % raw)
    return value


def _parser():
    top = argparse.ArgumentParser(
        prog="harborth",
        description="exact reconstruction and certification of the "
                    "Harborth matchstick graph coordinates")
    sub = top.add_subparsers(dest="command", required=True)

    d = sub.add_parser("derive", help="run the derivation pipeline")
    d.add_argument("--stage", type=int, choices=range(1, 8),
                   help="run a single stage (default: all seven)")
    d.add_argument("--digits", type=_digits, default=None,
                   help="working precision in decimal digits (at least %d)"
                   % MIN_DIGITS)
    d.add_argument("--out", help="write the derived polynomials as JSON")
    d.add_argument("--cache", default=".harborth-cache",
                   help="stage cache directory")
    d.add_argument("--no-cache", action="store_true",
                   help="ignore and overwrite cached stages")

    c = sub.add_parser("certify", help="run the full certification")
    c.add_argument("--report", help="write the JSON report to a file")
    c.add_argument("--digits", type=_digits, default=None)
    c.add_argument("--cache", default=".harborth-cache")

    r = sub.add_parser("roots", help="isolate real roots of a JSON "
                                     "polynomial")
    r.add_argument("file", help="polynomial in the JSON exchange format")
    r.add_argument("--refine", metavar="WIDTH", type=_width,
                   help="shrink each isolating interval below WIDTH")

    e = sub.add_parser("explore", help="tabulate phi(T) over [0, b]")
    e.add_argument("--grid", type=int, required=True,
                   help="number of sample heights (at least 2)")
    e.add_argument("--digits", type=_digits, default=None)

    v = sub.add_parser("render", help="write the SVG figure")
    v.add_argument("--frame", choices=FRAMES, default="K")
    v.add_argument("--digits", type=int, default=9,
                   help="printed decimal places for coordinates")
    v.add_argument("--out", required=True)
    return top


def _cmd_derive(args, digits):
    pipe = Pipeline(cache_dir=args.cache, precision=_bits(digits),
                    verbose=True)
    use_cache = not args.no_cache
    if args.stage:
        records = pipe.run_stage(args.stage, use_cache=use_cache)
    else:
        records = pipe.run_all(use_cache=use_cache)
    for rec in records:
        status = "match" if rec.matches_reference else "MISMATCH"
        print("stage %d  %-12s %-28s %s" % (rec.stage, rec.name,
                                            rec.tool, status))
    if args.out:
        payload = {rec.name: _any_to_json(rec.poly) for rec in records}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    if not all(r.matches_reference for r in records):
        return 1
    return 0


def _cmd_certify(args, digits):
    pipe = Pipeline(cache_dir=args.cache, precision=_bits(digits))
    report = pipe.certify()
    data = report.canonical_bytes()
    if args.report:
        with open(args.report, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())
    print("certification: %s" % ("PASS" if report.ok else "FAIL"),
          file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_roots(args):
    try:
        with open(args.file) as fh:
            blob = json.load(fh)
        poly = Poly.from_json_dict(blob)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print("cannot read polynomial: %s" % exc, file=sys.stderr)
        return 2
    if poly.ring.name not in ("Z", "Q"):
        print("root isolation needs rational coefficients, got ring %s"
              % poly.ring.name, file=sys.stderr)
        return 2
    if poly.degree < 1:
        print("root isolation needs a polynomial of degree at least 1, "
              "got a constant", file=sys.stderr)
        return 2
    iso = isolate(poly)
    chain = sturm_chain(iso.poly)
    print("%d real root(s) of degree-%d polynomial in %s"
          % (iso.count, poly.degree, poly.var))
    for lo, hi in iso.intervals:
        if args.refine is not None:
            lo, hi = refine(iso.poly, (lo, hi), args.refine, chain)
        mid = (lo + hi) / 2
        print("  (%s, %s)  ~ %.15g" % (lo, hi, float(mid)))
    return 0


def _cmd_explore(args, digits):
    if args.grid < 2:
        print("--grid must be at least 2", file=sys.stderr)
        return 2
    prec = _bits(digits)
    b = extremal(min(prec, 300)).b.interval(200).lo_fraction()
    print("%-22s %s" % ("T", "phi(T) [degrees]"))
    for k in range(args.grid):
        T = b * k / (args.grid - 1)
        report = phi(T, min(prec, 300))
        print("%-22.15g %s" % (float(T), report.phi))
    return 0


def _cmd_render(args, digits):
    data = render_svg(args.frame, args.digits, _bits(digits))
    with open(args.out, "w") as fh:
        fh.write(data)
    print("wrote %s" % args.out, file=sys.stderr)
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    digits = getattr(args, "digits", None) or _env_digits()
    try:
        if args.command == "derive":
            return _cmd_derive(args, digits)
        if args.command == "certify":
            return _cmd_certify(args, digits)
        if args.command == "roots":
            return _cmd_roots(args)
        if args.command == "explore":
            return _cmd_explore(args, digits)
        if args.command == "render":
            # --digits controls printed places; precision from environment
            return _cmd_render(args, _env_digits())
        return 2
    except HarborthError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
