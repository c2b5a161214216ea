"""One benchmark operation in a fresh interpreter.

Run by run.py, never by hand.  The process sets up (imports, a private copy
of the stage cache, loading the prerequisite stages), then times one call
and writes its metrics and outputs to --out as JSON.  The parent passes the
monotonic time at which it started this process, so setup_s includes the
interpreter start.

    python3 perfbench/child.py --workload NAME --cache-source DIR
        --work DIR --out FILE --t-spawn SECONDS [--setup-only] [--trace FILE]
"""

import argparse
import json
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

STAGES_CACHED = {
    "certify_warm": (1, 2, 3, 4, 5, 6, 7),
    "derive_circle_cut": (1,),
    "derive_parameter": (1, 2, 3, 4),
}


# ---------------------------------------------------------------------------
# output serialisation (plain JSON, read back by checks.py)
# ---------------------------------------------------------------------------

def _coeff(c):
    return [int(getattr(c, "a", c)), int(getattr(c, "b", 0))]


def _multipoly(p):
    return {"vars": list(p.vars),
            "terms": [[list(e), _coeff(c)] for e, c in sorted(p.terms.items())]}


def _poly(p):
    return [_coeff(c) for c in p.coeffs]


# ---------------------------------------------------------------------------
# workloads: setup returns the state the timed call needs
# ---------------------------------------------------------------------------

def setup(workload, cache_dir):
    from harborth.pipeline import Pipeline
    for n in STAGES_CACHED[workload]:
        if not (cache_dir / ("stage%d.json" % n)).is_file():
            raise SystemExit("stage %d is missing from the stage cache" % n)
    pipe = Pipeline(cache_dir=str(cache_dir))
    for n in STAGES_CACHED[workload]:
        pipe.run_stage(n)
    return pipe


def certify_warm(pipe):
    report = pipe.certify()
    return json.loads(report.canonical_bytes())


def derive_circle_cut(pipe):
    """The calls of stage 2 on its real inputs, except the squarefree
    reduction of the degree-8 x_F parent (50 s here, see README).  The
    y_F selection is Pipeline._select_bivariate itself; the x_F one is its
    body without the squarefree step."""
    from harborth import elim, factor
    from harborth.multipoly import MultiPoly
    from harborth.rings import ZS3, ZZ
    R = pipe.results
    unit_EF = MultiPoly(ZZ, ("x_E", "y_E", "x_F", "y_F"),
                        {(2, 0, 0, 0): 1, (1, 0, 1, 0): -2, (0, 0, 2, 0): 1,
                         (0, 2, 0, 0): 1, (0, 1, 0, 1): -2, (0, 0, 0, 2): 1,
                         (0, 0, 0, 0): -1})
    unit_AF = MultiPoly(ZZ, ("x_F", "y_F"), {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    r1 = elim.resultant(unit_EF, R["y_E~T"], "y_E")
    r2 = elim.resultant(r1, R["x_E~T"], "x_E")
    deg8 = elim.resultant(r2, unit_AF, "y_F")
    y8 = elim.resultant(r2, unit_AF, "x_F")

    spec = {"x_F": ("A", "F", "x"), "T": ("T",)}
    fac = factor.factor_bivariate(deg8.map_ring(ZS3).primitive_part(),
                                  "x_F", "T")
    x_F = factor.select_factor(
        [f for f, _ in fac.factors if f.total_degree() > 0],
        pipe._witness(spec, 256), refine=pipe._witness_fn(spec))
    y_F = pipe._select_bivariate(y8.clear_denominators(), "y_F", "T",
                                 {"y_F": ("A", "F", "y"), "T": ("T",)})
    return {"x_F~T": _multipoly(x_F), "y_F~T": _multipoly(y_F)}


def derive_parameter(pipe):
    """The calls of stage 5 on its real inputs: the degree-156 eliminant,
    its small factors, and P_T from PSLQ on a 330-digit enclosure of T,
    proved by irreducibility and exact division.  The pipeline's second,
    495-digit enclosure is left out (33 s here, see README)."""
    import mpmath
    from harborth import elim, factor, geometry, golden
    from harborth.poly import poly_Z
    from harborth.rings import ZS3
    R = pipe.results
    r1 = elim.resultant(R["slope(X,Y)"], R["X~T"].map_ring(ZS3), "X")
    r156 = elim.resultant(r1, R["Y~T"].map_ring(ZS3), "Y")
    eliminant = r156.drop_vars().to_poly("T").primitive_part()
    work = eliminant
    counts = {}
    small = ((golden.linear_sqrt3_factor(1), "2T + sqrt(3)"),
             (golden.linear_sqrt3_factor(-1), "2T - sqrt(3)"),
             (golden.small_quartic_factor().map_ring(ZS3), "64T^4 - 24T^2 + 9"))
    for f, label in small:
        counts[label] = 0
        while f.divides(work):
            work = work.exact_div(f).primitive_part()
            counts[label] += 1
    digits = 330
    u = geometry.solve_T(Fraction(1, 10 ** digits)).square().midpoint()
    with mpmath.workdps(digits + 20):
        x = mpmath.mpf(u.numerator) / u.denominator
        rel = mpmath.pslq([x ** k for k in range(12)],
                          maxcoeff=10 ** (digits // 3), maxsteps=1000000)
    if rel is None:
        raise SystemExit("no integer relation for T^2")
    dense = []
    for c in rel:
        dense.extend((c, 0))
    P_T = poly_Z(dense[:-1], "T").primitive_part()
    factor.irreducibility_certificate(P_T)
    cofactor = work.exact_div(P_T.map_ring(ZS3)).primitive_part()
    return {"eliminant": _poly(eliminant), "T": _poly(P_T),
            "factor_counts": counts, "cofactor_degree": cofactor.degree}


def _peak_rss_kib():
    """High-water resident set of this process image.

    Read from VmHWM rather than getrusage: Linux carries ru_maxrss over
    from the parent across fork and exec, so a large parent would mask
    the operation's own peak."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


OPS = {"certify_warm": certify_warm, "derive_circle_cut": derive_circle_cut,
       "derive_parameter": derive_parameter}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--cache-source", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import harborth.pipeline  # noqa: F401  (loads every layer module)
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    cache_dir = Path(args.work) / "cache"
    shutil.copytree(args.cache_source, cache_dir)
    pipe = setup(args.workload, cache_dir)

    t0 = time.monotonic()
    result = {"setup_s": t0 - args.t_spawn}
    if not args.setup_only:
        c0 = time.process_time()
        w0 = time.perf_counter()
        outputs = OPS[args.workload](pipe)
        w1 = time.perf_counter()
        result["wall_s"] = w1 - w0
        result["cpu_s"] = time.process_time() - c0
        result["outputs"] = outputs
        if tracer is not None:
            layers = tracer.summary((w0, w1))
            # stage loads happen in setup, so this layer counts the whole run
            whole = tracer.summary((0.0, w1))
            for key in ("pipeline.run_stage.s", "pipeline.run_stage.calls"):
                layers[key] = whole[key]
            result["layers"] = layers
            tracer.dump(args.trace, (w0, w1))
    result["peak_rss_mib"] = _peak_rss_kib() / 1024
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
