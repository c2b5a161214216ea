"""Staged reconstruction of the reference polynomial tables.

The seven stages retrace the derivation from the defining equations to the
fourteen minimal polynomials:

  1. eliminants of the trapezoid vertices D and E against the height T
  2. eliminants of the circle-cut vertex F (degree-8 parent, quartic factor)
  3. relations of G, H, J in the diagonal frame, plus the slope condition
  4. eliminants of the diagonal components X = x_D - x_F, Y = y_D - y_F
  5. the degree-156 eliminant in T, its factor accounting, and the
     degree-22 parameter minimal polynomial
  6. minimal polynomials of the six y-coordinates
  7. minimal polynomials of the seven x-coordinates (center frame)

Each stage yields DerivationRecord entries comparing the derived object
against the embedded reference tables; results are cached as JSON under
the cache directory so later stages (and the certification report) can
run without redoing earlier work.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import golden
from .dyadic import DEFAULT_PREC
from .elim import groebner, resultant, squarefree_part
from .errors import Ambiguous, NotDivisible, StageDependencyMissing
from .factor import (even_reconstruct, factor_bivariate, factor_z,
                     select_factor)
from .geometry import build_config, extremal, frame_transform, solve_T
from .multipoly import MultiPoly, _extend
from .poly import Poly
from .quadratic import QuadInt
from .realroots import signature
from .rings import ZS3, ZZ, join
from .algnum import radicals_criterion
from .tower import build_coordinates, defining_constraints, to_center_frame

STAGE_REQUIREMENTS = {
    1: (),
    2: ("x_E~T", "y_E~T"),
    3: (),
    4: ("x_D~T", "x_F~T", "y_D~T", "y_F~T"),
    5: ("slope(X,Y)", "X~T", "Y~T"),
    6: ("T", "y_D~T", "y_E~T", "y_F~T"),
    7: ("T",),
}

STAGE_OUTPUTS = {
    1: ("y_D~T", "x_D~T quartic", "x_D~T", "x_E~T", "y_E~T"),
    2: ("x_F~T deg8", "x_F~T", "y_F~T"),
    3: ("X_G~s", "Y_G~s", "X_H~s", "Y_H~s", "X_J~s", "Y_J~s", "slope(X,Y)"),
    4: ("X~T", "Y~T"),
    5: ("T",),
    6: ("y_D", "y_E", "y_F", "y_G", "y_H", "y_J"),
    7: ("x_A", "x_B", "x_C", "x_D", "x_E", "x_F", "x_G"),
}

# the reconstructed minimal polynomials are even of degree 22: PSLQ looks
# for a relation of degree 11 in the square, on a 330-digit enclosure
HALF_DEGREE = 11
PSLQ_DIGITS = 330


@dataclass(frozen=True)
class DerivationRecord:
    stage: int
    name: str
    tool: str            # "groebner" | "resultant" | "factor-select" | ...
    inputs: tuple
    poly: object         # Poly or MultiPoly
    matches_reference: bool
    note: str = ""


@dataclass(frozen=True)
class CertificationReport:
    payload: dict

    def canonical_bytes(self):
        return (json.dumps(self.payload, sort_keys=True, indent=1) +
                "\n").encode()

    @property
    def ok(self):
        return self.payload.get("all_checks_passed", False)


# ---------------------------------------------------------------------------
# serialization of multivariate tables for the cache
# ---------------------------------------------------------------------------

def _mp_to_json(p):
    ring = "Zsqrt3" if p.ring is ZS3 else "Z"
    terms = []
    for e, c in sorted(p.terms.items()):
        if isinstance(c, QuadInt):
            val = [str(c.a), str(c.b)]
        else:
            val = str(c)
        terms.append([list(e), val])
    return {"kind": "multipoly", "ring": ring, "vars": list(p.vars),
            "terms": terms}


def _mp_from_json(d):
    ring = ZS3 if d["ring"] == "Zsqrt3" else ZZ
    terms = {}
    for e, val in d["terms"]:
        if isinstance(val, list):
            terms[tuple(e)] = QuadInt(int(val[0]), int(val[1]))
        else:
            terms[tuple(e)] = int(val)
    return MultiPoly(ring, tuple(d["vars"]), terms)


def _poly_to_json(p):
    d = p.to_json_dict()
    d["kind"] = "poly"
    return d


def _any_to_json(p):
    return _poly_to_json(p) if isinstance(p, Poly) else _mp_to_json(p)


def _any_from_json(d):
    if d.get("kind") == "poly":
        return Poly.from_json_dict(d)
    return _mp_from_json(d)


def _mp_equal(a, b):
    ring = join(a.ring, b.ring)
    return a.map_ring(ring) == b.map_ring(ring)


def _match_reference(cand, ref):
    """cand equals ref up to sign; returns (ref-signed cand, matched)."""
    if _mp_equal(cand, ref):
        return cand, True
    if _mp_equal(-cand, ref):
        return -cand, True
    return cand, False


def _matches_minpoly(key, poly):
    return poly.to_json_dict() == golden.minpoly(key).to_json_dict()


def _recheck_reference(name, poly, stored):
    """The reference verdict for a cached record, decided again by the rule
    that made it; only the unreferenced "slope squared" keeps `stored`."""
    if name in golden.MINPOLY_KEYS:
        return _matches_minpoly(name, poly)
    if name == "degree-156 eliminant":
        return poly.degree == 156
    if name == "slope squared":
        return bool(stored)
    return _match_reference(poly, golden.intermediate(name))[1]


def _quarter(vars, terms):
    return MultiPoly(ZZ, vars, terms)


def _small_factors():
    """The small factors of the degree-156 eliminant, over Z[sqrt(3)]."""
    return (("2T + sqrt(3)", golden.linear_sqrt3_factor(1)),
            ("2T - sqrt(3)", golden.linear_sqrt3_factor(-1)),
            ("64T^4 - 24T^2 + 9",
             golden.small_quartic_factor().map_ring(ZS3)))


def _eliminant_accounting(elim, minpoly_T):
    """Factor accounting of the degree-156 eliminant by exact division.

    Divides out the small factors as often as they divide, then the
    parameter minimal polynomial once (NotDivisible if it does not
    divide), and records the degree of the cofactor left over."""
    accounting = {"full_degree": elim.degree, "factors": {}}
    work = elim
    for label, f in _small_factors():
        count = 0
        while f.divides(work):
            work = work.exact_div(f).primitive_part()
            count += 1
        accounting["factors"][label] = count
    cand = minpoly_T.map_ring(ZS3)
    if not cand.divides(work):
        raise NotDivisible(
            "reconstructed parameter polynomial does not divide the "
            "degree-%d eliminant" % elim.degree)
    cofactor = work.exact_div(cand).primitive_part()
    accounting["factors"]["parameter minimal polynomial"] = 1
    accounting["cofactor_degree"] = cofactor.degree
    return accounting


class Pipeline:
    def __init__(self, cache_dir=".harborth-cache", precision=DEFAULT_PREC,
                 verbose=False):
        self.cache_dir = Path(cache_dir)
        self.precision = precision
        self.verbose = verbose
        self.results = {}
        self.records = {}
        self.accounting = None
        self._T_digits = 0
        self._T_iv = None

    # -- logging -------------------------------------------------------------

    def _log(self, msg):
        if self.verbose:
            print(msg, file=sys.stderr)

    # -- witness machinery -----------------------------------------------------

    def _T_interval(self, digits):
        if self._T_iv is None or self._T_digits < digits:
            self._T_iv = solve_T(Fraction(1, 10 ** digits))
            self._T_digits = digits
        return self._T_iv

    def _witness(self, spec, prec):
        """Certified enclosures of construction quantities.

        spec maps variable names to descriptors:
          ("T",)                   the solved height
          ("s",)                   half the diagonal length |DF| / 2
          (frame, point, axis)     a coordinate in frame "A", "K" or "F"
          ("diffA", p, q, axis)    coordinate difference in the A frame
        """
        digits = max(30, prec // 3)
        T_iv = self._T_interval(digits).with_prec(prec)
        cfg = build_config(T_iv, prec)
        frames = {"A": cfg}

        def frame(name):
            if name not in frames:
                frames[name] = frame_transform(cfg, name)
            return frames[name]

        out = {}
        for var, d in spec.items():
            if d[0] == "T":
                out[var] = T_iv
            elif d[0] == "s":
                out[var] = frame("F").points["D"][0] / 2
            elif d[0] == "diffA":
                _, p, q, axis = d
                i = 0 if axis == "x" else 1
                out[var] = cfg.points[p][i] - cfg.points[q][i]
            else:
                fr, p, axis = d
                out[var] = frame(fr).points[p][0 if axis == "x" else 1]
        return out

    def _witness_fn(self, spec):
        return lambda prec: self._witness(spec, prec)

    def _coordinate_interval(self, frame, point, axis, digits):
        prec = int(digits * 3.5) + 64
        T_iv = self._T_interval(digits + 30).with_prec(prec)
        cfg = build_config(T_iv, prec)
        if frame != "A":
            cfg = frame_transform(cfg, frame)
        return cfg.points[point][0 if axis == "x" else 1]

    # -- stage orchestration ----------------------------------------------------

    def run_stage(self, n, use_cache=True):
        if n not in STAGE_REQUIREMENTS:
            raise ValueError("stage must be 1..7")
        if use_cache and n in self.records:
            return self.records[n]
        if use_cache and self._load_stage(n):
            return self.records[n]
        missing = [k for k in STAGE_REQUIREMENTS[n] if k not in self.results]
        if missing:
            # try to satisfy prerequisites from the cache before failing
            for m in range(1, n):
                if any(k in STAGE_OUTPUTS[m] for k in missing):
                    self._load_stage(m)
            missing = [k for k in STAGE_REQUIREMENTS[n]
                       if k not in self.results]
        if missing:
            raise StageDependencyMissing(
                "stage %d needs %s; run the earlier stages first"
                % (n, ", ".join(missing)))
        t0 = time.time()
        recs = getattr(self, "_stage%d" % n)()
        self._log("stage %d: %.1fs" % (n, time.time() - t0))
        self.records[n] = recs
        self._save_stage(n, recs)
        return recs

    def run_all(self, use_cache=True):
        out = []
        for n in range(1, 8):
            out.extend(self.run_stage(n, use_cache=use_cache))
        return out

    # -- cache -------------------------------------------------------------------

    def _stage_path(self, n):
        return self.cache_dir / ("stage%d.json" % n)

    def _save_stage(self, n, recs):
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            return
        blob = {"stage": n, "records": [
            {"name": r.name, "tool": r.tool, "inputs": list(r.inputs),
             "poly": _any_to_json(r.poly),
             "matches_reference": r.matches_reference, "note": r.note}
            for r in recs]}
        if n == 5:
            blob["accounting"] = self.accounting
        self._stage_path(n).write_text(
            json.dumps(blob, sort_keys=True) + "\n")

    def _load_stage(self, n):
        """Load a cached stage, re-deciding every reference match.

        A missing, unreadable or malformed file is a cache miss."""
        path = self._stage_path(n)
        if not path.exists():
            return False
        try:
            blob = json.loads(path.read_text())
        except (OSError, ValueError):
            return False
        if not isinstance(blob, dict) or blob.get("stage") != n:
            return False
        try:
            recs = []
            for r in blob["records"]:
                poly = _any_from_json(r["poly"])
                ok = _recheck_reference(r["name"], poly,
                                        r["matches_reference"])
                recs.append(DerivationRecord(n, r["name"], r["tool"],
                                             tuple(r["inputs"]), poly, ok,
                                             r["note"]))
        except (KeyError, TypeError, ValueError, AttributeError):
            return False
        for rec in recs:
            self.results[rec.name] = rec.poly
        self.records[n] = recs
        if n == 5:
            self.accounting = blob.get("accounting")
        return True

    # -- shared helpers ------------------------------------------------------------

    def _record_intermediate(self, stage, key, tool, inputs, cand, note=""):
        ref = golden.intermediate(key)
        cand = cand.clear_denominators()
        cand = _extend(cand.drop_vars(), ref.vars)
        cand, ok = _match_reference(cand, ref)
        self.results[key] = cand
        return DerivationRecord(stage, key, tool, tuple(inputs), cand, ok,
                                note)

    def _record_minpoly(self, stage, key, tool, inputs, cand, note=""):
        cand = cand.clear_denominators().with_var(key)
        ok = _matches_minpoly(key, cand)
        self.results[key] = cand
        return DerivationRecord(stage, key, tool, tuple(inputs), cand, ok,
                                note)

    @staticmethod
    def _eliminant(basis, keep):
        """Smallest basis element supported on the `keep` variables only."""
        vars = basis[0].vars
        dead = [i for i, v in enumerate(vars) if v not in keep]
        hits = [g for g in basis
                if all(all(e[i] == 0 for i in dead) for e in g.terms)]
        if not hits:
            raise Ambiguous("no eliminant found in %s" % (keep,))
        hits.sort(key=lambda g: (g.total_degree(),
                                 sorted(g.terms, reverse=True)))
        return _extend(hits[0].drop_vars(), keep)

    def _select_bivariate(self, parent, main, param, spec):
        """Irreducible factor of a bivariate eliminant vanishing at the
        construction witness.  Repeated factors (resultant chains routinely
        square their output) are stripped first."""
        parent = squarefree_part(parent.primitive_part(), main)
        fac = factor_bivariate(parent, main, param)
        factors = [f for f, _ in fac.factors if f.total_degree() > 0]
        witness = self._witness(spec, 256)
        return select_factor(factors, witness, refine=self._witness_fn(spec))

    # -- stage 1: trapezoid vertices D and E -----------------------------------------

    def _stage1(self):
        height = _quarter(("t", "T"), {(2, 0): 1, (0, 2): 1, (0, 0): -1})
        slant_D = _quarter(("t", "x_D", "y_D", "T"),
                           {(1, 1, 0, 0): -2, (2, 0, 0, 0): 4,
                            (0, 0, 1, 1): 2, (0, 0, 0, 0): -3})
        circ_D = _quarter(("t", "x_D", "y_D", "T"),
                          {(0, 2, 0, 0): 1, (1, 1, 0, 0): -4,
                           (2, 0, 0, 0): 4, (0, 0, 2, 0): 1,
                           (0, 0, 0, 0): -9})
        slant_E = _quarter(("t", "x_E", "y_E", "T"),
                           {(1, 1, 0, 0): 1, (2, 0, 0, 0): -1,
                            (0, 0, 1, 1): -1, (0, 0, 0, 2): 1,
                            (0, 0, 0, 0): 1})
        circ_E = _quarter(("t", "x_E", "y_E", "T"),
                          {(0, 2, 0, 0): 1, (1, 1, 0, 0): -2,
                           (2, 0, 0, 0): 1, (0, 0, 2, 0): 1,
                           (0, 0, 1, 1): -2, (0, 0, 0, 2): 1,
                           (0, 0, 0, 0): -4})
        recs = []
        sys_D = [height, slant_D, circ_D]
        basis = groebner(sys_D, order=("t", "x_D", "y_D", "T"))
        recs.append(self._record_intermediate(
            1, "y_D~T", "groebner", ("height", "slant_D", "circ_D"),
            self._eliminant(basis, ("y_D", "T"))))
        basis = groebner(sys_D, order=("t", "y_D", "x_D", "T"))
        quartic = self._eliminant(basis, ("x_D", "T"))
        recs.append(self._record_intermediate(
            1, "x_D~T quartic", "groebner", ("height", "slant_D", "circ_D"),
            quartic))
        chosen = self._select_bivariate(
            self.results["x_D~T quartic"].map_ring(ZS3), "x_D", "T",
            {"x_D": ("A", "D", "x"), "T": ("T",)})
        recs.append(self._record_intermediate(
            1, "x_D~T", "factor-select", ("x_D~T quartic",), chosen))
        sys_E = [height, slant_E, circ_E]
        basis = groebner(sys_E, order=("t", "y_E", "x_E", "T"))
        recs.append(self._record_intermediate(
            1, "x_E~T", "groebner", ("height", "slant_E", "circ_E"),
            self._eliminant(basis, ("x_E", "T"))))
        basis = groebner(sys_E, order=("t", "x_E", "y_E", "T"))
        recs.append(self._record_intermediate(
            1, "y_E~T", "groebner", ("height", "slant_E", "circ_E"),
            self._eliminant(basis, ("y_E", "T"))))
        return recs

    # -- stage 2: the circle-cut vertex F ----------------------------------------------

    def _stage2(self):
        unit_EF = _quarter(("x_E", "y_E", "x_F", "y_F"),
                           {(2, 0, 0, 0): 1, (1, 0, 1, 0): -2,
                            (0, 0, 2, 0): 1, (0, 2, 0, 0): 1,
                            (0, 1, 0, 1): -2, (0, 0, 0, 2): 1,
                            (0, 0, 0, 0): -1})
        unit_AF = _quarter(("x_F", "y_F"),
                           {(2, 0): 1, (0, 2): 1, (0, 0): -1})
        r1 = resultant(unit_EF, self.results["y_E~T"], "y_E")
        r2 = resultant(r1, self.results["x_E~T"], "x_E")
        recs = []
        deg8 = resultant(r2, unit_AF, "y_F")
        recs.append(self._record_intermediate(
            2, "x_F~T deg8", "resultant", ("unit_EF", "y_E~T", "x_E~T",
                                           "unit_AF"), deg8))
        chosen = self._select_bivariate(
            self.results["x_F~T deg8"].map_ring(ZS3), "x_F", "T",
            {"x_F": ("A", "F", "x"), "T": ("T",)})
        recs.append(self._record_intermediate(
            2, "x_F~T", "factor-select", ("x_F~T deg8",), chosen))
        y8 = resultant(r2, unit_AF, "x_F")
        chosen = self._select_bivariate(
            y8.clear_denominators(), "y_F", "T",
            {"y_F": ("A", "F", "y"), "T": ("T",)})
        recs.append(self._record_intermediate(
            2, "y_F~T", "factor-select", ("unit_EF", "y_E~T", "x_E~T",
                                          "unit_AF"), chosen))
        return recs

    # -- stage 3: diagonal-frame relations and the slope condition ----------------------

    def _stage3(self):
        # the diagonal frame: F at the origin, D at (2s, 0)
        circ_FG = _quarter(("X_G", "Y_G"), {(2, 0): 1, (0, 2): 1, (0, 0): -1})
        circ_DG = _quarter(("X_G", "Y_G", "s"),
                           {(2, 0, 0): 1, (1, 0, 1): -4, (0, 0, 2): 4,
                            (0, 2, 0): 1, (0, 0, 0): -4})
        line_G = _quarter(("X_G", "s"),
                          {(1, 1): 4, (0, 2): -4, (0, 0): 3})
        recs = []
        basis = groebner([circ_FG, circ_DG], order=("Y_G", "X_G", "s"))
        recs.append(self._record_intermediate(
            3, "X_G~s", "groebner", ("circ_FG", "circ_DG"),
            self._eliminant(basis, ("X_G", "s"))))
        basis = groebner([circ_FG, circ_DG], order=("X_G", "Y_G", "s"))
        recs.append(self._record_intermediate(
            3, "Y_G~s", "groebner", ("circ_FG", "circ_DG"),
            self._eliminant(basis, ("Y_G", "s"))))

        for P, rsq in (("H", 4), ("J", 1)):
            xv, yv = "X_%s" % P, "Y_%s" % P
            if P == "H":
                # |DP| = 2: centered on D = (2s, 0)
                circ_a = _quarter((xv, yv, "s"),
                                  {(2, 0, 0): 1, (1, 0, 1): -4,
                                   (0, 0, 2): 4, (0, 2, 0): 1,
                                   (0, 0, 0): -4})
            else:
                # |FP| = 1: centered on the origin
                circ_a = _quarter((xv, yv),
                                  {(2, 0): 1, (0, 2): 1, (0, 0): -1})
            circ_G = _quarter((xv, yv, "X_G", "Y_G"),
                              {(2, 0, 0, 0): 1, (1, 0, 1, 0): -2,
                               (0, 0, 2, 0): 1, (0, 2, 0, 0): 1,
                               (0, 1, 0, 1): -2, (0, 0, 0, 2): 1,
                               (0, 0, 0, 0): -rsq})
            for var, other in ((xv, yv), (yv, xv)):
                h = resultant(circ_a, circ_G, other)
                h = resultant(h, circ_FG, "Y_G")
                h = resultant(h, line_G, "X_G")
                chosen = self._select_bivariate(
                    h.clear_denominators(), var, "s",
                    {var: ("F", P, "x" if var == xv else "y"), "s": ("s",)})
                recs.append(self._record_intermediate(
                    3, "%s~s" % var, "factor-select",
                    ("circ_%s" % P, "circ_G", "circ_FG", "line_G"), chosen))

        # slope condition: the crossbar HJ is vertical iff the slopes of HJ
        # (against the diagonal) and of the diagonal (against the baseline)
        # are inverse.  Polynomialize 3*sqrt(3)*Y = X*(S + sqrt(3)*w),
        # w^2 = -9 + 10*S - S^2, S = X^2 + Y^2, by isolating w and squaring.
        S = MultiPoly(ZS3, ("X", "Y"), {(2, 0): 1, (0, 2): 1})
        Xv = MultiPoly.variable(ZS3, ("X", "Y"), "X")
        Yv = MultiPoly.variable(ZS3, ("X", "Y"), "Y")
        r3 = MultiPoly.constant(ZS3, ("X", "Y"), QuadInt(0, 1))
        lhs = Yv * r3 * 3 - Xv * S          # = sqrt(3) * X * w
        squared = lhs * lhs - Xv * Xv * (S * 10 - S * S - 9) * 3
        recs.append(DerivationRecord(
            3, "slope squared", "polynomialize", ("crossbar slope",),
            squared.primitive_part(), True,
            "squared form; factors as (X^2+Y^2) times the slope condition"))
        chosen = self._select_bivariate(
            squared.primitive_part(), "X", "Y",
            {"X": ("diffA", "D", "F", "x"), "Y": ("diffA", "D", "F", "y")})
        recs.append(self._record_intermediate(
            3, "slope(X,Y)", "factor-select", ("slope squared",), chosen))
        return recs

    # -- stage 4: the diagonal components against T ---------------------------------------

    def _stage4(self):
        recs = []
        for var, a, b, pa, pb in (("X", "x_D", "x_F", "x_D~T", "x_F~T"),
                                  ("Y", "y_D", "y_F", "y_D~T", "y_F~T")):
            link = _quarter((var, a, b), {(1, 0, 0): 1, (0, 1, 0): -1,
                                          (0, 0, 1): 1})
            r = resultant(link, self.results[pa], a)
            r = resultant(r, self.results[pb], b)
            chosen = self._select_bivariate(
                r.clear_denominators(), var, "T",
                {var: ("diffA", "D", "F", "x" if var == "X" else "y"),
                 "T": ("T",)})
            recs.append(self._record_intermediate(
                4, "%s~T" % var, "factor-select", (pa, pb), chosen))
        return recs

    # -- stage 5: the degree-156 eliminant and the parameter minimal polynomial -------------

    def _stage5(self):
        recs = []
        slope = self.results["slope(X,Y)"]
        r1 = resultant(slope, self.results["X~T"].map_ring(ZS3), "X")
        r156 = resultant(r1, self.results["Y~T"].map_ring(ZS3), "Y")
        elim = r156.drop_vars().to_poly("T").primitive_part()

        # reconstruct the degree-22 parameter polynomial from a certified
        # enclosure of the solved height (it is even, so search in T^2)
        cand = even_reconstruct(
            lambda d: solve_T(Fraction(1, 10 ** d)).square(), HALF_DEGREE,
            "T", PSLQ_DIGITS)
        self.accounting = _eliminant_accounting(elim, cand)
        recs.append(DerivationRecord(
            5, "degree-156 eliminant", "resultant",
            ("slope(X,Y)", "X~T", "Y~T"), elim, elim.degree == 156,
            "degree %d" % elim.degree))
        recs.append(self._record_minpoly(
            5, "T", "pslq+exact-division", ("solve_T", "degree-156 eliminant"),
            cand, note="irreducible; cofactor degree %d"
            % self.accounting["cofactor_degree"]))
        return recs

    # -- stages 6 and 7: coordinate minimal polynomials ------------------------------------

    def _minpoly_by_elimination(self, stage, key, relation, inputs,
                                frame, point, axis):
        """Resultant against a derived minimal polynomial, then
        factor-select.  `inputs` names the relation and the minimal
        polynomial it eliminates; the relation's first variable is the
        coordinate `key`."""
        over = inputs[1]
        var = relation.vars[0]
        r = resultant(relation,
                      MultiPoly.from_poly(self.results[over].with_var(over)),
                      over)
        parent = r.drop_vars().to_poly(var).primitive_part()
        factors = [f for f, _ in factor_z(parent).factors if f.degree > 0]

        def witness(prec):
            return self._coordinate_interval(frame, point, axis,
                                             max(30, prec // 3))
        chosen = select_factor(factors, witness(256), refine=witness)
        return self._record_minpoly(
            stage, key, "resultant+factor-select", inputs, chosen,
            note="parent degree %d" % parent.degree)

    def _minpoly_by_reconstruction(self, stage, key, frame, point, axis):
        def square_sample(d):
            return self._coordinate_interval(frame, point, axis, d).square()
        cand = even_reconstruct(square_sample, HALF_DEGREE, key, PSLQ_DIGITS)
        return self._record_minpoly(
            stage, key, "pslq+irreducibility", ("construction enclosure",),
            cand, note="witness straddle at %d digits"
            % (PSLQ_DIGITS + PSLQ_DIGITS // 2))

    def _stage6(self):
        recs = [
            self._minpoly_by_elimination(6, "y_D", self.results["y_D~T"],
                                         ("y_D~T", "T"), "A", "D", "y"),
            self._minpoly_by_elimination(6, "y_E", self.results["y_E~T"],
                                         ("y_E~T", "T"), "A", "E", "y"),
            self._minpoly_by_elimination(6, "y_F", self.results["y_F~T"],
                                         ("y_F~T", "T"), "A", "F", "y"),
        ]
        for p in ("G", "H", "J"):
            recs.append(self._minpoly_by_reconstruction(
                6, "y_%s" % p, "A", p, "y"))
        return recs

    def _stage7(self):
        recs = []
        for p in ("A", "B", "C", "D", "E", "F"):
            recs.append(self._minpoly_by_reconstruction(
                7, "x_%s" % p, "K", p, "x"))
        # x_G from the mirrored-frame transformation polynomial: G lies on
        # unit circles around F and around the mirror image of F, which
        # eliminates to 4U^2 - 4U*x_F + 4x_F^2 - 3 linking U = x_G to x_F
        # (both in the center frame); certified exactly in the tower
        _, coords = build_coordinates(golden.minpoly("T"))
        kcoords = to_center_frame(coords)
        residual = (kcoords["G"][0] ** 2 * 4
                    - kcoords["G"][0] * kcoords["F"][0] * 4
                    + kcoords["F"][0] ** 2 * 4 - 3)
        zt = residual.zero_test()
        if zt.verdict != "proved-zero":
            raise Ambiguous("transformation polynomial fails the exact "
                            "zero test: %s" % zt.detail)
        rec = self._minpoly_by_elimination(
            7, "x_G", golden.intermediate("U~x_F"), ("U~x_F", "x_F"),
            "K", "G", "x")
        recs.append(replace(
            rec, note="link certified by tower zero test; " + rec.note))
        return recs

    # -- certification ---------------------------------------------------------------------

    def _accounting_rederived(self):
        """Whether the stage-5 accounting, which may come from the cache,
        is what exact division of the eliminant gives, and whether its
        factor degrees add up to the eliminant's degree."""
        T = self.results["T"]
        try:
            fresh = _eliminant_accounting(
                self.results["degree-156 eliminant"], T)
        except NotDivisible:
            return False
        degrees = {label: f.degree for label, f in _small_factors()}
        degrees["parameter minimal polynomial"] = T.degree
        total = sum(degrees[label] * m
                    for label, m in fresh["factors"].items())
        return (fresh == self.accounting
                and total + fresh["cofactor_degree"] == fresh["full_degree"])

    def certify(self):
        """Certification report over all derived objects.

        Runs any missing stages, then checks byte-equality against the
        reference tables, root-count signatures, even decompositions,
        solvability verdicts, the exact unit-distance zero tests, the
        degree-156 accounting, and the extremal constants."""
        self.run_all()
        payload = {}
        ok = True

        tables = {}
        for n in range(1, 8):
            for r in self.records[n]:
                tables[r.name] = {
                    "stage": r.stage, "tool": r.tool,
                    "matches_reference": r.matches_reference,
                    "note": r.note,
                }
                if r.name in golden.MINPOLY_KEYS:
                    tables[r.name]["polynomial"] = _poly_to_json(
                        self.results[r.name])
                ok = ok and (r.matches_reference
                             or r.name == "slope squared")
        payload["tables"] = tables

        spectra = {}
        for key in golden.MINPOLY_KEYS:
            p = self.results[key]
            sig = signature(p)
            half = p.even_decompose()
            # the criterion counts the real roots of the half polynomial
            verdict = radicals_criterion(half)
            half_sig = [verdict.real_roots,
                        (verdict.degree - verdict.real_roots) // 2]
            entry = {
                "degree": p.degree,
                "signature": [sig.real_roots, sig.complex_pairs],
                "even": p.is_even(),
                "half_degree": half.degree,
                "half_signature": half_sig,
                "radicals": verdict.verdict,
                "radicals_reason": verdict.reason,
            }
            ok = ok and sig.real_roots == 6 and sig.complex_pairs == 8
            ok = ok and half_sig == [3, 4]
            ok = ok and verdict.verdict == "not-solvable"
            spectra[key] = entry
        payload["spectra"] = spectra
        payload["constructibility"] = (
            "x_A generates a degree-22 field whose degree-11 subfield is "
            "not a 2-power; the coordinate is not constructible with "
            "compass and ruler, and its minimal polynomial is not solvable "
            "by radicals")

        _, coords = build_coordinates(self.results["T"])
        constraints = defining_constraints(to_center_frame(coords))
        unit = {}
        for label, residual in constraints:
            zt = residual.zero_test(self.precision)
            unit[label] = {"verdict": zt.verdict, "detail": zt.detail}
            ok = ok and zt.verdict == "proved-zero"
        payload["unit_distance"] = unit
        payload["rigidity"] = (
            "all fourteen defining constraints are certified zero in the "
            "exact radical tower over the degree-22 parameter field; the "
            "configuration with the solved height is a valid matchstick "
            "realization and is rigid up to the mirror symmetry")

        payload["degree156"] = self.accounting
        ok = ok and self.accounting["full_degree"] == 156
        ok = ok and self.accounting["cofactor_degree"] == 108
        ok = ok and self._accounting_rederived()

        ext = extremal(self.precision)
        payload["extremal"] = {
            "endpoint_minpoly": _poly_to_json(ext.b.minpoly),
            "phi_at_0": ext.phi_at_0,
            "phi_at_b": ext.phi_at_b,
            "residuals": ext.residuals,
        }
        payload["solved_height"] = solve_T().decimal(16)

        payload["all_checks_passed"] = ok
        return CertificationReport(payload)
