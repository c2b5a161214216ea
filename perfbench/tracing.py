"""Spans around the public functions of the harborth layers.

The wrappers are installed from outside the package: every module-level
name (and class attribute) bound to a target function is rebound to a
wrapper, so calls made through `from .elim import resultant` style imports
are traced as well.  Spans are kept in memory as (name, parent, start, end)
and aggregated when the operation ends.
"""

import functools
import importlib
import json
import sys
import time

# (layer metric prefix, module, attribute); "Class.method" names a method
TARGETS = (
    ("elim.resultant", "harborth.elim", "resultant"),
    ("elim.squarefree_part", "harborth.elim", "squarefree_part"),
    ("factor.factor_bivariate", "harborth.factor", "factor_bivariate"),
    ("factor.factor_z", "harborth.factor", "factor_z"),
    ("factor.select_factor", "harborth.factor", "select_factor"),
    ("factor.irreducibility_certificate", "harborth.factor",
     "irreducibility_certificate"),
    ("geometry.solve_T", "harborth.geometry", "solve_T"),
    ("geometry.build_config", "harborth.geometry", "build_config"),
    ("geometry.extremal", "harborth.geometry", "extremal"),
    ("mpmath.pslq", "mpmath", "pslq"),
    ("tower.build_coordinates", "harborth.tower", "build_coordinates"),
    ("tower.defining_constraints", "harborth.tower", "defining_constraints"),
    ("tower.zero_test", "harborth.tower", "TowerElement.zero_test"),
    ("tower.mul", "harborth.tower", "TowerElement.__mul__"),
    ("realroots.signature", "harborth.realroots", "signature"),
    ("algnum.radicals_criterion", "harborth.algnum", "radicals_criterion"),
    ("pipeline.run_stage", "harborth.pipeline", "Pipeline.run_stage"),
)

# metrics reported per layer: inclusive seconds and call counts
SECONDS = tuple(name for name, _, _ in TARGETS
                if name != "geometry.build_config")
CALLS = tuple(name for name, _, _ in TARGETS if name != "geometry.extremal")


class Tracer:
    def __init__(self):
        self.spans = []      # (name, parent index or -1, start, end)
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid] = (name, parent, t0, clock())
        return traced

    def install(self):
        """Rebind every target in the loaded harborth modules and mpmath."""
        for name, modname, attr in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = vars(cls)[meth]
                traced = self.wrap(name, orig)
                # __rmul__ is the same function object as __mul__
                for key, value in list(vars(cls).items()):
                    if value is orig:
                        setattr(cls, key, traced)
                continue
            orig = getattr(module, attr)
            traced = self.wrap(name, orig)
            setattr(module, attr, traced)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("harborth"):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, traced)

    def summary(self, window):
        """Per-layer metrics over the spans that start inside `window`.

        `.s` is inclusive time, counting a span only when no span of the
        same name encloses it; `.calls` counts every call.  `trace.covered`
        is the share of the window covered by spans with no traced parent.
        """
        lo, hi = window
        out = {}
        for name in SECONDS:
            out[name + ".s"] = 0.0
        for name in CALLS:
            out[name + ".calls"] = 0
        covered = 0.0
        names = [s[0] for s in self.spans]
        parents = [s[1] for s in self.spans]
        for sid, (name, parent, t0, t1) in enumerate(self.spans):
            if t0 < lo or t1 > hi:
                continue
            if name + ".calls" in out:
                out[name + ".calls"] += 1
            if parent < 0:
                covered += t1 - t0
            p = parent
            while p >= 0 and names[p] != name:
                p = parents[p]
            if p < 0 and name + ".s" in out:
                out[name + ".s"] += t1 - t0
        out["trace.covered_share"] = covered / (hi - lo)
        return out

    def dump(self, path, window):
        """Write the spans of `window` as JSON lines, times relative to it."""
        lo, hi = window
        with open(path, "w") as fh:
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                if t0 >= lo and t1 <= hi:
                    fh.write(json.dumps({"id": sid, "parent": parent,
                                         "name": name,
                                         "start": round(t0 - lo, 7),
                                         "end": round(t1 - lo, 7)}) + "\n")
