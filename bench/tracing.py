"""Outside-in tracing of torusfill's layers for the traced benchmark run.

`Tracer.install` wraps public functions and methods of each module from
outside the package: a function is replaced under every module-level name
that refers to it (so `fillings.injects` and `cli.injects` are both
covered), and a method is replaced on its class.  Span targets record
(name, start, end, parent, job) into an in-memory list; count targets only
bump a counter, because a span per surd operation or clip would distort the
run.  `uninstall` restores every original.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute, metric prefix); spans time the call
SPANS = [
    ("geom", "Region.from_json", "geom.from_json"),
    ("geom", "Region.validate", "geom.validate"),
    ("geom", "region_overlap_area", "geom.region_overlap_area"),
    ("torus", "injects", "torus.injects"),
    ("shears", "plane_image", "shears.plane_image"),
    ("shears", "check_composable", "shears.check_composable"),
    ("shears", "induced_4d_check", "shears.induced_4d_check"),
    ("fillings", "certify", "fillings.certify"),
    ("fillings", "FillingCertificate.to_json", "fillings.to_json"),
    ("latforms", "normalize_basis", "latforms.normalize_basis"),
    ("latforms", "build_period_lattice", "latforms.build_period_lattice"),
    ("latforms", "verify_no_curves", "latforms.verify_no_curves"),
]

# (module, attribute, counter); counts only
COUNTS = [
    ("surd", "SurdScalar.__mul__", "surd.mul_calls"),
    ("surd", "SurdScalar.__rmul__", "surd.mul_calls"),
    ("surd", "SurdScalar.__add__", "surd.add_calls"),
    ("surd", "SurdScalar.__radd__", "surd.add_calls"),
    ("surd", "SurdScalar.inverse", "surd.inverse_calls"),
    ("surd", "rationally_independent", "surd.rationally_independent_calls"),
    ("geom", "ConvexPolygon.bounding_box", "geom.bbox_calls"),
    ("geom", "overlap_area", "geom.overlap_pairs"),
    ("geom", "clip_halfplane", "geom.clip_halfplane_calls"),
    ("shears", "plane_image", "shears.plane_image_calls"),
    ("shears", "moved_set", "shears.moved_set_calls"),
    ("latforms", "AlternatingSurdMatrix.conjugated", "latforms.conjugated_calls"),
]

# counters bumped by the dedicated wrappers of Tracer (_sign, _clip, ...)
WRAPPER_COUNTS = [
    "surd.sign_calls", "surd.sign_refined_calls", "geom.clip_calls",
    "geom.clip_nonempty_calls", "torus.candidates", "torus.collisions",
    "latforms.fresh_primes",
]

JOB = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _sign(self, fn):
        counts = self.counts

        def sign(value):
            counts["surd.sign_calls"] += 1
            if len(value.radicands) >= 2:
                counts["surd.sign_refined_calls"] += 1
            return fn(value)
        return sign

    def _clip(self, fn):
        counts = self.counts

        def clip(a, b):
            counts["geom.clip_calls"] += 1
            result = fn(a, b)
            if result is not None:
                counts["geom.clip_nonempty_calls"] += 1
            return result
        return clip

    def _candidates(self, fn):
        counts = self.counts

        def candidate_vectors(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts["torus.candidates"] += 1
                yield item
        return candidate_vectors

    def _collisions(self, report):
        self.counts["torus.collisions"] += len(report.collisions)

    def _fresh(self, solution):
        self.counts["latforms.fresh_primes"] += len(solution.fresh_radicals)

    # -- install / uninstall -------------------------------------------------------

    def install(self, package: str = "torusfill") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        hooks = {"torus.injects": self._collisions,
                 "latforms.build_period_lattice": self._fresh}
        plan = [(mod, attr, lambda fn, n=name: self.count(n, fn)) for mod, attr, name in COUNTS]
        plan += [(mod, attr, lambda fn, n=name: self.span(n, fn, hooks.get(n)))
                 for mod, attr, name in SPANS]
        plan += [("surd", "SurdScalar.sign", self._sign),
                 ("geom", "clip", self._clip),
                 ("torus", "candidate_vectors", self._candidates)]
        for mod, attr, make in plan:
            self._patch(modules, sys.modules.get(f"{package}.{mod}"), attr, make)

    def _patch(self, modules, module, attr: str, make) -> None:
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or name not in vars(owner):
            self.missing.append(f"{module.__name__ if module else '?'}.{attr}")
            return
        original = vars(owner)[name]
        if owner_name:  # method on a class
            if isinstance(original, classmethod):
                replacement = classmethod(make(original.__func__))
            else:
                replacement = make(original)
            self._undo.append((owner, name, original))
            setattr(owner, name, replacement)
            return
        replacement = make(original)
        for mod in modules:  # every module-level name bound to the function
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- jobs and results ------------------------------------------------------------

    def run_job(self, job_id: int, fn, *args):
        """Run one job under a root span named `cli.main`."""
        self.job = job_id
        try:
            return self.span(JOB, fn)(*args)
        finally:
            self.job = None

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every traced job: `<span>_s` for each span,
        each counter, `cli.self_s` and the derived ratios."""
        spans = [s for s in self.spans if s is not None]
        totals: Counter = Counter()
        child_time: Counter = Counter()
        for sid, (name, start, end, parent, _job) in enumerate(spans):
            if parent is not None:
                child_time[parent] += end - start
            # only the outermost span of a name counts towards its total
            p, nested = parent, False
            while p is not None:
                if spans[p][0] == name:
                    nested = True
                    break
                p = spans[p][3]
            if not nested and name != JOB:
                totals[name + "_s"] += end - start
        self_s = sum(end - start - child_time[sid]
                     for sid, (name, start, end, _p, _j) in enumerate(spans) if name == JOB)
        out = {name + "_s": float(totals[name + "_s"]) for _mod, _attr, name in SPANS}
        for name in [name for _mod, _attr, name in COUNTS] + WRAPPER_COUNTS:
            out[name] = float(self.counts[name])
        out["cli.self_s"] = self_s
        c = self.counts
        out["geom.clip_useful_ratio"] = (c["geom.clip_nonempty_calls"] / c["geom.clip_calls"]
                                         if c["geom.clip_calls"] else 0.0)
        out["torus.collision_ratio"] = (c["torus.collisions"] / c["torus.candidates"]
                                        if c["torus.candidates"] else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, job = span
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
