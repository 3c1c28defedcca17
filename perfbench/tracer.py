"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the layer functions named in ``SPANS`` on their
modules (and the criteria in ``acceptance.CRITERIA``) with wrappers that
count calls and time them; ``uninstall`` puts the originals back.  Every
caller inside polyptych reaches these functions through a module or class
attribute, so the wrappers see every call.

A span's ``self_s`` is its time minus the time of the spans it calls
directly.  Two further functions are probed for counts only, without a span,
so that their time stays with their caller: ``PolyptychLattice.add_in_chart``
(a chart visited, when ``upsilon`` is the innermost span) and
``degeneration._reachable`` (a degree-k basis monomial reached).

Ratios with a zero denominator read 0.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import wraps

from polyptych import (acceptance, algebra, degeneration, geometry, lattice,
                       mco, semialgebra)

# (owner, attribute, layer name); each reports .calls and .self_s
SPANS = [
    (geometry, "lattice_points", "geometry.lattice_points"),
    (mco, "mu", "mco.mu"),
    (mco, "hat_delta", "mco.hat_delta"),
    (mco, "mu_inverse", "mco.mu_inverse"),
    (lattice, "eval_w", "lattice.eval_w"),
    (lattice, "eval_v", "lattice.eval_v"),
    (lattice.PolyptychLattice, "upsilon", "lattice.upsilon"),
    (semialgebra, "equal_exact", "semialgebra.equal_exact"),
    (semialgebra, "chart_cone_covectors", "semialgebra.chart_cone_covectors"),
    (geometry, "cone_rays", "geometry.cone_rays"),
    (geometry, "polyhedron_equal", "geometry.polyhedron_equal"),
    (algebra, "normal_form", "algebra.normal_form"),
    (algebra, "multiply", "algebra.multiply"),
    (degeneration, "_decompositions", "degeneration.decompositions"),
]

# layer name -> (stat, unit, better) beyond calls and self_s
EXTRA = {
    "geometry.lattice_points": [("points", "count", "lower"),
                                ("fill", "ratio", "higher")],
    "lattice.upsilon": [("charts", "count", "lower"),
                        ("useful", "ratio", "higher")],
    "geometry.cone_rays": [("rays", "count", "lower")],
    "degeneration.decompositions": [("found", "count", "lower"),
                                    ("useful", "ratio", "higher")],
}

CRITERIA = [f"acceptance.criterion_{i}" for i in range(1, 14)]


def per_layer_metrics():
    """Every metric the traced run prints, as (name, unit, better)."""
    out = []
    for _, _, layer in SPANS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
        out += [(f"{layer}.{stat}", unit, better)
                for stat, unit, better in EXTRA.get(layer, ())]
    out += [(f"{name}.s", "s", "lower") for name in CRITERIA]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.extra = Counter()   # points, volume, charts, distinct, ...


class Tracer:
    def __init__(self):
        self.stats = {layer: _Stat() for _, _, layer in SPANS}
        self.stats.update((name, _Stat()) for name in CRITERIA)
        self._stack = []      # [stat, time of direct child spans]
        self._saved = []      # (owner, attribute, original)
        self._criteria = None

    # -- wrappers ------------------------------------------------------

    def _span(self, fn, stat, after=None):
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            entry = [stat, 0.0]
            stack.append(entry)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.self_s += dt - entry[1]
                stat.total_s += dt
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(stat, args, kwargs, result)
            return result
        return wrapper

    def _probe(self, fn, after):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result)
            return result
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- per-layer counts ----------------------------------------------

    @staticmethod
    def _points(stat, args, kwargs, result):
        box = args[1] if len(args) > 1 else kwargs["box"]
        volume = 1
        for lo, hi in box:
            volume *= max(0, int(hi) - int(lo) + 1)
        stat.extra["points"] += len(result)
        stat.extra["volume"] += volume

    @staticmethod
    def _rays(stat, args, kwargs, result):
        stat.extra["rays"] += len(result[1])

    @staticmethod
    def _distinct(stat, args, kwargs, result):
        stat.extra["distinct"] += len(result)

    @staticmethod
    def _found(stat, args, kwargs, result):
        stat.extra["found"] += len(result)

    def _chart_visit(self, result):
        ups = self.stats["lattice.upsilon"]
        if self._stack and self._stack[-1][0] is ups:
            ups.extra["charts"] += 1

    def _reached(self, result):
        self.stats["degeneration.decompositions"].extra["reached"] += bool(
            result)

    # -- install / uninstall -------------------------------------------

    def install(self):
        after = {"geometry.lattice_points": self._points,
                 "geometry.cone_rays": self._rays,
                 "lattice.upsilon": self._distinct,
                 "degeneration.decompositions": self._found}
        for owner, attr, layer in SPANS:
            self._patch(owner, attr, self._span(
                owner.__dict__[attr], self.stats[layer], after.get(layer)))
        self._patch(lattice.PolyptychLattice, "add_in_chart", self._probe(
            lattice.PolyptychLattice.add_in_chart, self._chart_visit))
        self._patch(degeneration, "_reachable", self._probe(
            degeneration._reachable, self._reached))
        # run_once iterates the CRITERIA list itself
        self._criteria = list(acceptance.CRITERIA)
        for i, fn in enumerate(self._criteria):
            wrapped = self._span(fn, self.stats[f"acceptance.criterion_{i + 1}"])
            acceptance.CRITERIA[i] = wrapped
            self._patch(acceptance, fn.__name__, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._criteria is not None:
            acceptance.CRITERIA[:] = self._criteria
            self._criteria = None

    # -- report --------------------------------------------------------

    def metrics(self):
        """Per-layer values keyed by metric name (trace.overhead_s is added
        by the caller, which has the untraced time)."""
        out = {}
        for _, _, layer in SPANS:
            s = self.stats[layer]
            out[f"{layer}.calls"] = s.calls
            out[f"{layer}.self_s"] = s.self_s
        lp = self.stats["geometry.lattice_points"].extra
        out["geometry.lattice_points.points"] = lp["points"]
        out["geometry.lattice_points.fill"] = _ratio(lp["points"],
                                                     lp["volume"])
        ups = self.stats["lattice.upsilon"].extra
        out["lattice.upsilon.charts"] = ups["charts"]
        out["lattice.upsilon.useful"] = _ratio(ups["distinct"], ups["charts"])
        out["geometry.cone_rays.rays"] = \
            self.stats["geometry.cone_rays"].extra["rays"]
        dec = self.stats["degeneration.decompositions"].extra
        out["degeneration.decompositions.found"] = dec["found"]
        out["degeneration.decompositions.useful"] = _ratio(dec["reached"],
                                                           dec["found"])
        for name in CRITERIA:
            out[f"{name}.s"] = self.stats[name].total_s
        return out


def _ratio(num, den):
    return num / den if den else 0.0
