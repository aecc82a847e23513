"""Per-layer spans, recorded from outside the package.

`install(tracer)` wraps the public functions listed in LAYERS: it
replaces the module attribute and every name another package module
bound to the same function with `from ... import`. sympy's gcd and div
are wrapped as laurent sees them, through a stand-in for laurent's
`sympy` name. Each call records a span (name, start, end, parent) in
flat arrays; nothing is written until `write`. A layer's self time is
its spans' time minus that of their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute path, label)
LAYERS = (
    ("laurent", "RationalFunction.make", "laurent.RationalFunction.make"),
    ("laurent", "poly_lcm", "laurent.poly_lcm"),
    ("laurent", "poly_divide_exact", "laurent.poly_divide_exact"),
    ("skewlaurent", "dieudonne_det", "skewlaurent.dieudonne_det"),
    ("skewlaurent", "skew_divmod", "skewlaurent.skew_divmod"),
    ("skewlaurent", "SkewLaurentPoly.to_group_ring_pair",
     "skewlaurent.SkewLaurentPoly.to_group_ring_pair"),
    ("skewlaurent", "rank_over_skew_field", "skewlaurent.rank_over_skew_field"),
    ("torsion", "is_l2_acyclic", "torsion.is_l2_acyclic"),
    ("torsion", "torsion_polytope", "torsion.torsion_polytope"),
    ("torsion", "torsion_via_contraction", "torsion.torsion_via_contraction"),
    ("torsion", "mapping_torus_complex", "torsion.mapping_torus_complex"),
    ("grouprings", "gr_mul", "grouprings.gr_mul"),
    ("grouprings", "element_polytope", "grouprings.element_polytope"),
    ("grouprings", "h1_projection", "grouprings.h1_projection"),
    ("lattice", "hull", "lattice.hull"),
    ("lattice", "minkowski_sum", "lattice.minkowski_sum"),
    ("lattice", "pushforward", "lattice.pushforward"),
    ("lattice", "facet_description", "lattice.facet_description"),
    ("exactlp", "optimize_free", "exactlp.optimize_free"),
    ("vpolytope", "find_translation_into", "vpolytope.find_translation_into"),
    ("vpolytope", "leq", "vpolytope.leq"),
    ("vpolytope", "is_polytope", "vpolytope.is_polytope"),
    ("vpolytope", "is_polytope_certified", "vpolytope.is_polytope_certified"),
    ("vpolytope", "decompose_antisymmetric", "vpolytope.decompose_antisymmetric"),
    ("vpolytope", "pt_equal", "vpolytope.pt_equal"),
    ("intlinalg", "snf", "intlinalg.snf"),
    ("intlinalg", "solve_integer_exact", "intlinalg.solve_integer_exact"),
    ("jsonio", "loads", "jsonio.loads"),
    ("jsonio", "dumps", "jsonio.dumps"),
    ("cli", "main", "cli.main"),
    ("svg", "render_svg", "svg.render_svg"),
)
SYMPY_LAYERS = (("gcd", "laurent.sympy_gcd"), ("div", "laurent.sympy_div"))

# gauges: name -> unit; maxima or totals taken from arguments and results
GAUGES = {
    "lattice.hull.points_in": "count",
    "lattice.hull.vertices_out": "count",
    "lattice.facet_description.facets_out": "count",
    "skewlaurent.skew_divmod.max_terms": "count",
    "skewlaurent.dieudonne_det.max_terms": "count",
    "skewlaurent.dieudonne_det.max_coeff_bits": "bits",
}
IMPORTS = ("import.sympy_s", "import.polygroup_s")


def layer_labels():
    return [label for _, _, label in LAYERS] + [label for _, label in SYMPY_LAYERS]


def metric_names():
    """Every per-layer metric the traced run prints, with its unit."""
    out = {}
    for label in layer_labels():
        out[f"{label}.calls"] = "count"
        out[f"{label}.self_s"] = "s"
    out.update(GAUGES)
    for name in IMPORTS:
        out[name] = "s"
    out["traced_jobs_per_s"] = "1/s"
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack = []
        self.gauges = dict.fromkeys(GAUGES, 0)

    def wrap(self, label, fn, gauge=None):
        nid = len(self.names)
        self.names.append(label)
        clock = time.perf_counter
        start, end, name, parent, stack = (self.start, self.end, self.name,
                                           self.parent, self.stack)

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if gauge is not None:
                gauge(self.gauges, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self):
        """calls and self time per label, plus the gauges."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = dict.fromkeys(layer_labels(), 0)
        self_s = dict.fromkeys(layer_labels(), 0.0)
        for i in range(n):
            label = self.names[self.name[i]]
            calls[label] += 1
            self_s[label] += self.end[i] - self.start[i] - child[i]
        out = {}
        for label in layer_labels():
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.self_s"] = self_s[label]
        out.update(self.gauges)
        return out

    def write(self, path):
        """Spans as JSON: the label table and one [name, start, end, parent]
        row per span, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write('{"names": %s, "spans": [' % json.dumps(self.names))
            for i in range(len(self.start)):
                fh.write("%s[%d, %.7f, %.7f, %d]" % (
                    "," if i else "", self.name[i], self.start[i] - t0,
                    self.end[i] - t0, self.parent[i]))
            fh.write("]}\n")


def _hull_gauge(g, args, result):
    g["lattice.hull.points_in"] += len(args[0])
    g["lattice.hull.vertices_out"] += len(result.vertices)


def _facets_gauge(g, args, result):
    g["lattice.facet_description.facets_out"] += len(result[0]) + len(result[1])


def _divmod_gauge(g, args, result):
    key = "skewlaurent.skew_divmod.max_terms"
    g[key] = max(g[key], args[0].nterms(), args[1].nterms(), result[0].nterms())


def _det_gauge(g, args, result):
    if result is None:
        return
    terms = result.numerator.terms + result.denominator.terms
    g["skewlaurent.dieudonne_det.max_terms"] = max(
        g["skewlaurent.dieudonne_det.max_terms"],
        len(result.numerator.terms), len(result.denominator.terms))
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, c in terms), default=0)
    key = "skewlaurent.dieudonne_det.max_coeff_bits"
    g[key] = max(g[key], bits)


GAUGE_HOOKS = {"lattice.hull": _hull_gauge,
               "lattice.facet_description": _facets_gauge,
               "skewlaurent.skew_divmod": _divmod_gauge,
               "skewlaurent.dieudonne_det": _det_gauge}


class _SympyView:
    """laurent's view of sympy with gcd and div traced."""

    def __init__(self, sympy, tracer):
        self._sympy = sympy
        for attr, label in SYMPY_LAYERS:
            setattr(self, attr, tracer.wrap(label, getattr(sympy, attr)))

    def __getattr__(self, attr):
        return getattr(self._sympy, attr)


def install(tracer):
    """Wrap every layer of the already imported package."""
    import polygroup  # noqa: F401  (loads every module listed below)
    import polygroup.cli
    mods = {name: sys.modules[f"polygroup.{name}"] for name, _, _ in LAYERS}
    package = [m for name, m in sys.modules.items()
               if name == "polygroup" or name.startswith("polygroup.")]
    for modname, path, label in LAYERS:
        owner = mods[modname]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        traced = tracer.wrap(label, fn, GAUGE_HOOKS.get(label))
        setattr(owner, attr, staticmethod(traced) if static else traced)
        if outer:
            continue
        for m in package:
            for name, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, name, traced)
    laurent = mods["laurent"]
    laurent.sympy = _SympyView(laurent.sympy, tracer)


def import_times(lines):
    """Self import time of sympy and of polygroup from `-X importtime` lines."""
    out = dict.fromkeys(IMPORTS, 0.0)
    for line in lines:
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue                       # the header line
        top = parts[2].strip().split(".")[0]
        if top in ("sympy", "polygroup"):
            out[f"import.{top}_s"] += self_us / 1e6
    return out
