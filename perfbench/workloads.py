"""The four workloads: their jobs, how a job calls the package, and the
checks of every answer.

A workload object is made once per process (that is part of the timed
set-up) and holds a fixed list of jobs. `run(job)` is the timed call
into the package. `signature(out)` is a plain, comparable summary of an
answer, `check(job, out)` lists what is wrong with it (computed with
`checks`, never with the package), and `terms(out)` is the size of the
answer. Package functions are looked up on their modules at call time,
so the traced run sees the wrapped ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import checks
import inputs


def _vertices(cls):
    """(pos, neg) vertex lists of a translation class."""
    return list(cls.vp.pos.vertices), list(cls.vp.neg.vertices)


def _class_terms(cls):
    pos, neg = _vertices(cls)
    return [(1, pos), (-1, neg)]


class Dieudonne:
    """Dieudonne determinants and their polytope classes."""

    def __init__(self, seed, pg):
        self.pg = pg
        gr = pg.grouprings
        self.groups = {name: gr.TwistedGroup.make(2, a)
                       for name, a in inputs.GROUPS.items()}
        self.jobs = []
        for spec in inputs.dieudonne_jobs(seed):
            g = self.groups[spec["group"]]
            items = [tuple(_matrix(pg, g.k, m) for m in item) for item in spec["items"]]
            self.jobs.append((spec, g, items))

    def run(self, job):
        sk = self.pg.skewlaurent
        _, g, items = job
        out = []
        for item in items:
            res = []
            for m in item:
                det = sk.dieudonne_det(m, g)
                res.append(None if det is None else (det, det.polytope(g)))
            out.append(res)
        return out

    def signature(self, out):
        return [[None if r is None else
                 (r[0].numerator.terms, r[0].denominator.terms, r[0].sign,
                  r[0].unit_exponent, _vertices(r[1])) for r in res] for res in out]

    def terms(self, out):
        return sum(len(r[0].numerator.terms) + len(r[0].denominator.terms)
                   for res in out for r in res if r is not None)

    def check(self, job, out):
        spec = job[0]
        twist = spec["twist"]
        rank = len(checks.h1_coordinates(twist)((0, 0), 0))
        problems = []
        diagonals = iter(spec["diagonals"])
        for plain, res in zip(spec["items"], out):
            if len(res) == 1 and spec["group"] != "untwisted":
                # a block E T: its class is the sum of P over T's diagonal
                expected = [(-1, checks.element_points(e, twist)) for e in next(diagonals)]
                if res[0] is None:
                    problems.append("invertible block reported singular")
                elif not checks.is_zero_sum(_class_terms(res[0][1]) + expected, rank):
                    problems.append("class of E T differs from that of T's diagonal")
            for m, r in zip(plain, res):
                if r is not None and spec["group"] != "untwisted":
                    det, cls = r
                    # the class must be P(numerator) - P(denominator)
                    own = [(-1, checks.element_points(dict(det.numerator.terms), twist)),
                           (1, checks.element_points(dict(det.denominator.terms), twist))]
                    if not checks.is_zero_sum(_class_terms(cls) + own, rank):
                        problems.append("polytope class differs from P(num) - P(den)")
                if spec["group"] == "untwisted":
                    support = checks.commutative_det_support(m, 2)
                    if not support:
                        if r is not None:
                            problems.append("determinant of a singular matrix")
                    elif r is None:
                        problems.append("nonsingular matrix reported singular")
                    elif not checks.is_zero_sum(
                            _class_terms(r[1]) + [(-1, support)], rank):
                        problems.append("class differs from the Newton polytope "
                                        "of the commutative determinant")
            if len(res) == 3:
                a, b, ab = res
                if (a is None or b is None) != (ab is None):
                    problems.append("singularity of A, B and AB disagree")
                elif ab is not None and not checks.is_zero_sum(
                        _class_terms(ab[1]) + [(-s, p) for s, p in _class_terms(a[1])]
                        + [(-s, p) for s, p in _class_terms(b[1])], rank):
                    problems.append("P(det AB) != P(det A) + P(det B)")
        return problems


def _element(pg, k, plain):
    return pg.grouprings.GroupRingElement.from_dict(k, plain)


def _matrix(pg, k, plain):
    return [[_element(pg, k, e) for e in row] for row in plain]


class Torsion:
    """Torsion polytopes by both algorithms (what `torsion --oracle` runs).

    A job is one complex; its answer is the pair of results."""

    def __init__(self, seed, pg):
        self.pg = pg
        gr, to = pg.grouprings, pg.torsion
        self.jobs = []
        for spec in inputs.torsion_jobs(seed):
            if spec["kind"] == "torus":
                self.jobs.append((spec, [list(r) for r in spec["twist"]]))
                continue
            g = gr.TwistedGroup.make(spec["k"], spec["twist"])
            mats = [_matrix(pg, g.k, m) for m in spec["boundaries"]]
            self.jobs.append((spec, to.BasedChainComplex.make(g, spec["ranks"], mats)))

    def run(self, job):
        to = self.pg.torsion
        spec, arg = job
        c = to.mapping_torus_complex(arg) if spec["kind"] == "torus" else arg
        return to.torsion_polytope(c), to.torsion_via_contraction(c)

    def signature(self, out):
        return [(r.acyclic, r.polytope and _vertices(r.polytope)) for r in out]

    def terms(self, out):
        return sum(len(p) for r in out if r.polytope for p in _vertices(r.polytope))

    def check(self, job, out):
        return self._check(job[0], out)

    @staticmethod
    def _check(spec, pair):
        r, rc = pair
        if not (r.acyclic and rc.acyclic):
            return ["acyclic complex reported not acyclic"]
        if spec["kind"] == "torus":
            return [f"mapping torus of {spec['twist']}: nonzero torsion class"
                    for res in pair if not checks.translate_equal(*_vertices(res.polytope))]
        twist = spec["twist"]
        rank = len(checks.h1_coordinates(twist)((0,) * spec["k"], 0))
        problems = []
        if not checks.is_zero_sum(_class_terms(r.polytope) + [
                (-s, p) for s, p in _class_terms(rc.polytope)], rank):
            problems.append("the two torsion algorithms disagree")
        if spec["kind"] == "one-boundary":
            # sign convention of the circle: torsion = -P(det M)
            expected = [(1, checks.commutative_det_support(spec["boundaries"][0], 2))]
        else:
            expected = [(-1, checks.element_points(e, twist)) for e in spec["expected_pos"]]
            expected += [(1, checks.element_points(e, twist)) for e in spec["expected_neg"]]
        if not checks.is_zero_sum(_class_terms(r.polytope) + expected, rank):
            problems.append(f"{spec['kind']} complex: wrong torsion polytope")
        return problems


class Polytope:
    """Lattice polytopes and the polytope group: no Laurent or skew code.

    A job is a bundle of items; its answer is one dict per item."""

    def __init__(self, seed, pg):
        self.pg = pg
        self.jobs = inputs.polytope_jobs(seed)

    def run(self, job):
        return [self._run(item) for item in job]

    def _run(self, item):
        la, vp = self.pg.lattice, self.pg.vpolytope
        if item["kind"] == "hull":
            return {"hull": la.hull(item["points"][0])}
        if item["kind"] == "sum":
            return {"sum": la.minkowski_sum(*(la.hull(p) for p in item["points"]))}
        VP = vp.VirtualPolytope
        q = la.hull(item["q_points"])
        s = la.hull(item["s_vertices"])
        qs = la.minkowski_sum(q, s)
        out = {"q": q, "qs": qs, "facets": la.facet_description(qs),
               "difference": vp.is_polytope(VP(qs, q)),
               "witness": vp.decompose_antisymmetric(
                   vp.vp_sub(VP.from_polytope(s), VP.from_polytope(la.reflect(s))))}
        out["leq"] = vp.leq(VP.from_polytope(q), VP.from_polytope(qs))
        out["geq"] = vp.leq(VP.from_polytope(qs), VP.from_polytope(q))
        if item["rank"] == 2:
            out["certified"] = vp.is_polytope_certified(VP(q, qs))
        return out

    def signature(self, out):
        sigs = []
        for item in out:
            sig = {}
            for key, val in item.items():
                if hasattr(val, "vertices"):
                    val = val.vertices
                elif key == "certified":
                    val = (val[0] and val[0].vertices, val[1])
                sig[key] = val
            sigs.append(sig)
        return sigs

    def terms(self, out):
        n = 0
        for item in out:
            for key, val in item.items():
                if key == "facets":
                    n += len(val[0]) + len(val[1])
                elif hasattr(val, "vertices"):
                    n += len(val.vertices)
        return n

    def check(self, job, out):
        return [p for item, res in zip(job, out) for p in self._check(item, res)]

    @staticmethod
    def _check(item, out):
        d = item["rank"]
        if item["kind"] == "hull":
            return checks.check_hull(item["points"][0], out["hull"].vertices)
        if item["kind"] == "sum":
            return checks.check_hull(_sums(*item["points"]), out["sum"].vertices)
        q_pts, s_pts = item["q_points"], item["s_vertices"]
        problems = checks.check_hull(q_pts, out["q"].vertices)
        qs = list(out["qs"].vertices)
        # the facet check needs a full-dimensional Q+S
        sum_problems = checks.check_hull(_sums(q_pts, s_pts), qs)
        problems += sum_problems or checks.check_facets(qs, *out["facets"])
        found = out["difference"]
        if found is None or not checks.translate_equal(found.vertices, s_pts):
            problems.append("is_polytope((Q+S) - Q) is not S")
        if out["leq"] is not True:
            problems.append("leq(Q, Q+S) does not hold")
        if out["geq"] is not False:
            problems.append("leq(Q+S, Q) holds")
        y = list(out["witness"].vertices)
        neg = lambda pts: [tuple(-c for c in p) for p in pts]
        if not checks.is_zero_sum([(1, y), (-1, neg(y)), (-1, s_pts), (1, neg(s_pts))], d):
            problems.append("antisymmetric decomposition does not round-trip")
        if d == 2:
            s, cert = out["certified"]
            # face_cert(Q - (Q+S)) = -face_cert(S): not a polytope iff that
            # face of S is not a point
            top = checks.support(s_pts, cert)
            if s is not None or sum(
                    1 for p in s_pts if sum(a * b for a, b in zip(cert, p)) == top) < 2:
                problems.append(f"Q - (Q+S) not certified by {cert}")
        return problems


def _sums(p, q):
    """All sums of a point of p and a point of q."""
    return [tuple(a + b for a, b in zip(x, y)) for x in p for y in q]


class CliCold:
    """Cold `python -m polygroup.cli` calls, one fresh process each.

    The traced run starts each call through `clitrace.py` under
    `python -X importtime` instead; `trace_dir` is then set.
    """

    def __init__(self, seed, workdir, trace_dir=None):
        self.trace_dir = trace_dir
        self.calls = 0
        self.jobs = _cli_jobs(seed, workdir)
        self.import_lines = []

    def _argv(self, args):
        if self.trace_dir is None:
            return [sys.executable, "-m", "polygroup.cli"] + args
        self.calls += 1
        here = os.path.dirname(os.path.abspath(__file__))
        return [sys.executable, "-X", "importtime", os.path.join(here, "clitrace.py"),
                os.path.join(self.trace_dir, f"call{self.calls:05d}")] + args

    def run(self, job):
        if job["pipe_from"] is None:
            p = subprocess.run(self._argv(job["args"]), stdin=subprocess.DEVNULL,
                               capture_output=True, text=True)
            self._collect(p.stderr)
            return (p.returncode,), p.stdout, _read(job["svg"])
        first = subprocess.Popen(self._argv(job["pipe_from"]), stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        second = subprocess.Popen(self._argv(job["args"]), stdin=first.stdout,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
        first.stdout.close()
        out, err = second.communicate()
        first_err = first.stderr.read().decode()
        first.stderr.close()
        first.wait()
        self._collect(first_err)
        self._collect(err)
        return (first.returncode, second.returncode), out, None

    def _collect(self, stderr):
        if self.trace_dir is not None:
            self.import_lines.extend(l for l in stderr.splitlines()
                                     if l.startswith("import time:"))

    def signature(self, out):
        return out

    def terms(self, out):
        try:
            return _json_scalars(json.loads(out[1]))
        except ValueError:
            return 0

    def check(self, job, out):
        codes, stdout, svg = out
        if codes != job["codes"]:
            return [f"{job['name']}: exit codes {codes}, expected {job['codes']}"]
        try:
            doc = json.loads(stdout)
        except ValueError:
            return [f"{job['name']}: output is not JSON"]
        if doc.get("format") != 1:
            return [f"{job['name']}: missing format stamp"]
        problem = job["expect"](doc, svg)
        return [f"{job['name']}: {problem}"] if problem else []


def _read(path):
    if path is None:
        return None
    with open(path) as fh:
        return fh.read()


def _json_scalars(doc):
    if isinstance(doc, dict):
        return sum(_json_scalars(v) for v in doc.values())
    if isinstance(doc, list):
        return sum(_json_scalars(v) for v in doc)
    return 1


# ---------------------------------------------------------------------------
# the cli-cold script
# ---------------------------------------------------------------------------

HEXAGON = [[0, 0], [0, 1], [1, 0], [1, 2], [2, 1], [2, 2]]


def _ring_json(e):
    return [{"coeff": str(c), "v": list(v), "m": m} for (v, m), c in sorted(e.items())]


def _polytope_json(pts):
    return {"rank": len(pts[0]), "vertices": [list(p) for p in pts]}


def _tuples(vertices):
    return [tuple(int(c) for c in v) for v in vertices]


def _cli_jobs(seed, workdir):
    """The fixed script of calls with seeded inputs and independent answers."""
    rng = inputs.rng_for("cli-cold", seed)
    jobs = []

    def add(name, args, doc=None, codes=(0,), expect=lambda doc, svg: None,
            svg=None, pipe_from=None):
        path = None
        if doc is not None:
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w") as fh:
                fh.write(doc if isinstance(doc, str) else json.dumps(doc))
            args = args + [path]
        jobs.append({"name": name, "args": args, "codes": codes,
                     "expect": expect, "svg": svg, "pipe_from": pipe_from})

    # the README's hexagon, with the one SVG rendering
    svg_path = os.path.join(workdir, "hexagon.svg")
    add("polytope-sum-svg", ["polytope-sum", "--svg", svg_path],
        {"polytopes": [_polytope_json([(0, 0), (1, 0), (0, 1), (1, 1)]),
                       _polytope_json([(0, 0), (1, 1)])]},
        expect=lambda doc, svg: None if (
            sorted(doc["polytope"]["vertices"]) == HEXAGON
            and "<svg" in svg and svg.rstrip().endswith("</svg>"))
        else "not the README hexagon", svg=svg_path)

    # a box plus a simplex: seeded sizes and places, but always 17 vertices,
    # so that the size of the answer does not move with the seed
    box3, _ = inputs.shape("box", 3, [rng.randint(1, 3) for _ in range(3)],
                           tuple(rng.randint(-2, 2) for _ in range(3)))
    simplex3, _ = inputs.shape("simplex", 3, [rng.randint(1, 3)],
                               tuple(rng.randint(-2, 2) for _ in range(3)))
    add("polytope-sum", ["polytope-sum"],
        {"polytopes": [_polytope_json(simplex3), _polytope_json(box3)]},
        expect=lambda doc, svg: "; ".join(checks.check_hull(
            _sums(simplex3, box3), _tuples(doc["polytope"]["vertices"]))))

    poly = [tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(9)]
    cov = (rng.randint(-2, 2), rng.choice((-1, 1)))
    top = checks.support(poly, cov)
    face = [p for p in poly if cov[0] * p[0] + cov[1] * p[1] == top]
    add("polytope-face", ["polytope-face"],
        {"polytope": _polytope_json(poly), "covector": list(cov)},
        expect=lambda doc, svg: "; ".join(
            checks.check_hull(face, _tuples(doc["polytope"]["vertices"]))))
    width = top + checks.support(poly, (-cov[0], -cov[1]))
    add("polytope-norm", ["polytope-norm"],
        {"polytope": _polytope_json(poly), "covector": list(cov)},
        expect=lambda doc, svg: None if doc["value"] == width else "wrong seminorm")

    q = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(6)]
    s, _ = inputs.shape(rng.choice(inputs.SHAPES), 2, [rng.randint(1, 2)] * 2, (0, 0))
    qs = sorted({(a[0] + b[0], a[1] + b[1]) for a in q for b in s})
    add("is-polytope", ["is-polytope", "--oracle"],
        {"pos": _polytope_json(qs), "neg": _polytope_json(q)},
        expect=lambda doc, svg: None if doc["polytope"] and checks.translate_equal(
            _tuples(doc["polytope"]["vertices"]), s) else "(Q+S) - Q is not S")
    neg = lambda pts: [tuple(-c for c in p) for p in pts]
    add("decompose", ["decompose"],
        {"pos": _polytope_json(s), "neg": _polytope_json(neg(s))},
        expect=lambda doc, svg: None if checks.is_zero_sum(
            [(1, _tuples(doc["witness"]["vertices"])),
             (-1, neg(_tuples(doc["witness"]["vertices"]))), (-1, s), (1, neg(s))], 2)
        else "witness does not round-trip")
    add("order", ["order"],
        {"x": {"pos": _polytope_json(q), "neg": _polytope_json([(0, 0)])},
         "y": {"pos": _polytope_json(qs), "neg": _polytope_json([(0, 0)])}},
        expect=lambda doc, svg: None if (doc["leq"], doc["geq"]) == (True, False)
        else "Q <= Q+S and not Q+S <= Q expected")

    m, _ = inputs.triangular_block(rng, 2, 2, inputs.UNTWISTED)
    group = {"k": 2, "twist": [list(r) for r in inputs.UNTWISTED]}
    add("det", ["det"], {"group": group, "matrix": [[_ring_json(e) for e in row] for row in m]},
        expect=lambda doc, svg: None if checks.is_zero_sum(
            [(1, [tuple(t["v"]) + (t["m"],) for t in doc["determinant"]["numerator"]]),
             (-1, [tuple(t["v"]) + (t["m"],) for t in doc["determinant"]["denominator"]]),
             (-1, checks.commutative_det_support(m, 2))], 3) else "wrong determinant")

    block, diag = inputs.triangular_block(rng, 2, 2, inputs.HEISENBERG)
    expected = [(-1, checks.element_points(e, inputs.HEISENBERG)) for e in diag]
    add("matrix-polytope", ["matrix-polytope"],
        {"group": {"k": 2, "twist": [list(r) for r in inputs.HEISENBERG]},
         "matrix": [[_ring_json(e) for e in row] for row in block]},
        expect=lambda doc, svg: None if doc["h1_rank"] == 2 and checks.is_zero_sum(
            [(1, _tuples(doc["polytope_class"]["pos"]["vertices"])),
             (-1, _tuples(doc["polytope_class"]["neg"]["vertices"]))] + expected, 2)
        else "wrong determinant class")

    circle = {"group": {"k": 0, "twist": []}, "ranks": [1, 1],
              "boundaries": [[[_ring_json({((), 0): -1, ((), 1): 1})]]]}
    add("torsion-circle", ["torsion"], circle,
        expect=lambda doc, svg: None if doc["polytope_rank1_value"] == -1 else
        "circle torsion is not -1")

    twist = [list(r) for r in inputs.signed_permutation(rng, 2)]
    add("mapping-torus", ["mapping-torus", "--twist", json.dumps(twist)],
        expect=lambda doc, svg: None if doc["ranks"] == [1, 3, 3, 1] else "wrong ranks")
    twist3 = [list(r) for r in inputs.random_unimodular(rng, 3, 4)]
    add("mapping-torus-oracle", ["torsion", "--oracle", "-"],
        pipe_from=["mapping-torus", "--twist", json.dumps(twist3)], codes=(0, 0),
        expect=lambda doc, svg: None if doc["acyclic"] and doc["is_zero"] else
        "mapping torus with nonzero torsion")

    def demo(doc, svg):
        ok = (sorted(doc["minkowski_hexagon"]["vertices"]) == HEXAGON
              and doc["circle_torsion"]["polytope_rank1_value"] == -1
              and all(t["acyclic"] and t["polytope_is_zero"]
                      for t in doc["mapping_tori"].values()))
        return None if ok else "wrong demo document"
    add("demo", ["demo"], expect=demo)
    add("malformed", ["torsion"], '{"group": ', codes=(2,),
        expect=lambda doc, svg: None if "byte offset" in doc.get("error", "") else
        "no byte offset in the JSON error")
    return jobs


WORKLOADS = {"dieudonne": Dieudonne, "torsion": Torsion, "polytope": Polytope,
             "cli-cold": CliCold}
