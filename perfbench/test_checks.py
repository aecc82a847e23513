"""Each check of the benchmark accepts the package's answer and rejects a
deliberately wrong one.

Run from the root of the repository:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import json
import os
import random

import polygroup
import pytest

import checks
import inputs
import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_zero_sum_and_translation():
    tri = [(0, 0), (2, 0), (0, 1)]
    moved = [(x + 3, y - 1) for x, y in tri]
    assert checks.is_zero_sum([(1, tri), (-1, moved)], 2)
    assert not checks.is_zero_sum([(1, tri), (-1, moved + [(4, 1)])], 2)
    assert not checks.is_zero_sum([(1, tri), (-1, [(-x, -y) for x, y in tri])], 2)
    assert checks.translate_equal(tri, moved)
    assert not checks.translate_equal(tri, [(0, 0), (1, 0), (0, 1)])


def test_commutative_determinant():
    one = {((0, 0), 0): 1}
    x = {((1, 0), 0): 1}
    y = {((0, 1), 0): 1}
    # det [[x, 1], [1, y]] = xy - 1
    assert sorted(checks.commutative_det_support([[x, one], [one, y]], 2)) == [
        (0, 0, 0), (1, 1, 0)]
    assert checks.commutative_det_support([[x, x], [y, y]], 2) == []


def _brute_force_facets(pts):
    """Facets of a full-dimensional conv(pts) from every d-subset."""
    d = len(pts[0])
    found = set()
    for combo in itertools.combinations(pts, d):
        rows = [[a - b for a, b in zip(p, combo[0])] for p in combo[1:]]
        if checks.affine_rank([[0] * d] + rows) < d - 1:
            continue
        n = checks._kernel_vector(rows, d)
        c = sum(a * b for a, b in zip(n, combo[0]))
        vals = [sum(a * b for a, b in zip(n, p)) for p in pts]
        if max(vals) == c:
            found.add((n, c))
        elif min(vals) == c:
            found.add((tuple(-x for x in n), -c))
    return found


def test_facets_of_known_and_random_polytopes():
    for kind in inputs.SHAPES:
        for d in (2, 3, 4):
            verts, known = inputs.shape(kind, d, [2, 3, 1, 2][:d], tuple(range(d)))
            assert {(n, c) for n, (c, _) in checks.facets(verts).items()} == set(known)
    rng = random.Random(2)
    for _ in range(60):
        d = rng.choice((2, 3, 4))
        pts = sorted({tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(12)})
        if checks.affine_rank(pts) == d:
            got = {(n, c) for n, (c, _) in checks.facets(pts).items()}
            assert got == _brute_force_facets(pts), pts


def test_facet_check_rejects_missing_and_false_facets():
    cube, facets = inputs.shape("box", 3, [1, 1, 1], (0, 0, 0))
    assert checks.check_facets(cube, [], facets) == []
    assert checks.check_facets(cube, [], facets[1:]) != []
    assert checks.check_facets(cube, [], facets + [((1, 1, 0), 2)]) != []
    assert checks.check_facets(cube, [((1, 1, 1), 0)], facets) != []
    simplex4, f4 = inputs.shape("simplex", 4, [1], (0, 0, 0, 0))
    assert checks.check_facets(simplex4, [], f4) == []
    assert checks.check_facets(simplex4, [], f4[:-1]) != []


def test_hull_check_rejects_extra_and_missing_vertices():
    la = polygroup.lattice
    square = [(0, 0), (4, 0), (0, 4), (4, 4)]
    pts = square + [(2, 0), (1, 1)]
    assert checks.check_hull(pts, square) == []
    assert checks.check_hull(pts, square + [(2, 0)]) != []   # on an edge
    assert checks.check_hull(pts, square + [(1, 1)]) != []   # inside
    assert checks.check_hull(pts, square[1:]) != []
    assert checks.check_hull(pts, square + [(9, 9)]) != []   # not an input point
    # a segment and a point in rank 3
    assert checks.check_hull([(0, 0, 0), (1, 1, 1), (2, 2, 2)], [(0, 0, 0), (2, 2, 2)]) == []
    assert checks.check_hull([(0, 0, 0), (1, 1, 1), (2, 2, 2)], [(0, 0, 0), (1, 1, 1)]) != []
    assert checks.check_hull([(1, 2, 3)], [(1, 2, 3)]) == []
    # a vertex of a large hull whose normal cone holds none of the
    # directions in [-2, 2]^3, so that no support function there shows it
    for item in (it for job in inputs.polytope_jobs(1) for it in job if it["kind"] == "hull"
                 and it["rank"] == 3):
        verts = list(la.hull(item["points"][0]).vertices)
        assert checks.check_hull(item["points"][0], verts) == []
        hidden = [v for v in verts if all(
            checks.support([w for w in verts if w != v], phi) == checks.support(verts, phi)
            for phi in checks.directions(3))]
        if hidden:
            assert checks.check_hull(item["points"][0],
                                     [w for w in verts if w != hidden[0]]) != []
            return
    pytest.fail("no vertex with a narrow normal cone")


@pytest.fixture(scope="module")
def dieudonne():
    wl = workloads.Dieudonne(7, polygroup)
    picks = {}
    for job in wl.jobs:
        picks.setdefault((job[0]["kind"], job[0]["group"]), job)
    return wl, picks


def _swap_class(res, other):
    det, _ = res
    return det, other[1]


def test_dieudonne_checks(dieudonne):
    wl, picks = dieudonne
    for key, job in picks.items():
        out = wl.run(job)
        assert wl.check(job, out) == [], key
        live = [(i, j) for i, res in enumerate(out) for j, r in enumerate(res) if r]
        (i, j), (i2, j2) = live[0], next(
            p for p in live if out[p[0]][p[1]][1] != out[live[0][0]][live[0][1]][1])
        wrong = [list(res) for res in out]
        wrong[i][j] = _swap_class(out[i][j], out[i2][j2])
        assert wl.check(job, wrong) != [], key
        if job[0]["kind"] == "triple2":
            # AB reported singular although A and B are not
            i = next(n for n, res in enumerate(out) if all(res))
            wrong = [list(res) for res in out]
            wrong[i][2] = None
            assert wl.check(job, wrong) != [], key
        elif job[0]["group"] == "untwisted":
            wrong = [list(res) for res in out]
            wrong[i][j] = None
            assert wl.check(job, wrong) != [], key
        else:
            # another block's determinant and class: consistent, but not this block's
            wrong = [list(res) for res in out]
            wrong[i][j] = out[i2][j2]
            assert any("diagonal" in p for p in wl.check(job, wrong)), key


def test_dieudonne_multiplicativity_is_checked(dieudonne):
    wl, picks = dieudonne
    job = picks[("triple2", "heisenberg")]
    out = wl.run(job)
    for n, (a, b, ab) in enumerate(out):
        if a and b and not b[1].is_zero():
            wrong = [list(res) for res in out]
            # P(det AB) replaced by P(det A), and the determinant made to match
            wrong[n][2] = a
            assert any("AB" in p for p in wl.check(job, wrong))
            return
    pytest.fail("no nonsingular triple with a nonzero class")


def test_torsion_checks():
    wl = workloads.Torsion(3, polygroup)
    jobs = wl.jobs[9:17]  # the second draw: one complex of every kind
    out = [wl.run(job) for job in jobs]
    assert all(wl.check(job, pair) == [] for job, pair in zip(jobs, out))
    kinds = [spec["kind"] for spec, _ in jobs]
    nonzero = next(i for i, (r, _) in enumerate(out) if not r.polytope.is_zero())
    torus, one = kinds.index("torus"), kinds.index("one-boundary")
    r = out[nonzero][0]
    TR = polygroup.TorsionResult
    for i, bad in (
        # a mapping torus with a nonzero class
        (torus, (r, r)),
        # the two algorithms disagree
        (nonzero, (r, TR(True, r.polytope.neg()))),
        # the sign convention is flipped on both
        (nonzero, tuple(TR(True, x.polytope.neg()) for x in out[nonzero])),
        (one, tuple(TR(True, x.polytope.neg()) for x in out[one])),
        # an acyclic complex reported not acyclic
        (torus, (TR(False, None), out[torus][1])),
    ):
        assert wl.check(jobs[i], bad) != []


def test_polytope_checks():
    wl = workloads.Polytope(5, polygroup)
    la = polygroup.lattice
    for job in (wl.jobs[0], wl.jobs[1], wl.jobs[-1]):
        out = wl.run(job)
        assert wl.check(job, out) == []
        pair, item = out[0], job[0]
        eqs, ineqs = pair["facets"]
        mutations = [
            ("facets", (eqs, ineqs[1:])),
            ("difference", la.hull(list(pair["difference"].vertices) + [
                tuple(c + 5 for c in pair["difference"].vertices[0])])),
            # Y + T for a simplex T: adds T - *T, which is not zero
            ("witness", la.minkowski_sum(pair["witness"], la.hull(
                [(0,) * item["rank"]] + [tuple(int(j == i) for j in range(item["rank"]))
                                         for i in range(item["rank"])]))),
            ("q", la.hull(pair["q"].vertices[1:])),
            ("qs", pair["q"]),
        ]
        mutations += [("leq", False), ("geq", True)]
        if item["rank"] == 2:
            point_dir = next(phi for phi in checks.directions(2)
                             if len(la.face(la.hull(item["s_vertices"]), phi).vertices) == 1)
            mutations.append(("certified", (None, point_dir)))
        for key, val in mutations:
            wrong = [dict(pair, **{key: val})] + out[1:]
            assert wl.check(job, wrong) != [], key
    big = next(j for j in wl.jobs if j[-1].get("kind") == "hull")
    out = wl.run(big)
    wrong = out[:-1] + [{"hull": la.hull(out[-1]["hull"].vertices[1:])}]
    assert wl.check(big, wrong) != []


def test_cli_checks(tmp_path):
    jobs = workloads._cli_jobs(4, str(tmp_path))
    by_name = {j["name"]: j for j in jobs}
    wl = workloads.CliCold.__new__(workloads.CliCold)
    good = {
        "torsion-circle": {"format": 1, "polytope_rank1_value": -1},
        "malformed": {"format": 1, "error": "malformed JSON at byte offset 11"},
    }
    for name, doc in good.items():
        job = by_name[name]
        out = (job["codes"], json.dumps(doc), None)
        assert wl.check(job, out) == []
        assert wl.check(job, ((0,) * len(job["codes"]) if job["codes"] != (0,) else (1,),
                              json.dumps(doc), None)) != []
    job = by_name["torsion-circle"]
    assert wl.check(job, ((0,), json.dumps({"format": 1, "polytope_rank1_value": 1}),
                          None)) != []
    job = by_name["polytope-sum-svg"]
    hexagon = {"format": 1, "polytope": {"rank": 2, "vertices": workloads.HEXAGON}}
    svg = "<?xml?>\n<svg>\n</svg>\n"
    assert wl.check(job, ((0,), json.dumps(hexagon), svg)) == []
    assert wl.check(job, ((0,), json.dumps(hexagon), "")) != []
    square = {"format": 1, "polytope": {"rank": 2, "vertices": [[0, 0], [0, 1], [1, 0], [1, 1]]}}
    assert wl.check(job, ((0,), json.dumps(square), svg)) != []


def test_inputs_depend_only_on_the_seed():
    assert inputs.dieudonne_jobs(3) == inputs.dieudonne_jobs(3)
    assert inputs.dieudonne_jobs(3) != inputs.dieudonne_jobs(4)
    assert inputs.polytope_jobs(3) == inputs.polytope_jobs(3)
    assert inputs.torsion_jobs(3) == inputs.torsion_jobs(3)


def test_benchmark_json_lists_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_names()
