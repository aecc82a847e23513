import itertools
import math
import random

import pytest

from gen import affine_rank, sublattice_sampler
from polygroup import lattice
from polygroup.exactlp import point_in_hull
from polygroup.intlinalg import int_det, mat_mul, snf
from polygroup.lattice import (
    AffineLatticeMap,
    GeometryError,
    IntegralPolytope,
    _cofactor_normal,
    dot,
    face,
    facet_description,
    facet_normals,
    hull,
    minkowski_sum,
    polytope_coords,
    primitive,
    pushforward,
    reflect,
    seminorm,
    subset,
    support,
)
from polygroup.vpolytope import VirtualPolytope, find_translation_into, leq


def seg(a, b):
    return hull([(a,), (b,)])


def test_hull_single_point():
    p = hull([(0, 0)])
    assert p.vertices == ((0, 0),)
    assert p.is_point


def test_hull_drops_interior_collinear():
    p = hull([(0, 0), (2, 0), (1, 0), (1, 1)])
    assert set(p.vertices) == {(0, 0), (2, 0), (1, 1)}


def test_hull_idempotent_and_canonical():
    rng = random.Random(7)
    for _ in range(20):
        pts = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(12)]
        p = hull(pts)
        assert hull(p.vertices) == p
        assert list(p.vertices) == sorted(p.vertices)


def test_hull_empty_errors():
    with pytest.raises(GeometryError):
        hull([])


def test_hull_mixed_rank_errors():
    with pytest.raises(GeometryError):
        hull([(0, 0), (1,)])


def _affine_sample(rng, base, gens, count):
    """Points base + sum c_k gens[k] with small random integer c_k."""
    out = []
    for _ in range(count):
        c = [rng.randint(-3, 3) for _ in gens]
        out.append(tuple(b + sum(ck * g[i] for ck, g in zip(c, gens))
                         for i, b in enumerate(base)))
    return out


def test_hull_vertices_against_lp_membership_oracle():
    rng = random.Random(11)
    inputs = [
        # random full-dimensional set in Z^3
        [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(50)],
        # coplanar sets in Z^3: a skew plane and an axis plane with a grid
        _affine_sample(rng, (1, -2, 3), [(1, 2, 0), (0, 1, -1)], 30),
        [(x, y, 2) for x in range(-2, 3) for y in range(-1, 2)],
        # collinear sets in Z^3
        _affine_sample(rng, (0, 4, -1), [(2, -1, 3)], 12),
        [(k, k, k) for k in range(5)],
        # duplicated points: a cube with repeated corners and its centre
        [tuple(2 * b for b in c) for c in itertools.product((0, 1), repeat=3)] * 3
        + [(1, 1, 1), (1, 1, 1)],
        # a 3-dimensional set inside Z^4
        _affine_sample(rng, (2, 0, -1, 1), [(1, 0, 1, 0), (0, 1, -1, 2), (1, 1, 0, -1)], 40),
        # full-dimensional sets in Z^4, random and with coplanar boundary points
        [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(40)],
        list(itertools.product((0, 1, 2), repeat=4)),
        # full-dimensional sets in Z^5 and a 5-dimensional set in Z^6, where
        # facet normals come from Bareiss minors rather than a closed form
        *([tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(18)] for _ in range(3)),
        _affine_sample(rng, (1, 0, -1, 2, 0, 1),
                       [(1, 0, 0, 1, 0, 2), (0, 1, 0, -1, 1, 0), (0, 0, 1, 1, -1, 0),
                        (1, 1, 0, 0, 2, -1), (0, 2, -1, 0, 0, 1)], 24),
    ]
    for pts in inputs:
        p = hull(pts)
        vset = set(p.vertices)
        assert list(p.vertices) == sorted(vset)
        assert vset <= set(pts)
        for q in set(pts):
            others = [r for r in set(pts) if r != q]
            is_vertex = not point_in_hull(q, others)
            assert (q in vset) == is_vertex


def test_cofactor_normal_matches_minor_definition():
    rng = random.Random(13)
    for d in range(2, 7):
        for trial in range(30):
            rows = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d - 1)]
            if trial % 5 == 0 and d > 2:          # dependent rows: the zero normal
                rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1 % (d - 2)])]
            minors = [int_det([r[:j] + r[j + 1:] for r in rows]) for j in range(d)]
            want = primitive([(-1) ** j * m for j, m in enumerate(minors)])
            got = _cofactor_normal(rows)
            assert got == want
            assert all(dot(got, r) == 0 for r in rows)


def test_minkowski_intervals():
    assert minkowski_sum(seg(0, 1), seg(0, 2)) == seg(0, 3)


def test_minkowski_hexagon():
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    diag = hull([(0, 0), (1, 1)])
    out = minkowski_sum(square, diag)
    assert set(out.vertices) == {(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)}


def test_minkowski_singleton_translates():
    p = hull([(0, 0), (2, 1), (1, 3)])
    t = minkowski_sum(p, hull([(5, -2)]))
    assert t == p.translate((5, -2))


def test_minkowski_monoid_laws():
    rng = random.Random(3)
    z = hull([(0, 0, 0)])
    for _ in range(4):
        ps = [hull([tuple(rng.randint(-4, 4) for _ in range(3))
                    for _ in range(4)]) for _ in range(3)]
        a, b, c = ps
        assert minkowski_sum(a, b) == minkowski_sum(b, a)
        assert minkowski_sum(minkowski_sum(a, b), c) == \
            minkowski_sum(a, minkowski_sum(b, c))
        assert minkowski_sum(a, z) == a


def test_face_square():
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert face(square, (1, 0)) == hull([(1, 0), (1, 1)])
    assert face(square, (0, 0)) == square


def test_face_additive_under_minkowski():
    rng = random.Random(5)
    for _ in range(100):
        p = hull([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(5)])
        q = hull([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(5)])
        phi = tuple(rng.randint(-3, 3) for _ in range(3))
        lhs = face(minkowski_sum(p, q), phi)
        rhs = minkowski_sum(face(p, phi), face(q, phi))
        assert lhs == rhs


def test_support_values_and_additivity():
    assert support(seg(0, 3), (1,)) == 3
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert support(square, (1, 1)) == 2
    rng = random.Random(9)
    for _ in range(30):
        p = hull([tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(5)])
        q = hull([tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(5)])
        phi = tuple(rng.randint(-3, 3) for _ in range(2))
        assert support(minkowski_sum(p, q), phi) == \
            support(p, phi) + support(q, phi)


def test_seminorm_properties():
    assert seminorm(seg(-2, 5), (1,)) == 7
    assert seminorm(hull([(3, 4)]), (1, 1)) == 0
    rng = random.Random(13)
    for _ in range(30):
        p = hull([tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(5)])
        q = hull([tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(5)])
        phi = tuple(rng.randint(-3, 3) for _ in range(2))
        neg = tuple(-c for c in phi)
        assert seminorm(p, phi) >= 0
        assert seminorm(p, phi) == seminorm(p, neg)
        assert seminorm(p, phi) == support(p, phi) + support(p, neg)
        assert seminorm(minkowski_sum(p, q), phi) == \
            seminorm(p, phi) + seminorm(q, phi)
        assert seminorm(p, tuple(3 * c for c in phi)) == 3 * seminorm(p, phi)


def test_reflect():
    assert reflect(seg(0, 2)) == seg(-2, 0)
    t = hull([(0, 0), (1, 0), (0, 1)])
    assert reflect(t) == hull([(0, 0), (-1, 0), (0, -1)])
    rng = random.Random(17)
    for _ in range(20):
        p = hull([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(5)])
        q = hull([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(5)])
        assert reflect(reflect(p)) == p
        assert reflect(minkowski_sum(p, q)) == \
            minkowski_sum(reflect(p), reflect(q))
    sym = hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert reflect(sym) == sym


def test_subset():
    assert subset(seg(0, 1), seg(0, 2))
    assert not subset(seg(0, 2), seg(0, 1))
    rng = random.Random(19)
    for _ in range(20):
        p = hull([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(5)])
        q = hull([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(5)])
        assert subset(p, minkowski_sum(p, q.translate(
            tuple(-c for c in q.vertices[0]))))


def test_facet_description_cached_per_polytope():
    rng = random.Random(29)
    p = hull([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(10)])
    first = facet_description(p)
    first[0].append(((1, 0, 0), 0))
    first[1].clear()
    assert facet_description(p) == facet_description(hull(p.vertices)) != first
    fresh = IntegralPolytope(p.rank, p.vertices)
    assert fresh == p and hash(fresh) == hash(p) and str(fresh) == str(p)


def test_facets_computed_once_per_polytope(monkeypatch):
    calls = []

    def counting(vertices, d):
        calls.append(d)
        return real(vertices, d)

    real = lattice.fulldim_facets
    monkeypatch.setattr(lattice, "fulldim_facets", counting)
    rng = random.Random(41)
    q = hull([tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(16)])
    ps = [hull([tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(4)])
          for _ in range(40)]
    results = [subset(p, q) for p in ps]
    # the translation search behind leq reads the same cached facets of q
    assert find_translation_into(q.translate((7, -3, 2)), q) == (-7, 3, -2)
    assert calls == [3]
    assert results == [all(point_in_hull(v, list(q.vertices)) for v in p.vertices)
                       for p in ps]


def test_minkowski_sum_with_a_point(monkeypatch):
    rng = random.Random(47)
    q = hull([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(8)])
    s = hull([tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(4)])
    origin = hull([(0, 0, 0)])
    assert minkowski_sum(q, origin) is q and minkowski_sum(origin, q) is q
    t = hull([(2, -1, 3)])
    assert minkowski_sum(t, q) == minkowski_sum(q, t) == \
        hull([tuple(a + b for a, b in zip(v, (2, -1, 3))) for v in q.vertices])
    qs = minkowski_sum(q, s)
    facet_description(qs)
    calls = []
    real = lattice.fulldim_facets
    monkeypatch.setattr(lattice, "fulldim_facets",
                        lambda vertices, d: calls.append(d) or real(vertices, d))
    # qs + {0} is qs itself, so leq's translation search reads its cached facets
    assert leq(VirtualPolytope.from_polytope(q), VirtualPolytope.from_polytope(qs))
    assert calls == []


def test_facet_normals_interval_and_square():
    eqs, ineqs = facet_description(seg(0, 1))
    data = {phi: c for phi, c in ineqs}
    assert data == {(1,): 1, (-1,): 0}
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    _, ineqs = facet_description(square)
    assert {phi: c for phi, c in ineqs} == \
        {(1, 0): 1, (-1, 0): 0, (0, 1): 1, (0, -1): 0}
    assert facet_normals(hull([(3, 1)])) == []


def test_facet_description_roundtrip_rank3():
    rng = random.Random(23)
    for _ in range(20):
        p = hull([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(6)])
        eqs, ineqs = facet_description(p)
        # every lattice point satisfying the description within the
        # bounding box belongs to the polytope, and all vertices do
        for v in p.vertices:
            for phi, c in ineqs:
                assert sum(a * b for a, b in zip(phi, v)) <= c
            for phi, c in eqs:
                assert sum(a * b for a, b in zip(phi, v)) == c
        lo = [min(v[i] for v in p.vertices) for i in range(3)]
        hi = [max(v[i] for v in p.vertices) for i in range(3)]
        for pt in itertools.product(*[range(lo[i], hi[i] + 1) for i in range(3)]):
            ok = all(sum(a * b for a, b in zip(phi, pt)) <= c
                     for phi, c in ineqs)
            ok = ok and all(sum(a * b for a, b in zip(phi, pt)) == c
                            for phi, c in eqs)
            assert ok == point_in_hull(pt, list(p.vertices))


def test_pushforward():
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    ident = AffineLatticeMap(((1, 0), (0, 1)), (0, 0))
    assert pushforward(ident, square) == square
    proj = AffineLatticeMap(((1, 0),), (0,))
    assert pushforward(proj, square) == seg(0, 1)
    rng = random.Random(29)
    f = AffineLatticeMap(((1, 2, 0), (0, 1, -1)), (3, 0))
    g = AffineLatticeMap(((2, 1), (1, 1)), (0, -1))
    for _ in range(20):
        p = hull([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(5)])
        lhs = pushforward(g, pushforward(f, p))
        # g after f: x -> (G F) x + (G b + c)
        gb = mat_mul(g.matrix, [[b] for b in f.offset])
        gf = AffineLatticeMap(tuple(map(tuple, mat_mul(g.matrix, f.matrix))),
                              tuple(row[0] + c for row, c in zip(gb, g.offset)))
        assert lhs == pushforward(gf, p)


def test_cancellativity():
    rng = random.Random(31)
    for _ in range(20):
        p = hull([tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(4)])
        q = hull([tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(4)])
        r = hull([tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(4)])
        if minkowski_sum(p, r) == minkowski_sum(q, r):
            assert p == q


def _det(m):
    """Laplace expansion, so that the facet oracle shares no package code."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _brute_force_facets(vertices):
    """Facets of a full-dimensional polytope in Z^d by trying every d-subset.

    The cofactor normal of a d-subset of vertices spans a hyperplane; it
    supports a facet when all vertices lie on one side. Returns the sorted
    (primitive outer normal, constant) pairs. O(V^(d+1)): an oracle only.
    """
    d = len(vertices[0])
    found = set()
    for combo in itertools.combinations(vertices, d):
        rows = [[a - b for a, b in zip(v, combo[0])] for v in combo[1:]]
        normal = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]) for j in range(d)]
        g = math.gcd(*normal)
        if g == 0:
            continue
        normal = tuple(x // g for x in normal)
        c = sum(a * b for a, b in zip(normal, combo[0]))
        vals = [sum(a * b for a, b in zip(normal, v)) for v in vertices]
        if max(vals) == c:
            found.add((normal, c))
        elif min(vals) == c:
            found.add((tuple(-x for x in normal), -c))
    return sorted(found)


def _check_against_facet_oracle(p):
    """facet_description(p) equals the brute-force facets when P is
    full-dimensional. Otherwise the equalities cut out aff(P) and the
    inequalities are tight exactly on the facets the oracle finds in a
    coordinate projection that is injective on aff(P)."""
    verts = list(p.vertices)
    n, d = p.rank, affine_rank(verts)
    eqs, ineqs = facet_description(p)
    if d == n:
        assert (eqs, ineqs) == ([], _brute_force_facets(verts))
        return
    assert len(eqs) == n - d == affine_rank([(0,) * n] + [phi for phi, _ in eqs])
    for phi, c in eqs + ineqs:
        assert all(dot(phi, v) <= c for v in verts)
    assert all(dot(phi, v) == c for phi, c in eqs for v in verts)
    cols = next(cols for cols in itertools.combinations(range(n), d)
                if affine_rank([tuple(v[i] for i in cols) for v in verts]) == d)
    proj = [tuple(v[i] for i in cols) for v in verts]
    expected = sorted(sorted(v for v, w in zip(verts, proj) if dot(psi, w) == c)
                      for psi, c in _brute_force_facets(proj))
    got = sorted(sorted(v for v in verts if dot(phi, v) == c) for phi, c in ineqs)
    assert got == expected


def test_facet_description_against_subset_enumeration_oracle():
    rng = random.Random(37)
    sets = [[(a,), (b,)] for a, b in [(0, 1), (-3, 4), (2, -7)]]
    for rank, npoints, box in [(2, 8, 5), (3, 10, 4), (4, 12, 3)]:
        for _ in range(12):
            sets.append([tuple(rng.randint(-box, box) for _ in range(rank))
                         for _ in range(npoints)])
    sets += [
        list(itertools.product((0, 1), repeat=3)),
        list(itertools.product((0, 1, 2), repeat=4)),
        [tuple(s if j == i else 0 for j in range(4)) for i in range(4) for s in (1, -1)],
        [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        _affine_sample(rng, (1, -1, 0, 2), [(1, 2, 0, -1), (0, 1, 1, 1)], 20),
        _affine_sample(rng, (0, 2, -1, 1), [(1, 0, 1, 0), (0, 1, -1, 2), (1, 1, 0, -1)], 25),
        _affine_sample(rng, (3, 0, 1), [(2, -1, 1)], 6),
    ]
    for pts in sets:
        _check_against_facet_oracle(hull(pts))


def test_affine_chart_in_sublattices():
    # points of a d-dimensional affine sublattice of Z^n whose generators
    # are not a saturated basis, so the chart's basis must refine them;
    # every chart entry stays within the Hadamard bound (sqrt(n) m)^dim,
    # m the largest direction entry
    rng = random.Random(43)
    for n in (3, 4, 5):
        for d in range(1, n):
            for _ in range(25):
                gens, sample = sublattice_sampler(rng, n, d)
                p = hull(sample(rng.randint(1, 6)))
                dirs = p.direction_vectors()
                dim = sum(1 for x in snf(dirs).diagonal if x) if dirs else 0
                assert p.dim() == dim
                coords, chart = polytope_coords(p)
                assert coords.rank == len(chart.basis) == dim
                assert len(chart.kernel) == n - dim
                assert all(dot(k, b) == 0 for k in chart.kernel for b in chart.basis)
                assert all(dot(k, x) == 0 for k in chart.kernel for x in dirs)
                m = max((abs(x) for x in itertools.chain(*dirs)), default=0)
                assert all(e * e <= (n * m * m) ** dim
                           for rows in (chart.kernel, chart.basis, chart.left)
                           for row in rows for e in row)
                assert coords.vertices == tuple(sorted(chart.coords(v) for v in p.vertices))
                for v in p.vertices:
                    assert chart.embed(chart.coords(v)) == v
                for _ in range(3):
                    psi = tuple(rng.randint(-3, 3) for _ in range(dim))
                    phi = chart.pull(psi)
                    assert tuple(dot(phi, b) for b in chart.basis) == psi
                if dim == d:
                    # the generators in chart coordinates: an even index
                    m = [chart.coords([o + x for o, x in zip(chart.origin, g)])
                         for g in gens]
                    index = _det(m)
                    assert index != 0 and index % 2 == 0
