"""Exact convex geometry over the integer lattice.

Polytopes are stored by their canonical vertex set: lexicographically
sorted extreme points, arbitrary-precision integers throughout. Values
are immutable; every operation is pure.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd
from operator import mul

from .intlinalg import identity_matrix, int_det

Point = tuple[int, ...]
Covector = tuple[int, ...]


class GeometryError(ValueError):
    pass


def primitive(cov) -> Covector:
    """Divide a covector by the gcd of its entries (zero stays zero)."""
    g = 0
    for x in cov:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(cov)
    return tuple(x // g for x in cov)


def dot(cov, point) -> int:
    return sum(map(mul, cov, point))


@dataclass(frozen=True)
class IntegralPolytope:
    rank: int
    vertices: tuple[Point, ...]

    def __post_init__(self):
        if not self.vertices:
            raise GeometryError("empty point set")

    @property
    def is_point(self) -> bool:
        return len(self.vertices) == 1

    def lexmin(self) -> Point:
        return self.vertices[0]

    def dim(self) -> int:
        return len(_affine_frame(self.vertices)[1])

    def direction_vectors(self) -> list[list[int]]:
        v0 = self.vertices[0]
        return [[a - b for a, b in zip(v, v0)] for v in self.vertices[1:]]

    @functools.cached_property
    def chart_facets(self):
        """(chart, facets of the coords polytope in chart coordinates).

        The full-dimensional model of `polytope_coords` and its
        `fulldim_facets`, computed at most once per polytope; equality
        and hashing still see only rank and vertices.
        """
        coords, chart = polytope_coords(self)
        return chart, tuple(fulldim_facets(coords.vertices, coords.rank))

    def translate(self, t) -> "IntegralPolytope":
        verts = tuple(sorted(tuple(a + b for a, b in zip(v, t)) for v in self.vertices))
        return IntegralPolytope(self.rank, verts)

    def __str__(self):
        return f"IntegralPolytope(rank={self.rank}, vertices={list(self.vertices)})"


@dataclass(frozen=True)
class AffineLatticeMap:
    matrix: tuple[tuple[int, ...], ...]
    offset: Point

    @property
    def source_rank(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def target_rank(self) -> int:
        return len(self.matrix)

    def apply(self, point) -> Point:
        if len(point) != self.source_rank:
            raise GeometryError("rank mismatch in affine map application")
        return tuple(dot(row, point) + o for row, o in zip(self.matrix, self.offset))


@dataclass(frozen=True)
class AffineChart:
    """Integral coordinates on the affine hull of a polytope in Z^n.

    `kernel` holds the covectors vanishing on the direction lattice,
    `basis` a saturated basis b_1..b_d of it, and `left` an n x d integer
    matrix with basis · left = I. So `coords` and `embed` are inverse
    bijections between aff(P) ∩ Z^n and Z^d, and `pull(psi)` is a
    covector phi on Z^n with phi(b_j) = psi_j.
    """

    origin: Point
    kernel: tuple[Covector, ...]
    basis: tuple[Point, ...]
    left: tuple[tuple[int, ...], ...]

    def coords(self, v) -> Point:
        diff = [a - b for a, b in zip(v, self.origin)]
        return tuple(sum(row[k] * x for row, x in zip(self.left, diff))
                     for k in range(len(self.basis)))

    def embed(self, z) -> Point:
        return tuple(o + sum(b[i] * x for b, x in zip(self.basis, z))
                     for i, o in enumerate(self.origin))

    def pull(self, psi) -> Covector:
        return tuple(dot(row, psi) for row in self.left)


def _ccw_cmp(u, v) -> int:
    """Compare nonzero plane vectors by angle, counterclockwise from +x.

    Exact: the upper half-plane (with the +x ray) comes first, and within
    a half-plane the sign of the cross product decides.
    """
    hu = 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1
    hv = 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1
    if hu != hv:
        return hu - hv
    cr = u[0] * v[1] - u[1] * v[0]
    return -1 if cr > 0 else (1 if cr < 0 else 0)


ccw_key = functools.cmp_to_key(_ccw_cmp)


def ccw_order(vertices) -> list[Point]:
    """Vertices of a polygon counterclockwise around their centroid.

    Up to two vertices are returned as given.
    """
    verts = list(vertices)
    if len(verts) <= 2:
        return verts
    m = len(verts)
    cx = sum(v[0] for v in verts)
    cy = sum(v[1] for v in verts)
    return sorted(verts, key=lambda v: ccw_key((v[0] * m - cx, v[1] * m - cy)))


def _check_ranks(points):
    ranks = {len(p) for p in points}
    if len(ranks) != 1:
        raise GeometryError("mixed ranks in point set")
    return ranks.pop()


def _hull_rank2(points):
    """Monotone chain; returns the extreme points in counterclockwise order."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(reversed(pts))[:-1]


def _echelon_add(rows, v) -> bool:
    """Append v to the integer echelon rows [(pivot, row)] if independent.

    v is reduced fraction-free against each row, which zeroes its pivot
    entry; a nonzero remainder joins the rows with its first nonzero
    coordinate as pivot.
    """
    for c, row in rows:
        if v[c]:
            f, g = row[c], v[c]
            v = [f * x - g * y for x, y in zip(v, row)]
    c = next((j for j, x in enumerate(v) if x), None)
    if c is None:
        return False
    rows.append((c, primitive(v)))
    return True


def _affine_frame(pts):
    """Indices of affinely independent points spanning aff(pts), and pivots.

    Returns (frame, pivots) with frame[0] == 0, in increasing order. The
    differences pts[i] - pts[0], i in frame, span the direction space of
    pts; their echelon form has its pivots in the coordinates `pivots`,
    so projecting onto those coordinates is injective on aff(pts).
    """
    p0 = pts[0]
    frame, rows = [0], []
    for i in range(1, len(pts)):
        if _echelon_add(rows, [a - b for a, b in zip(pts[i], p0)]):
            frame.append(i)
            if len(rows) == len(p0):
                break
    return frame, [c for c, _ in rows]


def _hull_fulldim(pts, simplex):
    """Vertices and facets of the hull of distinct points spanning Z^d, d >= 3.

    Exact incremental beneath-beyond with Quickhull's outside sets
    (Barber, Dobkin, Huhdanpaa, ACM TOMS 1996), started from the sorted
    indices `simplex` of d + 1 affinely independent points. The
    boundary is kept as a triangulation: every facet is a (d-1)-simplex
    on input points. A facet is visible from a point only when the point
    lies strictly beyond it, so points on the current boundary are
    dropped. At the end a triangulation vertex is a polytope vertex iff
    the normals of the facets through it have full rank, and the
    polytope's facets are the distinct (primitive outer normal, offset)
    pairs of the triangles, since coplanar triangles share both. Each
    new triangle pays one `_cofactor_normal`, in closed form for d <= 4.
    Returns (vertices, sorted facets).
    """
    d = len(pts[0])
    # (d + 1) times the centroid of the simplex: interior to every later hull
    centre = [sum(col) for col in zip(*(pts[i] for i in simplex))]
    facets = {}  # id -> (sorted vertex indices, outer normal, offset, outside points)
    ridges = {}  # sorted d-1 vertex indices -> ids of the facets through it
    ids = itertools.count()

    def add_facet(verts):
        base = pts[verts[0]]
        normal = _cofactor_normal([[a - b for a, b in zip(pts[v], base)]
                                   for v in verts[1:]])
        offset = dot(normal, base)
        if dot(normal, centre) > (d + 1) * offset:
            normal, offset = tuple(-x for x in normal), -offset
        fid = next(ids)
        facets[fid] = (verts, normal, offset, [])
        for k in range(d):
            ridges.setdefault(verts[:k] + verts[k + 1:], set()).add(fid)
        return fid

    def assign(candidates, fids):
        pending = set()
        for i in candidates:
            q = pts[i]
            for fid in fids:
                _, normal, offset, outside = facets[fid]
                if dot(normal, q) > offset:
                    outside.append(i)
                    pending.add(fid)
                    break
        return pending

    start = [add_facet(tuple(simplex[:k] + simplex[k + 1:])) for k in range(d + 1)]
    in_frame = set(simplex)
    pending = assign((i for i in range(len(pts)) if i not in in_frame), start)
    while pending:
        fid = pending.pop()
        _, normal, _, outside = facets[fid]
        apex = max(outside, key=lambda i: dot(normal, pts[i]))
        p = pts[apex]
        visible, stack, horizon = {fid}, [fid], []
        while stack:
            verts = facets[stack.pop()][0]
            for k in range(d):
                ridge = verts[:k] + verts[k + 1:]
                for g in ridges[ridge]:
                    if g in visible:
                        continue
                    if dot(facets[g][1], p) > facets[g][2]:
                        visible.add(g)
                        stack.append(g)
                    else:
                        horizon.append(ridge)
        orphans = []
        for g in visible:
            verts, _, _, outside = facets.pop(g)
            orphans.extend(i for i in outside if i != apex)
            for k in range(d):
                ridge = verts[:k] + verts[k + 1:]
                ridges[ridge].discard(g)
                if not ridges[ridge]:
                    del ridges[ridge]
        new = [add_facet(tuple(sorted(ridge + (apex,)))) for ridge in horizon]
        pending -= visible
        pending |= assign(orphans, new)

    normals = {}
    for verts, normal, _, _ in facets.values():
        for v in verts:
            normals.setdefault(v, set()).add(normal)
    out = []
    for v, ns in normals.items():
        rows = []
        for nm in ns:
            _echelon_add(rows, nm)
        if len(rows) == d:
            out.append(pts[v])
    return out, sorted({(normal, offset) for _, normal, offset, _ in facets.values()})


def hull(points) -> IntegralPolytope:
    """Convex hull with canonical (sorted, extreme-only) vertex set.

    One or two distinct points are their own vertices. Otherwise rank 1
    takes the extremes and rank 2 a monotone chain. For rank >= 3 the
    points are projected injectively onto pivot coordinates of their
    direction lattice; a projection of dimension <= 2 is solved as
    above, and a full-dimensional one by the exact beneath-beyond engine
    `_hull_fulldim`, which also yields the facets for `facet_description`.
    No linear program is solved.
    """
    pts = [tuple(int(c) for c in p) for p in points]
    if not pts:
        raise GeometryError("empty point set")
    rank = _check_ranks(pts)
    if len(pts) <= 2:
        return IntegralPolytope(rank, tuple(sorted(set(pts))))
    if rank == 0:
        return IntegralPolytope(0, ((),))
    if rank == 1:
        xs = [p[0] for p in pts]
        lo, hi = min(xs), max(xs)
        verts = ((lo,),) if lo == hi else ((lo,), (hi,))
        return IntegralPolytope(1, verts)
    if rank == 2:
        return IntegralPolytope(2, tuple(sorted(_hull_rank2(pts))))
    pts = sorted(set(pts))
    frame, pivots = _affine_frame(pts)
    proj = {tuple(p[c] for c in pivots): p for p in pts}
    low = list(proj)
    if len(pivots) <= 1:
        verts = [min(low), max(low)]
    elif len(pivots) == 2:
        verts = _hull_rank2(low)
    else:
        verts = _hull_fulldim(low, frame)[0]
    return IntegralPolytope(rank, tuple(sorted({proj[v] for v in verts})))


def minkowski_sum(p: IntegralPolytope, q: IntegralPolytope) -> IntegralPolytope:
    """P + Q. A point summand {t} translates the other; {0} returns it as is."""
    if p.rank != q.rank:
        raise GeometryError("rank mismatch in Minkowski sum")
    for a, b in ((p, q), (q, p)):
        if a.is_point:
            t = a.vertices[0]
            return b.translate(t) if any(t) else b
    sums = {tuple(a + b for a, b in zip(u, v)) for u in p.vertices for v in q.vertices}
    return hull(sums)


def face(p: IntegralPolytope, cov) -> IntegralPolytope:
    if len(cov) != p.rank:
        raise GeometryError("rank mismatch in face")
    values = [dot(cov, v) for v in p.vertices]
    m = max(values)
    verts = tuple(v for v, val in zip(p.vertices, values) if val == m)
    return IntegralPolytope(p.rank, verts)


def support(p: IntegralPolytope, cov) -> int:
    if len(cov) != p.rank:
        raise GeometryError("rank mismatch in support")
    return max(dot(cov, v) for v in p.vertices)


def seminorm(p: IntegralPolytope, cov) -> int:
    return support(p, cov) + support(p, tuple(-c for c in cov))


def reflect(p: IntegralPolytope) -> IntegralPolytope:
    verts = tuple(sorted(tuple(-c for c in v) for v in p.vertices))
    return IntegralPolytope(p.rank, verts)


def pushforward(f: AffineLatticeMap, p: IntegralPolytope) -> IntegralPolytope:
    if f.source_rank != p.rank:
        raise GeometryError("rank mismatch in pushforward")
    return hull([f.apply(v) for v in p.vertices])


def _cofactor_normal(rows):
    """Primitive integer kernel vector of a (d-1) x d integer matrix.

    Entry j is (-1)^j times the minor without column j: a cross product
    for d = 3, a Laplace expansion along the last row over the six 2 x 2
    minors of the first two for d = 4, and Bareiss minors otherwise.
    """
    d = len(rows) + 1
    if d == 3:
        (a0, a1, a2), (b0, b1, b2) = rows
        return primitive((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))
    if d == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        m01, m02, m03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
        m12, m13, m23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
        return primitive((c1 * m23 - c2 * m13 + c3 * m12,
                          -c0 * m23 + c2 * m03 - c3 * m02,
                          c0 * m13 - c1 * m03 + c3 * m01,
                          -c0 * m12 + c1 * m02 - c2 * m01))
    normal = []
    for j in range(d):
        minor = [[row[c] for c in range(d) if c != j] for row in rows]
        det = int_det(minor) if minor else 1
        normal.append(det if j % 2 == 0 else -det)
    return primitive(normal)


def fulldim_facets(vertices, d):
    """Facets of a full-dimensional polytope in Z^d given by its vertices.

    Returns a sorted list of (primitive outer normal, constant): none for
    d = 0, the extremes for d = 1, the edges of the monotone chain for
    d = 2, and the facets of the hull engine `_hull_fulldim` for d >= 3.
    """
    if d == 0:
        return []
    if d == 1:
        xs = [v[0] for v in vertices]
        return [((-1,), -min(xs)), ((1,), max(xs))]
    if d == 2:
        cycle = _hull_rank2(vertices)
        out = []
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            normal = primitive((b[1] - a[1], a[0] - b[0]))
            out.append((normal, dot(normal, a)))
        return sorted(out)
    return _hull_fulldim(vertices, _affine_frame(vertices)[0])[1]


def facet_description(p: IntegralPolytope):
    """Exact H-description of a (possibly lower-dimensional) polytope.

    Returns (equalities, inequalities): lists of (covector, c) meaning
    phi(x) == c resp. phi(x) <= c, whose simultaneous solution set is
    exactly P. The equalities are the chart's kernel; the inequalities
    are the facets of the full-dimensional model `polytope_coords`,
    pulled back through the chart. Chart and facets are computed once
    per polytope (`IntegralPolytope.chart_facets`); every call returns
    fresh lists.
    """
    chart, facets = p.chart_facets
    equalities = [(k, dot(k, chart.origin)) for k in chart.kernel]
    ineqs = []
    for psi, c in facets:
        phi = chart.pull(psi)
        ineqs.append((phi, c + dot(phi, chart.origin)))
    return equalities, sorted(ineqs)


def facet_normals(p: IntegralPolytope):
    """Primitive outer facet normals with constants.

    For lower-dimensional polytopes these describe P only within its
    affine hull; combine with the equalities from facet_description for
    the exact solution set. A single point yields the empty list.
    """
    return facet_description(p)[1]


def subset(p: IntegralPolytope, q: IntegralPolytope) -> bool:
    """Is P contained in Q? Exact, via Q's facet inequalities."""
    if p.rank != q.rank:
        raise GeometryError("rank mismatch in subset")
    eqs, ineqs = facet_description(q)
    for v in p.vertices:
        if not all(dot(phi, v) == c for phi, c in eqs):
            return False
        if not all(dot(phi, v) <= c for phi, c in ineqs):
            return False
    return True


def _lattice_chart(dirs, n):
    """(kernel, basis, left) of the lattice spanned by the rows of dirs.

    One unimodular column reduction makes dirs V = [H | 0]. Euclid with
    nearest-integer quotients clears each row right of its pivot and
    reduces the row left of it modulo the pivot, as for a Hermite form
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4), so
    entries stay small. v[j] is column j of V; the inverse row operations
    carry W = V^-1. The kernel is then the last n - d columns of V, the
    basis (of the saturated row lattice) the first d rows of W, and
    `left` the first d columns of V. Full rank gives the identity chart.
    """
    v, w, d = identity_matrix(n), identity_matrix(n), 0
    for row in dirs:
        a = [dot(row, c) for c in v]
        while live := [j for j in range(d, n) if a[j]]:
            p = min(live, key=lambda j: abs(a[j]))
            for x in (a, v, w):
                x[d], x[p] = x[p], x[d]
            for j in range(n):
                q = (2 * a[j] + a[d]) // (2 * a[d])
                if j != d and q:
                    a[j] -= q * a[d]
                    v[j] = [x - q * y for x, y in zip(v[j], v[d])]
                    w[d] = [x + q * y for x, y in zip(w[d], w[j])]
            d += len(live) == 1
        if d == n:
            v = w = identity_matrix(n)
            break
    return (tuple(map(tuple, v[d:])), tuple(map(tuple, w[:d])),
            tuple(tuple(c[i] for c in v[:d]) for i in range(n)))


def polytope_coords(p: IntegralPolytope):
    """Full-dimensional model of P: (coords polytope in Z^d, chart).

    The chart's basis is a saturated basis of P's direction lattice, so
    the coords polytope is full-dimensional in Z^d. One column reduction
    of the direction vectors (`_lattice_chart`) makes the chart, whatever
    the number of vertices. For a point, d = 0.
    """
    chart = AffineChart(p.vertices[0], *_lattice_chart(p.direction_vectors(), p.rank))
    coords = tuple(sorted(chart.coords(v) for v in p.vertices))
    return IntegralPolytope(len(chart.basis), coords), chart
