"""Checks of the package's answers, computed apart from the package.

Nothing here imports the package under test. Classes of polytopes are
compared through their support functions h(phi) = max <phi, v>,
evaluated on the raw point sets (exponent supports, vertex lists) over
every primitive direction in a box. A formal sum of polytopes
sum_i s_i P_i is zero in the group up to translation exactly when
phi -> sum_i s_i h_i(phi) is linear; the checks test that on the
directions. Hulls and facet descriptions are checked exactly, against
the facets that `facets` finds by gift wrapping. Each check returns a
list of problems, empty when the answer is right.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import gcd
from operator import mul


@lru_cache(maxsize=None)
def directions(rank):
    """The primitive integer vectors in [-2, 2]^rank."""
    out = []
    for phi in product(range(-2, 3), repeat=rank):
        g = 0
        for x in phi:
            g = gcd(g, x)
        if g == 1:
            out.append(phi)
    return tuple(out)


def support(points, phi):
    return max([sum(map(mul, phi, p)) for p in points])


def is_zero_sum(terms, rank):
    """Is sum_i sign_i * P_i zero up to translation? terms = [(sign, points)]."""
    if rank == 0:
        return True
    dirs = directions(rank)
    total = [0] * len(dirs)
    for sign, pts in terms:
        for i, phi in enumerate(dirs):
            total[i] += sign * support(pts, phi)
    h = dict(zip(dirs, total))
    t = [h[tuple(int(i == j) for j in range(rank))] for i in range(rank)]
    return all(val == sum(a * b for a, b in zip(t, phi)) for phi, val in h.items())


def translate_equal(p, q):
    """Are two vertex lists translates of each other?"""
    p, q = sorted(p), sorted(q)
    if len(p) != len(q):
        return False
    shift = [a - b for a, b in zip(p[0], q[0])]
    return all(tuple(b + s for b, s in zip(w, shift)) == tuple(v)
               for v, w in zip(p, q))


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def _reduce(echelon, v):
    """Add the integer vector v to the echelon rows [(pivot, row)] if it is
    independent of them. v is reduced fraction-free against each row,
    which zeroes its pivot entry; a nonzero remainder joins the rows with
    its first nonzero coordinate as pivot."""
    for c, row in echelon:
        if v[c]:
            f, g = row[c], v[c]
            v = [f * x - g * y for x, y in zip(v, row)]
    c = next((j for j, x in enumerate(v) if x), None)
    if c is None:
        return False
    echelon.append((c, _primitive(v)))
    return True


def _differences(points):
    """Echelon rows of the differences p - points[0]. Projecting onto their
    pivot coordinates is injective on the affine hull of the points: on
    those columns the rows form a triangular matrix with a nonzero
    diagonal."""
    echelon = []
    for p in points[1:]:
        _reduce(echelon, [a - b for a, b in zip(p, points[0])])
    return echelon


def affine_rank(points):
    pts = [tuple(p) for p in points]
    return len(_differences(pts)) if pts else -1


# ---------------------------------------------------------------------------
# group rings: the abelianization and commutative determinants
# ---------------------------------------------------------------------------

def h1_coordinates(twist):
    """Coordinates of the free abelianization of Z^k x|_A Z, for the groups
    the benchmark uses: x^v u^m maps to (v, m) when A = I, to (v_2, m) for
    the Heisenberg twist [[1,1],[0,1]] (A - I has image Z e_1) and to (m)
    for the Sol twist [[2,1],[1,1]] (A - I is invertible over Z)."""
    k = len(twist)
    if all(twist[i][j] == int(i == j) for i in range(k) for j in range(k)):
        return lambda v, m: tuple(v) + (m,)
    if tuple(map(tuple, twist)) == ((1, 1), (0, 1)):
        return lambda v, m: (v[1], m)
    if tuple(map(tuple, twist)) == ((2, 1), (1, 1)):
        return lambda v, m: (m,)
    raise ValueError(f"no known abelianization for twist {twist}")


def element_points(element, twist):
    """The exponent support of a ring element in abelianized coordinates."""
    proj = h1_coordinates(twist)
    return [proj(v, m) for (v, m) in element]


def commutative_det_support(matrix, k):
    """Exponent support of the determinant of a matrix over the commutative
    ring Q[x_1^+-1, ..., x_k^+-1, u^+-1]: the Leibniz expansion in sympy's
    polynomial ring over Q, after shifting every entry to nonnegative
    exponents (which only translates the support). An empty list means the
    determinant is zero."""
    import sympy  # here, so that importing the checks does not time sympy's import
    ring, *ys = sympy.ring(",".join(f"y{i}" for i in range(k + 1)), sympy.QQ)
    low = [min((v + (m,))[i] for row in matrix for e in row for (v, m) in e)
           if any(row_e for row in matrix for row_e in row) else 0
           for i in range(k + 1)]
    entries = [[ring({tuple(x - s for x, s in zip(v + (m,), low)):
                      sympy.QQ(c.numerator, c.denominator) for (v, m), c in e.items()})
                 for e in row] for row in matrix]
    n = len(matrix)
    det = ring(0)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ring(sign)
        for i in range(n):
            term *= entries[i][perm[i]]
        det += term
    return [tuple(mono) for mono in det.keys()]


# ---------------------------------------------------------------------------
# facets and vertices of lattice polytopes
# ---------------------------------------------------------------------------

def _dot(phi, p):
    return sum(map(mul, phi, p))


def _det(m):
    """Determinant of a small integer matrix, by expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


def _kernel_vector(rows, d):
    """A primitive integer vector orthogonal to every row; the rows must
    span fewer than d dimensions. Independent rows, completed by unit
    vectors to d - 1 of them, give it as their cofactor vector."""
    echelon, basis = [], []
    for r in list(rows) + [[int(i == j) for i in range(d)] for j in range(d)]:
        if len(basis) == d - 1:
            break
        if _reduce(echelon, list(r)):
            basis.append(list(r))
    return _primitive([(-1) ** j * _det([r[:j] + r[j + 1:] for r in basis])
                       for j in range(d)])


def _rotate(pts, normal, hinge, m):
    """Turn the supporting hyperplane normal . x = c, which contains the
    points `hinge`, about their affine hull in the direction of the
    covector m (constant on the hinge) until it meets further points.
    Returns the new primitive outer normal and the indices of the points
    on it.

    The hyperplane through the hinge and a point p off the first one has
    normal g n + s m, with slack s = c - n.p > 0 and gain g = m.(p - hinge);
    the first point met has the least angle atan2(s, g).
    """
    base = pts[hinge[0]]
    c, b = _dot(normal, base), _dot(m, base)
    best = None
    for p in pts:
        slack = c - _dot(normal, p)
        if slack > 0:
            gain = _dot(m, p) - b
            if best is None or gain * best[1] > slack * best[0]:
                best = (gain, slack)
    gain, slack = best
    new = _primitive([gain * x + slack * y for x, y in zip(normal, m)])
    top = _dot(new, base)
    return new, frozenset(i for i, p in enumerate(pts) if _dot(new, p) == top)


def facets(points):
    """The facets of the full-dimensional polytope conv(points) in Z^d,
    as {primitive outer normal: (constant, indices of the points on it)}.

    Gift wrapping: a supporting hyperplane is turned until it holds d
    affinely independent points, and then every facet is turned about
    each of its ridges onto its neighbour. The ridges of a facet are the
    facets of its points, projected injectively to Z^(d-1) by dropping a
    coordinate in which the normal is nonzero. The facets and ridges of
    a polytope form a connected graph, so every facet is reached.
    """
    pts = [tuple(p) for p in points]
    d = len(pts[0])
    if d == 1:
        xs = [p[0] for p in pts]
        lo, hi = min(xs), max(xs)
        return {(-1,): (-lo, frozenset(i for i, x in enumerate(xs) if x == lo)),
                (1,): (hi, frozenset(i for i, x in enumerate(xs) if x == hi))}
    lo = min(p[0] for p in pts)
    normal = (-1,) + (0,) * (d - 1)
    tight = frozenset(i for i, p in enumerate(pts) if p[0] == lo)
    while affine_rank([pts[i] for i in tight]) < d - 1:
        hinge = sorted(tight)
        m = _kernel_vector([[a - b for a, b in zip(pts[i], pts[hinge[0]])]
                            for i in hinge[1:]] + [normal], d)
        normal, tight = _rotate(pts, normal, hinge, m)
    found, todo, turned = {normal: tight}, [normal], set()
    while todo:
        normal = todo.pop()
        on = sorted(found[normal])
        if len(on) == d:  # a simplex: its ridges are its (d-1)-subsets
            ridges = [on[:i] + on[i + 1:] for i in range(d)]
        else:
            j = next(i for i, x in enumerate(normal) if x)
            low = [pts[i][:j] + pts[i][j + 1:] for i in on]
            ridges = [sorted(on[i] for i in sub) for _, sub in facets(low).values()]
        for ridge in ridges:
            if frozenset(ridge) in turned:
                continue  # a ridge lies on two facets; it was turned from the other
            turned.add(frozenset(ridge))
            r0 = pts[ridge[0]]
            m = _kernel_vector([[a - b for a, b in zip(pts[i], r0)] for i in ridge[1:]]
                               + [normal], d)
            if any(_dot(m, pts[i]) > _dot(m, r0) for i in on):
                m = tuple(-x for x in m)  # away from the facet
            new, tight = _rotate(pts, normal, ridge, m)
            if new not in found:
                found[new] = tight
                todo.append(new)
    return {n: (_dot(n, pts[min(t)]), t) for n, t in found.items()}


def check_hull(points, vertices):
    """Are `vertices` exactly the vertices of conv(points)?

    The facets of conv(vertices) are computed by `facets` (in the affine
    hull of the points, when that is smaller). Every point must satisfy
    them, so no vertex is missing, and the normals of the facets through
    each returned vertex must span, so each is a vertex.
    """
    points = sorted(set(map(tuple, points)))
    verts = [tuple(v) for v in vertices]
    if len(set(verts)) != len(verts):
        return ["repeated vertex"]
    if not set(verts) <= set(points):
        return ["hull vertex outside the input points"]
    coords = sorted(c for c, _ in _differences(points))
    if affine_rank(verts) < len(coords):
        return ["the vertices do not span the hull"]
    if not coords:
        return []  # one point, and it is the one vertex
    low = [tuple(p[c] for c in coords) for p in points]
    fs = facets([tuple(v[c] for c in coords) for v in verts])
    if any(max([_dot(n, p) for p in low]) > c for n, (c, _) in fs.items()):
        return ["a point lies outside the hull of the vertices: a vertex is missing"]
    through = [[] for _ in verts]
    for n, (_, on) in fs.items():
        for i in on:
            through[i].append(n)
    for v, ns in zip(verts, through):
        if affine_rank([(0,) * len(coords)] + ns) < len(coords):
            return [f"{v} is not a vertex"]
    return []


def check_facets(vertices, equalities, inequalities):
    """Is (equalities, inequalities) the facet description of the
    full-dimensional polytope with these vertices? It must list exactly
    the facets that `facets` finds."""
    if equalities or affine_rank(vertices) < len(vertices[0]):
        return ["the polytope is not full-dimensional, or got equalities"]
    want = {(n, c) for n, (c, _) in facets(vertices).items()}
    got = [(tuple(n), c) for n, c in inequalities]
    problems = [f"inequality {n} <= {c} is not a facet" for n, c in got if (n, c) not in want]
    problems += [f"facet {n} <= {c} is missing" for n, c in sorted(want - set(got))]
    if len(set(got)) != len(got):
        problems.append("repeated facet")
    return problems
