"""Seeded inputs of the benchmark workloads, as plain Python data.

Nothing here imports the package under test; `checks`, which does not
either, tells a singular matrix from a nonsingular one. A group ring
element is a dict {(v, m): Fraction} for the group element x^v u^m of
G = Z^k x|_A Z, and a matrix is a list of rows of such dicts. The
worker turns them into package objects while it sets up; the checks
compute their expected values from the same plain data.

Every generator takes a random.Random made by `rng_for`, so one
(workload, seed) pair always gives the same inputs. The shapes of each
job list are fixed; the seed draws only the entries.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import checks

UNTWISTED = ((1, 0), (0, 1))
HEISENBERG = ((1, 1), (0, 1))
SOL = ((2, 1), (1, 1))
GROUPS = {"untwisted": UNTWISTED, "heisenberg": HEISENBERG, "sol": SOL}
COEFFS = (-2, -1, 1, 2)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# integer matrices and the twisted product
# ---------------------------------------------------------------------------

def identity(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def mat_mul(a, b):
    return tuple(tuple(sum(a[i][l] * b[l][j] for l in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def unimodular_inverse(a):
    """Inverse of an integer matrix with determinant +-1 (Gauss-Jordan)."""
    k = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(a)]
    for c in range(k):
        p = next(r for r in range(c, k) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for r in range(k):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    inv = tuple(tuple(m[i][k + j] for j in range(k)) for i in range(k))
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(int(x) for x in row) for row in inv)


@lru_cache(maxsize=None)
def twist_power(a, m):
    k = len(a)
    base = a if m >= 0 else unimodular_inverse(a)
    out = identity(k)
    for _ in range(abs(m)):
        out = mat_mul(base, out)
    return out


def el_mul(x, y, a):
    """Product in QG: x^v u^m * x^w u^n = x^(v + A^m w) u^(m + n)."""
    out = {}
    for (v, m), c in x.items():
        am = twist_power(a, m)
        for (w, n), d in y.items():
            key = (tuple(vi + sum(am[i][j] * w[j] for j in range(len(w)))
                         for i, vi in enumerate(v)), m + n)
            out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c != 0}


def el_add(x, y):
    out = dict(x)
    for key, c in y.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c != 0}


def mat_product(p, q, a):
    n = len(p)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for l in range(n):
            for j in range(n):
                out[i][j] = el_add(out[i][j], el_mul(p[i][l], q[l][j], a))
    return out


# ---------------------------------------------------------------------------
# random ring elements and matrices
# ---------------------------------------------------------------------------

def rand_element(rng, k, nterms, box=1):
    """An element with exactly nterms terms, exponents in [-box, box]."""
    out = {}
    while len(out) < nterms:
        v = tuple(rng.randint(-box, box) for _ in range(k))
        out[(v, rng.randint(-box, box))] = Fraction(rng.choice(COEFFS))
    return out


def rand_matrix(rng, k, n, maxterms, pzero=0.2):
    return [[{} if rng.random() < pzero
             else rand_element(rng, k, rng.randint(1, maxterms))
             for _ in range(n)] for _ in range(n)]


def elementary_mix(rng, k, rows, a, steps):
    """Apply `steps` random elementary row operations with monomial factors
    to a square matrix; its Dieudonne class does not change."""
    rows = [list(r) for r in rows]
    n = len(rows)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        w = rand_element(rng, k, 1)
        rows[i] = [el_add(x, el_mul(w, y, a)) for x, y in zip(rows[i], rows[j])]
    return rows


def triangular_block(rng, k, n, a, max_terms=2):
    """E * T with T upper triangular with a nonzero diagonal of 1 to
    max_terms terms and E a product of elementary operations; its Dieudonne
    class is that of the diagonal of T. Returns (matrix, diagonal)."""
    diag = [rand_element(rng, k, rng.randint(1, max_terms)) for _ in range(n)]
    t = [[diag[i] if i == j else (rand_element(rng, k, 1) if j > i else {})
          for j in range(n)] for i in range(n)]
    return elementary_mix(rng, k, t, a, n), diag


# ---------------------------------------------------------------------------
# workload: dieudonne
# ---------------------------------------------------------------------------

# (kind, matrix size, largest term count, batch size, jobs per group). A job
# is one batch; batch sizes keep the expected cost of a job near 0.1 s.
DET_JOBS = (
    ("single2", 2, 2, 30, 24),   # 2x2, 1-2-term entries
    ("triple2", 2, 1, 18, 24),   # A, B, AB for 2x2 monomial A, B
    ("single3", 3, 1, 18, 24),   # 3x3, monomial entries
)


def dieudonne_jobs(seed):
    """Singles over Z^2 x Z are random matrices, checked against the
    commutative determinant. Over Heisenberg and Sol, whose determinants
    nothing outside the package computes, a single is a triangular block
    E T (see `triangular_block`) with a 1-2-term diagonal, whose class is
    known from the diagonal of T; its diagonal is kept with it."""
    rng = rng_for("dieudonne", seed)
    jobs = []
    for gname, a in GROUPS.items():
        for kind, n, maxterms, batch, count in DET_JOBS:
            for _ in range(count):
                mats, diagonals = [], []
                for _ in range(batch):
                    if kind == "triple2":
                        p = rand_matrix(rng, 2, n, 1)
                        q = rand_matrix(rng, 2, n, 1)
                        mats.append((p, q, mat_product(p, q, a)))
                    elif a == UNTWISTED:
                        mats.append((rand_matrix(rng, 2, n, maxterms),))
                    else:
                        m, diag = triangular_block(rng, 2, n, a)
                        mats.append((m,))
                        diagonals.append(diag)
                jobs.append({"kind": kind, "group": gname, "twist": a,
                             "items": mats, "diagonals": diagonals})
    return jobs


# ---------------------------------------------------------------------------
# workload: torsion
# ---------------------------------------------------------------------------

def random_unimodular(rng, k, steps):
    a = [list(r) for r in identity(k)]
    for _ in range(steps):
        i, j = rng.sample(range(k), 2)
        s = rng.choice((-1, 1))
        for r in range(k):
            a[r][i] += s * a[r][j]
    return tuple(tuple(r) for r in a)


def signed_permutation(rng, k):
    perm = list(range(k))
    rng.shuffle(perm)
    return tuple(tuple(rng.choice((-1, 1)) * int(perm[i] == j) for j in range(k))
                 for i in range(k))


def acyclic_complex(rng, k, a, n, m, p_terms=None):
    """Three-term complex QG^m -> QG^(n+m) -> QG^n, exact over the skew field.

    d2 = [q; 0] and d1 = [0 | p] for invertible blocks p (n x n) and
    q (m x m), then the middle basis is changed by elementary operations.
    Its torsion polytope is P(det q) - P(det p); the returned diagonals
    give those classes. q's diagonal has 1-2 terms, and so has p's when
    n = 1; a 2x2 p has a monomial diagonal unless p_terms says otherwise,
    because with 1-2-term diagonals in a 2x2 p some complexes run for
    seconds (see excluded.py, family acyclic21).
    """
    if p_terms is None:
        p_terms = 2 if n == 1 else 1
    p, pdiag = triangular_block(rng, k, n, a, p_terms)
    q, qdiag = triangular_block(rng, k, m, a)
    mid = n + m
    d2 = [[q[i][j] if i < m else {} for j in range(m)] for i in range(mid)]
    d1 = [[p[i][j - m] if j >= m else {} for j in range(mid)] for i in range(n)]
    for _ in range(2):
        i, j = rng.sample(range(mid), 2)
        w = rand_element(rng, k, 1)
        # elementary change of the middle basis: E on the rows of d2 and
        # E^-1 on the columns of d1, so d1 d2 stays 0
        d2[i] = [el_add(x, el_mul(w, y, a)) for x, y in zip(d2[i], d2[j])]
        for r in range(n):
            d1[r][j] = el_add(d1[r][j], {key: -c for key, c in el_mul(d1[r][i], w, a).items()})
    return {"ranks": (n, mid, m), "boundaries": (d1, d2),
            "expected_pos": qdiag, "expected_neg": pdiag}


# A torsion job is one complex. Each of 14 draws gives one complex of every
# kind below, so that a run has over 100 jobs and job_p90_s falls among
# the k = 4 tori, a group of like jobs, rather than on one job. Two more
# jobs are k = 5 mapping tori, the heaviest of the round: A = I and the
# cyclic permutation. They do not depend on the seed; random k = 5 twists
# cost 2-4 s each and would set the round's spread.
DRAWS = 14
ACYCLIC_SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2))
CYCLE5 = tuple(tuple(int(j == (i + 1) % 5) for j in range(5)) for i in range(5))


def torsion_jobs(seed):
    """The two k = 5 tori sit at the start and in the middle of the list, so
    that a slow spell of the machine rarely slows both."""
    rng = rng_for("torsion", seed)
    jobs = []
    for b in range(DRAWS):
        jobs += [
            {"kind": "torus", "k": 2,
             "twist": identity(2) if b == 0 else random_unimodular(rng, 2, 4)},
            {"kind": "torus", "k": 3, "twist": random_unimodular(rng, 3, 6)},
            {"kind": "torus", "k": 4, "twist": signed_permutation(rng, 4)},
        ]
        for i, (gname, a) in enumerate((("Z", ()), ("heisenberg", HEISENBERG),
                                        ("sol", SOL))):
            n, m = ACYCLIC_SHAPES[(b + i) % len(ACYCLIC_SHAPES)]
            c = acyclic_complex(rng, len(a), a, n, m)
            c.update({"kind": "acyclic", "group": gname, "k": len(a), "twist": a})
            jobs.append(c)
        for n in (2, 3):
            # nonsingular, so that the complex is acyclic
            mat = [[{}]]
            while not checks.commutative_det_support(mat, 2):
                mat = [[rand_element(rng, 2, 1) for _ in range(n)] for _ in range(n)]
            jobs.append({"kind": "one-boundary", "k": 2, "twist": UNTWISTED,
                         "ranks": (n, n), "boundaries": (mat,)})
    half = len(jobs) // 2
    return ([{"kind": "torus", "k": 5, "twist": identity(5)}] + jobs[:half]
            + [{"kind": "torus", "k": 5, "twist": CYCLE5}] + jobs[half:])


# ---------------------------------------------------------------------------
# workload: polytope
# ---------------------------------------------------------------------------

def shape(kind, d, size, origin):
    """Vertices and facets (normal, constant) of a polytope known by
    construction: a box with side lengths `size`, or a simplex or
    cross-polytope of radius size[0], translated to `origin`."""
    o = origin
    dot = lambda n, x: sum(a * b for a, b in zip(n, x))
    if kind == "box":
        verts = [tuple(o[i] + (size[i] if (mask >> i) & 1 else 0) for i in range(d))
                 for mask in range(2 ** d)]
        facets = []
        for i in range(d):
            e = tuple(int(j == i) for j in range(d))
            facets.append((e, o[i] + size[i]))
            facets.append((tuple(-x for x in e), -o[i]))
    elif kind == "simplex":
        r = size[0]
        verts = [tuple(o)] + [tuple(o[j] + (r if j == i else 0) for j in range(d))
                              for i in range(d)]
        facets = [(tuple(-int(j == i) for j in range(d)), -o[i]) for i in range(d)]
        facets.append(((1,) * d, sum(o) + r))
    else:
        r = size[0]
        verts = [tuple(o[j] + (s * r if j == i else 0) for j in range(d))
                 for i in range(d) for s in (1, -1)]
        facets = [(sg, dot(sg, o) + r) for sg in product((-1, 1), repeat=d)]
    return sorted(set(verts)), sorted(facets)


# A polytope job is a bundle: two rank-2 pairs (Q, S), one rank-3 pair and
# one hull or Minkowski sum of larger point sets, so that jobs cost about
# the same. A pair is Q = hull of random points and S a box, simplex or
# cross-polytope. Five more jobs, a ninth of the list, are rank-4 pairs
# with S a simplex. They are the heaviest jobs and do not depend on the
# seed, so job_p90_s falls among them and does not move with the seed;
# rank-4 `leq` alone varies 0.4-6 s over random Q. S is never a rank-4
# box: facet_description enumerates C(V, 4) vertex subsets, and Q + box
# (~45 vertices) takes over 8 s.
POLY_BUNDLES = 40
RANK4_PAIRS = 5
RANK4_SEED = "polytope:rank4"
# rank -> (points of Q, coordinate box of Q, largest size of S)
PAIR_SIZES = {2: (12, 6, 3), 3: (5, 1, 1), 4: (5, 1, 1)}
# (kind, rank, point sets, points, coordinate box), cycled over the bundles
BIG_ITEMS = (("hull", 3, 1, 1000, 20), ("hull", 4, 1, 400, 6),
             ("sum", 3, 2, 30, 6), ("sum", 4, 2, 15, 3))
SHAPES = ("box", "simplex", "cross")


def _pair(rng, d, kind):
    npts, box, smax = PAIR_SIZES[d]
    q = [tuple(rng.randint(-box, box) for _ in range(d)) for _ in range(npts)]
    size = [rng.randint(1, smax) for _ in range(d)]
    origin = tuple(rng.randint(-2, 2) for _ in range(d))
    verts, _ = shape(kind, d, size, origin)
    return {"kind": "pair", "rank": d, "q_points": q, "shape": kind, "s_vertices": verts}


def polytope_jobs(seed):
    rng = rng_for("polytope", seed)
    jobs = []
    for b in range(POLY_BUNDLES):
        kind, d, nsets, npts, box = BIG_ITEMS[b % len(BIG_ITEMS)]
        jobs.append([
            _pair(rng, 2, SHAPES[b % 3]), _pair(rng, 2, SHAPES[(b + 1) % 3]),
            _pair(rng, 3, SHAPES[b % 3]),
            {"kind": kind, "rank": d,
             "points": [[tuple(rng.randint(-box, box) for _ in range(d))
                         for _ in range(npts)] for _ in range(nsets)]}])
    # the fixed rank-4 jobs are spread evenly over the list, so that a slow
    # spell of the machine rarely slows several of them
    fixed = random.Random(RANK4_SEED)
    step = len(jobs) // RANK4_PAIRS
    for i in range(RANK4_PAIRS):
        jobs.insert(i * (step + 1), [_pair(fixed, 4, "simplex")])
    return jobs
