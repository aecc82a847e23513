"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from polygroup.grouprings import GroupRingElement, TwistedGroup, gr_mul
from polygroup.lattice import IntegralPolytope, hull, minkowski_sum
from polygroup.torsion import BasedChainComplex
from polygroup.vpolytope import VirtualPolytope

HEISENBERG = [[1, 1], [0, 1]]
SOL = [[2, 1], [1, 1]]
UNIPOTENT3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
ORDER6 = [[0, -1], [1, 1]]
# the twists the property tests range over: A = I on Z^2, the two
# classical 3-manifold groups, a k = 3 unipotent twist and a finite-order
# twist whose H1 is the u-exponent alone
TWISTS = ([[1, 0], [0, 1]], HEISENBERG, SOL, UNIPOTENT3, ORDER6)


def rand_element(g: TwistedGroup, rng: random.Random, maxterms: int = 2,
                 box: int = 1) -> GroupRingElement:
    d = {}
    for _ in range(rng.randint(1, maxterms)):
        v = tuple(rng.randint(-box, box) for _ in range(g.k))
        m = rng.randint(-box, box)
        d[(v, m)] = Fraction(rng.choice([-2, -1, 1, 2]))
    return GroupRingElement.from_dict(g.k, d)


def unit_monomial(g: TwistedGroup, rng: random.Random) -> GroupRingElement:
    v = tuple(rng.randint(-1, 1) for _ in range(g.k))
    return GroupRingElement.monomial(g.k, v, rng.randint(-1, 1),
                                     rng.choice([-1, 1]))


def mat_identity(g: TwistedGroup, n: int):
    one = GroupRingElement.one(g.k)
    zero = GroupRingElement.zero(g.k)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def gr_mat_mul(a, b, g: TwistedGroup):
    n, m, p = len(a), len(b), len(b[0])
    out = [[GroupRingElement.zero(g.k) for _ in range(p)] for _ in range(n)]
    for i in range(n):
        for l in range(m):
            if a[i][l].is_zero:
                continue
            for j in range(p):
                if not b[l][j].is_zero:
                    out[i][j] = out[i][j] + gr_mul(a[i][l], b[l][j], g)
    return out


def elementary_matrix(g: TwistedGroup, rng: random.Random, n: int):
    """Identity plus one random off-diagonal group ring entry."""
    m = mat_identity(g, n)
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        m[i][j] = rand_element(g, rng)
    return m


def diagonal_matrix(g: TwistedGroup, rng: random.Random, n: int):
    """Diagonal of signed group element monomials (trivial units)."""
    m = mat_identity(g, n)
    for i in range(n):
        m[i][i] = unit_monomial(g, rng)
    return m


def permutation_matrix(g: TwistedGroup, rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    zero = GroupRingElement.zero(g.k)
    one = GroupRingElement.one(g.k)
    return [[one if perm[i] == j else zero for j in range(n)] for i in range(n)]


def invertible_product(g: TwistedGroup, rng: random.Random, n: int,
                       nfactors: int, kinds=("elementary", "diagonal",
                                             "permutation")):
    out = mat_identity(g, n)
    for _ in range(nfactors):
        kind = rng.choice(kinds)
        if kind == "elementary":
            f = elementary_matrix(g, rng, n)
        elif kind == "diagonal":
            f = diagonal_matrix(g, rng, n)
        else:
            f = permutation_matrix(g, rng, n)
        out = gr_mat_mul(out, f, g)
    return out


def commutative_det(m, g: TwistedGroup) -> GroupRingElement:
    """Leibniz-expansion determinant (meaningful for untwisted groups)."""
    n = len(m)
    acc = GroupRingElement.zero(g.k)
    for perm in permutations(range(n)):
        invs = sum(1 for x in range(n) for y in range(x + 1, n)
                   if perm[x] > perm[y])
        term = GroupRingElement.one(g.k).scale(-1 if invs % 2 else 1)
        for i in range(n):
            term = gr_mul(term, m[i][perm[i]], g)
        acc = acc + term
    return acc


def random_matrix(g: TwistedGroup, rng: random.Random, n: int,
                  maxterms: int = 2):
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < 0.2:
                row.append(GroupRingElement.zero(g.k))
            else:
                row.append(rand_element(g, rng, maxterms))
        out.append(row)
    return out


def random_acyclic_complex(g: TwistedGroup, rng: random.Random,
                           n: int, m: int, mixing: int = 4) -> BasedChainComplex:
    """Three-term acyclic complex with ranks (n, n+m, m).

    Starts from the split complex built out of two invertible blocks and
    mixes the middle basis with elementary transformations, which
    preserves exactness and changes the boundary matrices substantially.
    """
    q = invertible_product(g, rng, m, 3, kinds=("elementary", "diagonal"))
    p = invertible_product(g, rng, n, 3, kinds=("elementary", "diagonal"))
    mid = n + m
    zero = GroupRingElement.zero(g.k)
    d2 = [[q[i][j] if i < m else zero for j in range(m)] for i in range(mid)]
    d1 = [[p[i][j - m] if j >= m else zero for j in range(mid)]
          for i in range(n)]
    for _ in range(mixing):
        i, j = rng.sample(range(mid), 2)
        w = rand_element(g, rng)
        for cc in range(m):
            d2[i][cc] = d2[i][cc] + gr_mul(w, d2[j][cc], g)
        for rr in range(n):
            d1[rr][j] = d1[rr][j] - gr_mul(d1[rr][i], w, g)
    return BasedChainComplex.make(g, (n, mid, m), (d1, d2))


def random_polytope(rng: random.Random, rank: int, npoints: int = 5,
                    box: int = 4) -> IntegralPolytope:
    pts = [tuple(rng.randint(-box, box) for _ in range(rank)) for _ in range(npoints)]
    return hull(pts)


def random_virtual(rng: random.Random, rank: int, npoints: int = 5,
                   box: int = 4) -> VirtualPolytope:
    return VirtualPolytope(random_polytope(rng, rank, npoints, box),
                           random_polytope(rng, rank, npoints, box))


def random_genuine_pair(rng: random.Random, rank: int = 2):
    """(x, S) with x = (Q+S) - Q built from its own answer."""
    q = random_polytope(rng, rank, rng.randint(2, 5), 3)
    s = random_polytope(rng, rank, rng.randint(2, 5), 3)
    return VirtualPolytope(minkowski_sum(q, s), q), s


def mat_det(a) -> Fraction:
    """Determinant by Gaussian elimination over the rationals, exact."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def affine_rank(pts) -> int:
    """Dimension of the affine hull, by Gaussian elimination over Q."""
    rows = [[Fraction(a - b) for a, b in zip(p, pts[0])] for p in pts[1:]]
    rank = 0
    for col in range(len(pts[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def sublattice_sampler(rng: random.Random, n: int, d: int, spread: int = 2):
    """(generators, sample) for a random d-dimensional affine sublattice of Z^n.

    The first generator is twice an integer vector, so the generators span
    a lattice of even index in its saturation and differ from any
    saturated basis. sample(count) draws count points base + sum c_k g_k
    with |c_k| <= spread.
    """
    while True:
        gens = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)]
        if affine_rank([[0] * n] + gens) == d:
            break
    gens[0] = [2 * x for x in gens[0]]
    base = [rng.randint(-3, 3) for _ in range(n)]

    def sample(count):
        out = []
        for _ in range(count):
            c = [rng.randint(-spread, spread) for _ in gens]
            out.append(tuple(b + sum(ck * g[i] for ck, g in zip(c, gens))
                             for i, b in enumerate(base)))
        return out

    return gens, sample


# A naive Laurent polynomial oracle: {exponent tuple: Fraction}, with
# tuple exponents of any sign and no packing, to check polygroup.laurent.

def oracle_add(a: dict, b: dict) -> dict:
    out = {e: Fraction(c) for e, c in a.items()}
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def oracle_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * c2
    return {e: c for e, c in out.items() if c}


def oracle_substitute(a: dict, m) -> dict:
    """x^e -> x^(M e)."""
    out: dict = {}
    for e, c in a.items():
        ne = tuple(sum(row[j] * e[j] for j in range(len(e))) for row in m)
        out[ne] = out.get(ne, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def oracle_divide(a: dict, b: dict):
    """a / b over Z as {exponent: int}, or None when it is no Laurent
    polynomial over Z.

    Lex division over Q of tuples. A quotient q has min_i q = min_i a -
    min_i b and max_i q = max_i a - max_i b (Newton polytopes add), so a
    quotient exponent outside that box ends the division with None.
    """
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return {}
    n = len(next(iter(b)))
    low = [min(e[i] for e in a) - min(e[i] for e in b) for i in range(n)]
    high = [max(e[i] for e in a) - max(e[i] for e in b) for i in range(n)]
    lead = max(b)
    rem = {e: Fraction(c) for e, c in a.items()}
    q = {}
    while rem:
        e = max(rem)
        qe = tuple(x - y for x, y in zip(e, lead))
        if any(not lo <= x <= hi for x, lo, hi in zip(qe, low, high)):
            return None
        qc = rem[e] / b[lead]
        q[qe] = qc
        for eb, cb in b.items():
            t = tuple(x + y for x, y in zip(qe, eb))
            c = rem.get(t, Fraction(0)) - qc * cb
            if c:
                rem[t] = c
            else:
                rem.pop(t, None)
    if any(c.denominator != 1 for c in q.values()):
        return None
    return {e: int(c) for e, c in q.items()}


def unimodular_matrix(rng: random.Random, n: int):
    """A product of elementary, sign and swap matrices, with entries of
    both signs."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        f = rng.choice([-3, -2, -1, 1, 2, 3])
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    for i in range(n):
        if rng.random() < 0.5:
            m[i] = [-x for x in m[i]]
    rng.shuffle(m)
    return m
