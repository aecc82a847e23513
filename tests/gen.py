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
