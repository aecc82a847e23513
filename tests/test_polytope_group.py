import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from gen import random_genuine_pair, random_polytope, random_virtual, sublattice_sampler
from polygroup.lattice import dot, facet_description, hull, minkowski_sum, reflect, subset, support
from polygroup.vpolytope import (
    DecompositionError,
    RelativeMonoidResult,
    SubLattice,
    TranslationClass,
    VirtualPolytope,
    decompose_antisymmetric,
    face_map,
    in_relative_monoid,
    involution,
    is_polytope,
    is_polytope_certified,
    leq,
    pt_equal,
    pt_is_zero,
    seminorm_map,
    summand_rank2,
    vp_add,
    vp_equal,
    vp_neg,
    vp_sub,
)


def seg(a, b):
    return hull([(a,), (b,)])


def vp(pos, neg=None):
    if neg is None:
        return VirtualPolytope.from_polytope(pos)
    return VirtualPolytope(pos, neg)


def test_group_laws_up_to_vp_equal():
    rng = random.Random(1)
    zero = VirtualPolytope.zero(2)
    for _ in range(20):
        x = random_virtual(rng, 2)
        y = random_virtual(rng, 2)
        z = random_virtual(rng, 2)
        assert vp_equal(vp_add(x, zero), x)
        assert vp_equal(vp_add(x, vp_neg(x)), zero)
        assert vp_equal(vp_add(x, y), vp_add(y, x))
        assert vp_equal(vp_add(vp_add(x, y), z), vp_add(x, vp_add(y, z)))


def test_interval_addition():
    x = vp(seg(0, 1))
    y = vp(seg(0, 2))
    assert vp_equal(vp_add(x, y), vp(seg(0, 3)))


def test_involution_properties():
    rng = random.Random(2)
    # rank-1 involution is trivial on translation classes
    x = vp(seg(3, 7))
    assert pt_equal(involution(x), x)
    for _ in range(20):
        a = random_virtual(rng, 2)
        b = random_virtual(rng, 2)
        assert vp_equal(involution(involution(a)), a)
        assert vp_equal(involution(vp_add(a, b)),
                        vp_add(involution(a), involution(b)))


def test_vp_equal_vs_pt_equal():
    zero = VirtualPolytope.zero(1)
    assert vp_equal(zero, VirtualPolytope(seg(0, 1), seg(0, 1)))
    a = vp(seg(0, 1))
    b = vp(seg(1, 2))
    assert not vp_equal(a, b)
    assert pt_equal(a, b)


def test_translation_invisible_in_quotient():
    rng = random.Random(3)
    for _ in range(20):
        x = random_virtual(rng, 2)
        h = tuple(rng.randint(-5, 5) for _ in range(2))
        shifted = vp_add(x, vp(hull([h])))
        assert pt_equal(x, shifted)
        assert pt_is_zero(vp_sub(x, shifted))
        assert pt_is_zero(vp_sub(shifted, x))


def test_equal_classes_hash_alike():
    p = hull([(0, 0), (2, 0), (0, 1)])
    q = hull([(0, 0), (1, 1)])
    r = hull([(0, 0), (1, 0), (0, 2)])
    a = TranslationClass.of(vp(p, q))
    b = TranslationClass.of(vp(minkowski_sum(p, r), minkowski_sum(q, r)))
    assert a == b
    assert len({a, b}) == 1
    rng = random.Random(5)
    for _ in range(10):
        x = random_virtual(rng, 3)
        r = random_polytope(rng, 3)
        y = vp_add(x, VirtualPolytope(r, r))
        assert TranslationClass.of(x) == TranslationClass.of(y)
        assert hash(TranslationClass.of(x)) == hash(TranslationClass.of(y))


def test_leq_basics():
    p = hull([(0, 0), (2, 1), (1, 3)])
    assert leq(VirtualPolytope.zero(2), vp(p))
    assert not leq(vp(seg(0, 2)), vp(seg(0, 1)))
    assert leq(vp(seg(0, 1)), vp(seg(0, 2)))


def test_leq_partial_order():
    rng = random.Random(4)
    for _ in range(15):
        x = random_virtual(rng, 2)
        y = random_virtual(rng, 2)
        r = random_polytope(rng, 2)
        assert leq(x, x)
        if leq(x, y) and leq(y, x):
            assert pt_equal(x, y)
        assert leq(x, vp_add(x, vp(r.translate(
            tuple(-c for c in r.vertices[0])))))


def test_leq_transitive():
    rng = random.Random(5)
    for _ in range(10):
        x = random_virtual(rng, 2, npoints=3, box=2)
        a = random_polytope(rng, 2, 3, 2)
        b = random_polytope(rng, 2, 3, 2)
        y = vp_add(x, vp(a))
        z = vp_add(y, vp(b))
        assert leq(x, y) and leq(y, z) and leq(x, z)


def _leq_by_search(x, y):
    """x <= y by trying every integral t in the bounding-box range
    [min b - min a, max b - max a], with containment by lattice.subset."""
    a = minkowski_sum(x.pos, y.neg)
    b = minkowski_sum(y.pos, x.neg)
    ranges = [range(min(v[i] for v in b.vertices) - min(v[i] for v in a.vertices),
                    max(v[i] for v in b.vertices) - max(v[i] for v in a.vertices) + 1)
              for i in range(a.rank)]
    return any(subset(a.translate(t), b) for t in itertools.product(*ranges))


def test_leq_matches_translation_search_rank3_and_rank4():
    rng = random.Random(15)
    outcomes = set()
    for rank in (3, 4):
        for _ in range(8):
            x = random_virtual(rng, rank, npoints=4, box=2)
            if rng.random() < 0.5:
                y = vp_add(x, vp(random_polytope(rng, rank, 3, 1)))
            else:
                y = random_virtual(rng, rank, npoints=4, box=2)
            for u, v in ((x, y), (y, x)):
                want = _leq_by_search(u, v)
                assert leq(u, v) == want
                outcomes.add(want)
    assert outcomes == {True, False}


def test_leq_lower_dimensional_matches_translation_search():
    # b spans a proper affine sublattice, so find_translation_into checks
    # a against the kernel of b's chart and searches in its coordinates
    rng = random.Random(16)
    outcomes = set()
    for _ in range(30):
        rank = rng.choice((3, 4))
        k = rng.randint(0, rank - 1)
        gens = [[rng.randint(-1, 1) for _ in range(rank)] for _ in range(k)]

        def sample(count, spread):
            out = []
            for _ in range(count):
                c = [rng.randint(-spread, spread) for _ in gens]
                out.append(tuple(sum(ci * g[i] for ci, g in zip(c, gens))
                                 for i in range(rank)))
            return out

        base = tuple(rng.randint(-2, 2) for _ in range(rank))
        b = hull([tuple(p + q for p, q in zip(pt, base)) for pt in sample(5, 2)])
        a_pts = sample(rng.randint(1, 3), 1)
        if rng.random() < 0.3:
            # leave the direction space of b
            a_pts.append(tuple(rng.randint(-1, 1) for _ in range(rank)))
        x, y = vp(hull(a_pts)), vp(b)
        want = _leq_by_search(x, y)
        assert leq(x, y) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_is_polytope_in_sublattices_rank3_and_rank4():
    # Q and S lie in one d-dimensional affine sublattice of Z^n whose
    # generators are not a saturated basis; the facets of Q + S come from
    # its chart, pulled back to Z^n, and the vertex normals are sums of them
    rng = random.Random(44)
    for n in (3, 4):
        for d in range(1, n):
            for _ in range(4):
                _, sample = sublattice_sampler(rng, n, d)
                q = hull(sample(rng.randint(1, 5)))
                s = hull(sample(rng.randint(2, 4)))
                while s.is_point:
                    s = hull(sample(rng.randint(2, 4)))
                qs = minkowski_sum(q, s)
                got = is_polytope(vp(qs, q))
                assert got is not None
                assert pt_equal(vp(got), vp(s))
                neg = vp(q, qs)
                found, cert = is_polytope_certified(neg)
                assert found is None
                assert is_polytope(face_map(neg, cert)) is None


@pytest.mark.parametrize("q_pts, s_pts", [
    ([(-7, 2, 5, 8), (-6, 11, 2, 5), (14, -9, -6, -1), (14, -7, -6, -2)],
     [(0, -2, 1, 5), (3, 1, 4, 2), (5, -4, -5, 3), (5, 2, -3, 1)]),
    ([(-13, 8, -2, 2), (-7, 18, 0, -1), (0, -1, 4, 1), (2, -5, 2, 8), (6, 8, -2, 6),
      (6, 14, -2, 7)],
     [(-1, -2, 2, 5), (2, -5, 2, 0)]),
])
def test_is_polytope_smith_form_swell_reproducers(q_pts, s_pts):
    # per-face lattice charts stalled on these inputs, in Smith forms of
    # saturated bases with 7- and 8-digit entries; P = Q + S is
    # full-dimensional, so its facets need no chart
    q, s = hull(q_pts), hull(s_pts)
    start = time.perf_counter()
    assert is_polytope(vp(minkowski_sum(q, s), q)) == s
    assert time.perf_counter() - start < 1.0


def _difference_by_erosion(p, q):
    """Q + T == P for T the hull of the lattice points z with z + Q in P.

    z ranges over the box [min P - min Q, max P - max Q]; z + Q lies in P
    iff z meets P's equalities and inequalities shifted by Q's values.
    Returns T, or None when no z fits or Q + T != P.
    """
    eqs, ineqs = facet_description(p)
    rows = []
    for phi, c in eqs:
        if len({dot(phi, w) for w in q.vertices}) > 1:
            return None
        rows.append((phi, c - dot(phi, q.vertices[0]), True))
    rows += [(phi, c - support(q, phi), False) for phi, c in ineqs]
    box = [range(min(v[i] for v in p.vertices) - min(w[i] for w in q.vertices),
                 max(v[i] for v in p.vertices) - max(w[i] for w in q.vertices) + 1)
           for i in range(p.rank)]
    fits = [z for z in itertools.product(*box)
            if all(dot(phi, z) == c if eq else dot(phi, z) <= c for phi, c, eq in rows)]
    if not fits:
        return None
    t = hull(fits)
    return t if minkowski_sum(q, t) == p else None


def _small_polytope(rng, n):
    """A random polytope of random dimension 0..n.

    Coordinates lie in [-(d + 1), d + 1], so the erosion
    oracle's box stays small in Z^4.
    """
    d = rng.randint(0, n)
    if d == n:
        return random_polytope(rng, n, rng.randint(n + 1, 6), 1)
    gens = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(d)]
    base = [rng.randint(-1, 1) for _ in range(n)]
    pts = []
    for _ in range(rng.randint(1, 5)):
        c = [rng.randint(-1, 1) for _ in gens]
        pts.append(tuple(b + sum(ck * g[i] for ck, g in zip(c, gens))
                         for i, b in enumerate(base)))
    return hull(pts)


def test_is_polytope_matches_erosion_oracle_rank3_and_rank4():
    rng = random.Random(45)
    outcomes, dims = set(), set()
    for n in (3, 4):
        for _ in range(12):
            q, s = _small_polytope(rng, n), _small_polytope(rng, n)
            qs = minkowski_sum(q, s)
            dims.add((q.dim() == n, s.dim() == n))
            for p, r in ((qs, q), (q, qs), (s, q)):
                want = _difference_by_erosion(p, r)
                assert is_polytope(vp(p, r)) == want
                outcomes.add(want is None)
            assert is_polytope(vp(qs, q)) == s
    assert outcomes == {True, False}
    assert dims == {(True, True), (True, False), (False, True), (False, False)}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), rank=st.integers(1, 4))
def test_cancellation_law(data, rank):
    point = st.tuples(*[st.integers(-3, 3)] * rank)
    q = hull(data.draw(st.lists(point, min_size=1, max_size=6)))
    s = hull(data.draw(st.lists(point, min_size=1, max_size=5)))
    assert is_polytope(vp(minkowski_sum(q, s), q)) == s


def test_face_map_basics():
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    segd = hull([(0, 0), (1, 1)])
    x = VirtualPolytope(square, segd)
    out = face_map(x, (1, 0))
    assert out.pos == hull([(1, 0), (1, 1)])
    assert out.neg == hull([(1, 1)])
    assert face_map(x, (0, 0)) == x


def test_face_map_additive():
    rng = random.Random(6)
    for _ in range(50):
        x = random_virtual(rng, 2)
        y = random_virtual(rng, 2)
        phi = tuple(rng.randint(-3, 3) for _ in range(2))
        assert vp_equal(face_map(vp_add(x, y), phi),
                        vp_add(face_map(x, phi), face_map(y, phi)))


def test_seminorm_map():
    assert seminorm_map(VirtualPolytope(seg(0, 1), seg(0, 1)), (1,)) == 0
    assert seminorm_map(VirtualPolytope(seg(0, 3), seg(0, 1)), (1,)) == 2
    rng = random.Random(7)
    for _ in range(20):
        p = random_polytope(rng, 2)
        x = VirtualPolytope(p, reflect(p))
        phi = tuple(rng.randint(-3, 3) for _ in range(2))
        assert seminorm_map(x, phi) == 0


def test_is_polytope_trivial_cases():
    p = random_polytope(random.Random(8), 2)
    assert is_polytope(VirtualPolytope(p, p)) == hull([(0,) * 2])
    x = VirtualPolytope(hull([(0, 0), (1, 0)]), hull([(0, 0), (0, 1)]))
    assert is_polytope(x) is None
    s, cert = is_polytope_certified(x)
    assert s is None and cert is not None


def test_is_polytope_genuine_instances():
    rng = random.Random(9)
    for _ in range(25):
        x, s = random_genuine_pair(rng)
        got = is_polytope(x)
        assert got is not None
        assert pt_equal(VirtualPolytope.from_polytope(got),
                        VirtualPolytope.from_polytope(s))


def test_is_polytope_agrees_with_edge_oracle():
    rng = random.Random(10)
    for _ in range(40):
        x = random_virtual(rng, 2, npoints=4, box=3)
        primary = is_polytope(x)
        oracle = summand_rank2(x.pos, x.neg)
        assert (primary is None) == (oracle is None)


def test_decompose_antisymmetric_roundtrip():
    rng = random.Random(11)
    for rank in (1, 2, 3):
        for _ in range(10):
            r = random_polytope(rng, rank)
            x = vp_sub(vp(r), vp(reflect(r)))
            y = decompose_antisymmetric(x)
            wit = vp_sub(vp(y), vp(reflect(y)))
            assert pt_equal(x, wit)


def test_decompose_rejects_non_kernel():
    x = vp(seg(0, 2))  # x + *x = [-2,2] is not zero
    with pytest.raises(DecompositionError):
        decompose_antisymmetric(x)


def test_kernel_equivalence_seminorm():
    rng = random.Random(12)
    for _ in range(15):
        x = random_virtual(rng, 2)
        total = minkowski_sum(x.pos, x.neg)
        from polygroup.lattice import facet_normals
        normals = [phi for phi, _ in facet_normals(total)]
        vanishes = all(seminorm_map(x, phi) == 0 for phi in normals)
        in_kernel = pt_is_zero(vp_add(x, involution(x)))
        assert vanishes == in_kernel


def test_in_relative_monoid():
    # a genuine polytope needs no correction
    p = random_polytope(random.Random(13), 2)
    g = SubLattice(((1,), (0,)))
    r = in_relative_monoid(vp(p), g, 0)
    assert r.status == "yes"
    # horizontal-vertical segment difference with horizontal sublattice
    x = VirtualPolytope(hull([(0, 0), (1, 0)]), hull([(0, 0), (0, 1)]))
    r = in_relative_monoid(x, g, 1)
    assert r.status == "no_within_bound"
    # witness built into the instance
    q = hull([(0, 0), (2, 0)])
    s = hull([(0, 0), (1, 1), (2, 0)])
    x = VirtualPolytope(minkowski_sum(q, s), q)
    r = in_relative_monoid(x, g, 2)
    assert r.status == "yes"
    assert pt_equal(vp_add(x, vp(r.q_witness)), vp(r.p_witness))


def test_translation_class_arithmetic():
    rng = random.Random(14)
    for _ in range(10):
        x = TranslationClass.of(random_virtual(rng, 2))
        y = TranslationClass.of(random_virtual(rng, 2))
        assert x.add(y) == y.add(x)
        assert x.sub(x).is_zero()
        assert x.add(y).sub(y) == x
