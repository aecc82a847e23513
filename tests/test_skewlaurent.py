import random

from hypothesis import assume, given, settings, strategies as st

from gen import (
    HEISENBERG,
    SOL,
    TWISTS,
    commutative_det,
    invertible_product,
    rand_element,
    random_matrix,
)
from polygroup.grouprings import (
    GroupRingElement,
    TwistedGroup,
    element_polytope,
    gr_mul,
)
from polygroup.laurent import LaurentPoly, RationalFunction
from polygroup.skewlaurent import (
    SkewLaurentPoly,
    dieudonne_det,
    matrix_polytope,
    rank_over_skew_field,
    skew_divmod,
)
from polygroup.vpolytope import is_polytope


def to_skew(a, g):
    return SkewLaurentPoly.from_group_ring(a, g)


def rand_skew(g, rng, maxterms=3):
    return to_skew(rand_element(g, rng, maxterms), g)


def test_group_ring_roundtrip():
    rng = random.Random(0)
    g = TwistedGroup.make(2, HEISENBERG)
    for _ in range(20):
        a = rand_element(g, rng, 3)
        p = to_skew(a, g)
        num, den = p.to_group_ring_pair()
        # num * den^{-1} recovers a: num == a * den
        assert num == gr_mul(a, den, g)


def test_skew_ring_multiplication_is_associative():
    rng = random.Random(1)
    g = TwistedGroup.make(2, HEISENBERG)
    for _ in range(15):
        a, b, c = (rand_skew(g, rng, 2) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_skew_mul_respects_group_ring():
    rng = random.Random(2)
    for twist in (HEISENBERG, SOL):
        g = TwistedGroup.make(2, twist)
        for _ in range(10):
            a = rand_element(g, rng, 2)
            b = rand_element(g, rng, 2)
            assert to_skew(a, g) * to_skew(b, g) == to_skew(gr_mul(a, b, g), g)


def test_skew_divmod_identities():
    rng = random.Random(3)
    g = TwistedGroup.make(2, HEISENBERG)
    for _ in range(25):
        a = rand_skew(g, rng, 3)
        b = rand_skew(g, rng, 2)
        if b.is_zero:
            continue
        q, r = skew_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.span() < b.span()


def test_dieudonne_det_triangular_and_swap():
    g = TwistedGroup.make(2, HEISENBERG)
    one = GroupRingElement.one(2)
    zero = GroupRingElement.zero(2)
    a = rand_element(g, random.Random(8), 2)
    b = rand_element(g, random.Random(9), 2)
    det = dieudonne_det([[a, one], [zero, b]], g)
    assert det is not None
    want = element_polytope(a, g).add(element_polytope(b, g))
    assert det.polytope(g) == want
    # a row swap only flips the sign
    det2 = dieudonne_det([[zero, b], [a, one]], g)
    assert det2.sign == -det.sign
    assert det2.polytope(g) == want


def test_dieudonne_det_singular():
    g = TwistedGroup.make(2, HEISENBERG)
    a = rand_element(g, random.Random(10), 2)
    assert dieudonne_det([[a, a], [a, a]], g) is None


def test_dieudonne_det_of_empty_matrix_is_one():
    # the zero complex's bordered contraction matrix is 0 x 0
    g = TwistedGroup.make(2, HEISENBERG)
    det = dieudonne_det([], g)
    one = GroupRingElement.one(2)
    assert (det.numerator, det.denominator, det.sign) == (one, one, 1)
    assert det.polytope(g).is_zero()


def test_dieudonne_matches_commutative_oracle():
    rng = random.Random(11)
    g = TwistedGroup.make(2, [[1, 0], [0, 1]])
    checked = 0
    for _ in range(15):
        m = random_matrix(g, rng, 2)
        cdet = commutative_det(m, g)
        det = dieudonne_det(m, g)
        if cdet.is_zero:
            assert det is None
            continue
        assert det is not None
        assert det.polytope(g) == element_polytope(cdet, g)
        checked += 1
    assert checked >= 5


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32), twist=st.sampled_from(TWISTS))
def test_polytope_class_of_nonsingular_matrix(seed, twist):
    # the paper's theorem (i): a square matrix over ZG that is invertible
    # over the skew field has a determinant whose class is a polytope
    g = TwistedGroup.make(len(twist), twist)
    cls = matrix_polytope(random_matrix(g, random.Random(seed), 2), g)
    assume(cls is not None)
    assert is_polytope(cls.vp) is not None


def test_det_multiplicative_on_polytope_level():
    rng = random.Random(12)
    g = TwistedGroup.make(2, HEISENBERG)
    from gen import gr_mat_mul
    for _ in range(5):
        a = invertible_product(g, rng, 2, 3)
        b = invertible_product(g, rng, 2, 3)
        pa = matrix_polytope(a, g)
        pb = matrix_polytope(b, g)
        pab = matrix_polytope(gr_mat_mul(a, b, g), g)
        assert pab == pa.add(pb)


def test_rank_over_skew_field():
    rng = random.Random(13)
    g = TwistedGroup.make(2, HEISENBERG)
    a = rand_element(g, rng, 2)
    b = rand_element(g, rng, 2)
    zero = GroupRingElement.zero(2)
    assert rank_over_skew_field([[a, zero], [zero, b]], g) == 2
    assert rank_over_skew_field([[a, b]], g) == 1
    # duplicated row collapses
    assert rank_over_skew_field([[a, b], [a, b]], g) == 1
    # left multiple of a row collapses
    c = rand_element(g, rng, 2)
    row2 = [gr_mul(c, a, g), gr_mul(c, b, g)]
    assert rank_over_skew_field([[a, b], row2], g) == 1


def test_rank_matches_commutative_oracle_untwisted():
    import sympy
    rng = random.Random(14)
    g = TwistedGroup.make(2, [[1, 0], [0, 1]])
    x, y, u = sympy.symbols("x y u")
    for _ in range(8):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        mat = [[rand_element(g, rng, 2) if rng.random() < 0.8
                else GroupRingElement.zero(2) for _ in range(m)]
               for _ in range(n)]
        sm = sympy.Matrix(
            [[sum(sympy.Rational(str(c)) * x**v[0] * y**v[1] * u**e
                  for (v, e), c in a.terms) for a in row] for row in mat])
        assert rank_over_skew_field(mat, g) == sm.rank()


def test_equal_skew_polys_hash_alike():
    g = TwistedGroup.make(2, HEISENBERG)
    xm1 = LaurentPoly.from_dict(2, {(1, 0): 1, (0, 0): -1})  # x - 1
    a = SkewLaurentPoly.from_dict(g, {1: RationalFunction.make(xm1, xm1)})
    b = SkewLaurentPoly.from_dict(g, {1: RationalFunction.const(2, 1)})
    assert a == b
    assert len({a, b}) == 1
