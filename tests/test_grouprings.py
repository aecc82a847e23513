import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gen import HEISENBERG, SOL, TWISTS, mat_det, rand_element
from polygroup.grouprings import (
    GroupRingElement,
    GroupRingError,
    TwistedGroup,
    element_polytope,
    gr_mul,
    h1_projection,
    h1_rank,
    snf,
)
from polygroup.intlinalg import (
    identity_matrix,
    int_det,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    solve_integer_exact,
)
from polygroup.lattice import hull, pushforward
from polygroup.vpolytope import TranslationClass, VirtualPolytope


def test_snf_decomposition_properties():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        dec = snf(a)
        lhs = mat_mul(mat_mul(dec.U, a), dec.V)
        for i in range(n):
            for j in range(m):
                want = dec.diagonal[i] if i == j and i < len(dec.diagonal) else 0
                assert lhs[i][j] == want
        # divisibility chain
        d = [x for x in dec.diagonal if x != 0]
        for i in range(len(d) - 1):
            assert d[i + 1] % d[i] == 0


def test_int_det_matches_fraction_elimination():
    rng = random.Random(2)
    assert int_det([]) == 1
    for _ in range(200):
        n = rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            a[0][0] = 0  # zero leading pivot
        if n > 1 and rng.random() < 0.2:
            a[-1] = list(a[0])  # singular
        assert int_det(a) == mat_det(a)


def test_inverse_unimodular():
    rng = random.Random(3)
    for n in range(6):
        for _ in range(10):
            # a random unimodular matrix: a product of elementary row operations
            a = identity_matrix(n)
            for _ in range(3 * n):
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                f = rng.randint(-3, 3) if i != j else 0
                a[i] = [x + f * y for x, y in zip(a[i], a[j])]
                if rng.random() < 0.3:
                    a[i] = [-x for x in a[i]]
            inv = inverse_unimodular(a)
            assert mat_mul(a, inv) == identity_matrix(n)
            assert mat_mul(inv, a) == identity_matrix(n)
    for bad in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[1, 0]]):
        with pytest.raises(ValueError):
            inverse_unimodular(bad)


def test_solve_integer_exact():
    # 2x + 4y = 6 and 3z = 9 have integer solutions; 2x + 4y = 5 has only
    # rational ones
    a = [[2, 4, 0], [0, 0, 3]]
    x = solve_integer_exact(a, [6, 9])
    assert x is not None and mat_vec(a, x) == [6, 9]
    assert solve_integer_exact(a, [5, 9]) is None
    # dependent rows: consistent, then inconsistent
    b = [[1, 1], [2, 2]]
    x = solve_integer_exact(b, [3, 6])
    assert x is not None and mat_vec(b, x) == [3, 6]
    assert solve_integer_exact(b, [3, 7]) is None


def test_twisted_group_validation():
    with pytest.raises(GroupRingError):
        TwistedGroup.make(2, [[2, 0], [0, 1]])
    with pytest.raises(GroupRingError):
        TwistedGroup.make(2, [[1, 0]])
    g = TwistedGroup.make(2, HEISENBERG)
    assert g.act(1, (0, 1)) == (1, 1)
    assert g.act(-1, g.act(1, (3, 4))) == (3, 4)
    assert g.act(2, (0, 1)) == (2, 1)


def test_h1_ranks():
    assert h1_rank(TwistedGroup.make(0, [])) == 1           # Z
    assert h1_rank(TwistedGroup.make(1, [[1]])) == 2        # Z^2
    assert h1_rank(TwistedGroup.make(2, [[1, 0], [0, 1]])) == 3  # Z^3
    assert h1_rank(TwistedGroup.make(2, HEISENBERG)) == 2
    assert h1_rank(TwistedGroup.make(2, SOL)) == 1


def test_h1_projection_kills_commutator_directions():
    # for the projection to be well defined on H1, (A - I) v must map to 0
    for twist in (HEISENBERG, SOL, [[1, 0], [0, 1]]):
        g = TwistedGroup.make(2, twist)
        proj = h1_projection(g)
        assert h1_projection(g) is proj                     # once per group
        for v in ((1, 0), (0, 1), (2, -3)):
            av = g.act(1, v)
            diff = tuple(a - b for a, b in zip(av, v)) + (0,)
            assert proj.apply(diff) == (0,) * proj.target_rank


def test_group_ring_is_a_ring():
    rng = random.Random(2)
    g = TwistedGroup.make(2, HEISENBERG)
    one = GroupRingElement.one(2)
    for _ in range(25):
        a = rand_element(g, rng)
        b = rand_element(g, rng)
        c = rand_element(g, rng)
        assert gr_mul(gr_mul(a, b, g), c, g) == gr_mul(a, gr_mul(b, c, g), g)
        assert gr_mul(a, b + c, g) == gr_mul(a, b, g) + gr_mul(a, c, g)
        assert gr_mul(b + c, a, g) == gr_mul(b, a, g) + gr_mul(c, a, g)
        assert gr_mul(a, one, g) == a
        assert gr_mul(one, a, g) == a


def test_twist_relation():
    g = TwistedGroup.make(2, HEISENBERG)
    u = GroupRingElement.monomial(2, (0, 0), 1)
    x2 = GroupRingElement.monomial(2, (0, 1), 0)
    # u x2 = x^{A e_2} u = x1 x2 u
    lhs = gr_mul(u, x2, g)
    assert lhs == GroupRingElement.monomial(2, (1, 1), 1)
    # the group ring is genuinely noncommutative
    assert gr_mul(x2, u, g) != lhs


def test_twist_power_large_exponents():
    g = TwistedGroup.make(2, HEISENBERG)
    a = HEISENBERG
    a_inv = [[1, -1], [0, 1]]
    assert g.twist_power(1500) == mat_mul(g.twist_power(1499), a)
    assert g.twist_power(-1500) == mat_mul(g.twist_power(-1499), a_inv)
    assert g.twist_power(1500) == [[1, 1500], [0, 1]]
    # u^1500 x2 = x^{A^1500 e_2} u^1500 and x2 u^-1500 = u^-1500 x^{A^1500 e_2}
    x2 = GroupRingElement.monomial(2, (0, 1), 0)
    up = GroupRingElement.monomial(2, (0, 0), 1500)
    assert gr_mul(up, x2, g) == GroupRingElement.monomial(2, (1500, 1), 1500)
    um = GroupRingElement.monomial(2, (0, 0), -1500)
    assert gr_mul(um, GroupRingElement.monomial(2, (1500, 1), 0), g) == \
        GroupRingElement.monomial(2, (0, 1), -1500)


def test_element_polytope_untwisted_is_support_hull():
    # over A = I the H1 projection is the identity, so P(a) is the hull
    # of the exponent support itself (its lexmin (0, 0) is already at the
    # origin, where the class keeps it)
    g = TwistedGroup.make(1, [[1]])
    a = GroupRingElement.from_dict(
        1, {((0,), 0): 1, ((2,), 1): -3, ((1,), -1): Fraction(1, 2)})
    cls = element_polytope(a, g)
    assert cls.vp.pos == hull([(0, 0), (2, 1), (1, -1)])
    assert cls.vp.neg.is_point
    with pytest.raises(GroupRingError):
        element_polytope(GroupRingElement.zero(1), g)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32), twist=st.sampled_from(TWISTS),
       factors=st.integers(1, 3))
def test_element_polytope_is_image_of_support_hull(seed, twist, factors):
    # hulling the projected support equals pushing the support hull in
    # Z^{k+1} forward to H1: the image of a hull is the hull of the image
    g = TwistedGroup.make(len(twist), twist)
    rng = random.Random(seed)
    a = rand_element(g, rng, maxterms=3)
    for _ in range(factors - 1):
        a = gr_mul(a, rand_element(g, rng, maxterms=3), g)
    old = TranslationClass.of(VirtualPolytope.from_polytope(
        pushforward(h1_projection(g), hull(a.support()))))
    assert element_polytope(a, g) == old


def test_element_polytope_multiplicative():
    rng = random.Random(3)
    for twist in (HEISENBERG, SOL):
        g = TwistedGroup.make(2, twist)
        for _ in range(10):
            a = rand_element(g, rng)
            b = rand_element(g, rng)
            ab = gr_mul(a, b, g)
            if ab.is_zero:
                continue
            assert element_polytope(ab, g) == \
                element_polytope(a, g).add(element_polytope(b, g))


def test_element_polytope_of_monomial_is_zero():
    g = TwistedGroup.make(2, HEISENBERG)
    m = GroupRingElement.monomial(2, (3, -1), 2, -5)
    cls = element_polytope(m, g)
    assert cls.is_zero()
