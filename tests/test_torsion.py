import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gen import HEISENBERG, SOL, random_acyclic_complex
from polygroup.grouprings import GroupRingElement, TwistedGroup, h1_rank
from polygroup.lattice import hull
from polygroup.torsion import (
    BasedChainComplex,
    ChainComplexError,
    circle_complex,
    is_l2_acyclic,
    mapping_torus_complex,
    stabilize,
    torsion_polytope,
    torsion_via_contraction,
    validate,
)
from polygroup.vpolytope import TranslationClass, VirtualPolytope


def test_make_validates_shapes():
    g = TwistedGroup.make(0, [])
    one = GroupRingElement.one(0)
    with pytest.raises(ChainComplexError):
        BasedChainComplex.make(g, (1, 2), [[[one]]])


def test_make_rejects_nonzero_square():
    g = TwistedGroup.make(0, [])
    one = GroupRingElement.one(0)
    with pytest.raises(ChainComplexError):
        BasedChainComplex.make(g, (1, 1, 1), [[[one]], [[one]]])


def test_make_rejects_negative_ranks():
    g = TwistedGroup.make(0, [])
    # every other shape condition holds for these: only the sign fails
    for ranks, boundaries in (((-1,), []), ((-5,), []), ((0, -1), [[]])):
        with pytest.raises(ChainComplexError, match="nonnegative"):
            BasedChainComplex.make(g, ranks, boundaries)


def test_validate_builders():
    assert validate(circle_complex())
    for twist in ([[1]], [[1, 0], [0, 1]], HEISENBERG, SOL):
        assert validate(mapping_torus_complex(twist))


def test_circle_is_acyclic_with_torsion_minus_interval():
    c = circle_complex()
    assert is_l2_acyclic(c)
    r = torsion_polytope(c)
    assert r.acyclic
    minus_interval = TranslationClass.of(
        VirtualPolytope(hull([(0,)]), hull([(0,), (1,)])))
    assert r.polytope == minus_interval


def test_zero_complex_has_zero_torsion():
    c = BasedChainComplex.make(TwistedGroup.make(0, []), (), [])
    assert is_l2_acyclic(c)
    for algorithm in (torsion_polytope, torsion_via_contraction):
        r = algorithm(c)
        assert r.acyclic and r.polytope.is_zero()


def test_non_acyclic_complex_reported():
    g0 = TwistedGroup.make(0, [])
    g = TwistedGroup.make(2, HEISENBERG)
    zero = GroupRingElement.zero(2)
    a = GroupRingElement.monomial(2, (1, 0), 0) - GroupRingElement.one(2)
    b = GroupRingElement.monomial(2, (0, 0), 1) - GroupRingElement.one(2)
    cases = [
        # 0 -> QG -> 0 with zero boundary has nonzero homology
        (g0, (1, 1), [[[GroupRingElement.zero(0)]]]),
        # the subset choice fails at the top stage: d2 has rank 0
        (g, (1, 2, 1), [[[a, b]], [[zero], [zero]]]),
        # the top stage succeeds, then the column left for d1 is zero
        (g, (1, 2, 1), [[[zero, zero]], [[a], [zero]]]),
        # every stage succeeds but S_0 is left non-empty
        (g, (2, 1), [[[a], [zero]]]),
    ]
    for args in cases:
        c = BasedChainComplex.make(*args)
        assert not is_l2_acyclic(c)
        for algorithm in (torsion_polytope, torsion_via_contraction):
            r = algorithm(c)
            assert not r.acyclic and r.polytope is None


@settings(max_examples=25)
@given(seed=st.integers(0, 10**6), twist=st.sampled_from([HEISENBERG, SOL]),
       sizes=st.sampled_from([(1, 1), (2, 1), (1, 2)]),
       kill=st.sampled_from([None, 0, 1]))
def test_acyclicity_tests_agree(seed, twist, sizes, kill):
    g = TwistedGroup.make(2, twist)
    c = random_acyclic_complex(g, random.Random(seed), *sizes)
    if kill is not None:
        # a zero boundary keeps d o d = 0 but breaks exactness
        mats = [list(m) for m in c.boundaries]
        mats[kill] = [[GroupRingElement.zero(2)] * len(row) for row in mats[kill]]
        c = BasedChainComplex.make(g, c.ranks, mats)
    expected = is_l2_acyclic(c)
    assert expected == (kill is None)
    assert torsion_polytope(c).acyclic == expected
    assert torsion_via_contraction(c).acyclic == expected


def test_mapping_torus_ranks_and_acyclicity():
    for k, twist in ((1, [[1]]), (2, HEISENBERG), (2, SOL)):
        c = mapping_torus_complex(twist)
        from math import comb
        assert c.ranks == tuple(
            comb(k, n) + (comb(k, n - 1) if n >= 1 else 0)
            for n in range(k + 2))
        assert is_l2_acyclic(c)


def test_mapping_torus_torsion_vanishes():
    for twist in ([[1]], HEISENBERG, SOL):
        c = mapping_torus_complex(twist)
        r = torsion_polytope(c)
        assert r.acyclic
        assert r.polytope.is_zero()


@st.composite
def unimodular_twists(draw):
    """A random A != I in GL(k, Z) for k = 1, 2, 3."""
    k = draw(st.integers(1, 3))
    if k == 1:
        return [[-1]]
    a = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.permutations(range(k)))[:2]
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    if draw(st.booleans()):
        a[0] = [-x for x in a[0]]
    assume(a != [[int(i == j) for j in range(k)] for i in range(k)])
    return a


@settings(max_examples=34)
@given(twist=unimodular_twists())
def test_vanishing_for_nontrivial_twists(twist):
    # the paper's vanishing theorem: Z^k x|_A Z with A != I has a
    # non-abelian elementary amenable normal subgroup
    c = mapping_torus_complex(twist)
    for algorithm in (torsion_polytope, torsion_via_contraction):
        r = algorithm(c)
        assert r.acyclic
        assert r.polytope.is_zero()


def test_subset_choice_invariance():
    rng = random.Random(0)
    g = TwistedGroup.make(2, HEISENBERG)
    c = random_acyclic_complex(g, rng, 2, 2)
    base = torsion_polytope(c)
    assert base.acyclic
    for seed in range(5):
        r = torsion_polytope(c, random.Random(seed))
        assert r.acyclic and r.polytope == base.polytope


def test_contraction_agrees_with_subdeterminants():
    for trial in range(12):
        rng = random.Random(40 + trial)
        g = TwistedGroup.make(2, HEISENBERG if trial % 2 else SOL)
        n, m = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
        c = random_acyclic_complex(g, rng, n, m)
        r = torsion_polytope(c)
        rc = torsion_via_contraction(c, random.Random(trial))
        assert r.acyclic and rc.acyclic
        assert r.polytope == rc.polytope


def test_stabilization_invariance():
    rng = random.Random(1)
    g = TwistedGroup.make(1, [[1]])
    c = random_acyclic_complex(g, rng, 2, 1)
    base = torsion_polytope(c)
    for degree in (1, 2, 3):
        s = stabilize(c, degree)
        assert validate(s)
        r = torsion_polytope(s)
        assert r.acyclic and r.polytope == base.polytope
    # stabilizing twice still agrees
    r = torsion_polytope(stabilize(stabilize(c, 1), 2))
    assert r.polytope == base.polytope


def test_torsion_additive_under_direct_sum_shift():
    # direct sum with the circle-type summand u - 1 in degrees (1, 0)
    g = TwistedGroup.make(0, [])
    u = GroupRingElement.monomial(0, (), 1)
    one = GroupRingElement.one(0)
    zero = GroupRingElement.zero(0)
    c = BasedChainComplex.make(
        g, (2, 2),
        [[[u - one, zero], [zero, u - one]]])
    r = torsion_polytope(c)
    assert r.acyclic
    single = torsion_polytope(circle_complex()).polytope
    assert r.polytope == single.add(single)


def test_h1_rank_of_builders():
    assert h1_rank(mapping_torus_complex(HEISENBERG).group) == 2
    assert h1_rank(mapping_torus_complex(SOL).group) == 1
    assert h1_rank(circle_complex().group) == 1
