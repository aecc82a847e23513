"""Acceptance criteria: exact quantitative checks with runtime budgets.

Each test asserts both the mathematical statement (exact equality, no
tolerances) and that its stated runtime budget was respected.
"""

import random
import time
from contextlib import contextmanager

from gen import (
    HEISENBERG,
    SOL,
    commutative_det,
    invertible_product,
    random_acyclic_complex,
    random_genuine_pair,
    random_matrix,
    random_polytope,
    random_virtual,
)
from polygroup.grouprings import TwistedGroup, element_polytope, h1_rank
from polygroup.lattice import facet_normals, hull, minkowski_sum, reflect
from polygroup.skewlaurent import dieudonne_det, matrix_polytope
from polygroup.torsion import (
    circle_complex,
    mapping_torus_complex,
    stabilize,
    torsion_polytope,
    torsion_via_contraction,
)
from polygroup.vpolytope import (
    TranslationClass,
    VirtualPolytope,
    decompose_antisymmetric,
    involution,
    is_polytope,
    is_polytope_certified,
    pt_equal,
    pt_is_zero,
    seminorm_map,
    summand_rank2,
    vp_add,
    vp_sub,
)


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeded {seconds}s budget"


def test_criterion_1_circle_torsion_is_minus_unit_interval():
    with budget(1.0):
        r = torsion_polytope(circle_complex())
        assert r.acyclic
        minus_interval = TranslationClass.of(
            VirtualPolytope(hull([(0,)]), hull([(0,), (1,)])))
        assert r.polytope == minus_interval


def test_criterion_2_torsion_vanishes_for_z2_and_z3():
    with budget(10.0):
        for twist in ([[1]], [[1, 0], [0, 1]]):
            r = torsion_polytope(mapping_torus_complex(twist))
            assert r.acyclic
            assert r.polytope.is_zero()


def test_criterion_3a_heisenberg_torsion_vanishes():
    with budget(60.0):
        c = mapping_torus_complex(HEISENBERG)
        assert h1_rank(c.group) == 2
        r = torsion_polytope(c)
        assert r.acyclic
        assert r.polytope.is_zero()


def test_criterion_3b_sol_torsion_vanishes():
    with budget(60.0):
        c = mapping_torus_complex(SOL)
        assert h1_rank(c.group) == 1
        r = torsion_polytope(c)
        assert r.acyclic
        assert r.polytope.is_zero()


def test_criterion_4_polytope_detection_agrees_with_edge_oracle():
    with budget(60.0):
        rng = random.Random(2024)
        genuine_seen = 0
        failures_seen = 0
        for trial in range(200):
            if trial % 2 == 0:
                x, _ = random_genuine_pair(rng)
            else:
                x = random_virtual(rng, 2, npoints=4, box=3)
            s, cert = is_polytope_certified(x)
            oracle = summand_rank2(x.pos, x.neg)
            assert (s is None) == (oracle is None)
            if s is None:
                failures_seen += 1
                assert cert is not None  # every failure names a direction
            else:
                genuine_seen += 1
                assert pt_equal(vp_sub(x, VirtualPolytope.from_polytope(s)),
                                VirtualPolytope.zero(2))
        assert genuine_seen >= 100 and failures_seen >= 1


def test_criterion_5_dieudonne_matches_commutative_determinant():
    with budget(120.0):
        rng = random.Random(5)
        g = TwistedGroup.make(2, [[1, 0], [0, 1]])
        nonsingular = 0
        for trial in range(100):
            n = 2 if trial < 50 else 3
            m = random_matrix(g, rng, n)
            cdet = commutative_det(m, g)
            det = dieudonne_det(m, g)
            if cdet.is_zero:
                assert det is None
                continue
            assert det is not None
            assert det.polytope(g) == element_polytope(cdet, g)
            nonsingular += 1
        assert nonsingular >= 80


def test_criterion_6_invertible_matrices_give_genuine_polytopes():
    with budget(300.0):
        rng = random.Random(6)
        g = TwistedGroup.make(2, HEISENBERG)
        for trial in range(100):
            n = rng.choice([2, 3])
            m = invertible_product(g, rng, n, rng.randint(1, 8))
            cls = matrix_polytope(m, g)
            assert cls is not None
            assert is_polytope(cls.vp) is not None


def test_criterion_7_elementary_products_have_zero_polytope():
    rng = random.Random(7)
    g = TwistedGroup.make(2, HEISENBERG)
    for trial in range(100):
        n = rng.choice([2, 3])
        m = invertible_product(g, rng, n, rng.randint(1, 6),
                               kinds=("elementary", "diagonal"))
        cls = matrix_polytope(m, g)
        assert cls is not None
        assert cls.is_zero()


def test_criterion_8_antisymmetric_decomposition_roundtrip():
    rng = random.Random(8)
    for trial in range(100):
        rank = 1 + trial % 3
        r = random_polytope(rng, rank)
        x = vp_sub(VirtualPolytope.from_polytope(r),
                   VirtualPolytope.from_polytope(reflect(r)))
        # seminorm homomorphism vanishes on every facet normal
        total = minkowski_sum(x.pos, x.neg)
        for phi, _ in facet_normals(total):
            assert seminorm_map(x, phi) == 0
        # x lies in the kernel of id + *
        assert pt_is_zero(vp_add(x, involution(x)))
        # and is realized as P - *P
        p = decompose_antisymmetric(x)
        wit = vp_sub(VirtualPolytope.from_polytope(p),
                     VirtualPolytope.from_polytope(reflect(p)))
        assert pt_equal(x, wit)


def test_criterion_9_torsion_algorithms_agree():
    groups = [TwistedGroup.make(1, [[1]]),
              TwistedGroup.make(2, HEISENBERG),
              TwistedGroup.make(2, SOL)]
    for trial in range(50):
        rng = random.Random(900 + trial)
        g = groups[trial % 3]
        n, m = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
        c = random_acyclic_complex(g, rng, n, m)
        r = torsion_polytope(c, random.Random(trial))
        rc = torsion_via_contraction(c, random.Random(50 + trial))
        assert r.acyclic and rc.acyclic
        assert r.polytope == rc.polytope
        # stabilization invariance
        rs = torsion_polytope(stabilize(c, 1 + trial % 2))
        assert rs.acyclic and rs.polytope == r.polytope
    for builder in (circle_complex(), mapping_torus_complex([[1]]),
                    mapping_torus_complex(HEISENBERG),
                    mapping_torus_complex(SOL)):
        r = torsion_polytope(builder)
        rc = torsion_via_contraction(builder)
        assert r.acyclic and rc.acyclic and r.polytope == rc.polytope
