import random
from fractions import Fraction

import pytest

from polygroup.laurent import (
    LaurentPoly,
    RationalFunction,
    poly_divide_exact,
    poly_gcd,
    poly_lcm,
)


def rand_poly(rng, nvars=2, nterms=3, box=2):
    d = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(-box, box) for _ in range(nvars))
        d[e] = Fraction(rng.choice([-2, -1, 1, 2]))
    return LaurentPoly.from_dict(nvars, d)


def rand_rf(rng, nvars=2):
    num = rand_poly(rng, nvars)
    den = rand_poly(rng, nvars)
    while den.is_zero:
        den = rand_poly(rng, nvars)
    return RationalFunction.make(num, den)


def test_poly_ring_laws():
    rng = random.Random(1)
    for _ in range(30):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero(2) == a
        assert a * LaurentPoly.const(2, 1) == a
        assert (a - a).is_zero


def test_substitute_matrix_is_hom():
    rng = random.Random(2)
    m = [[1, 1], [0, 1]]
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        assert (a * b).substitute_matrix(m) == \
            a.substitute_matrix(m) * b.substitute_matrix(m)
        assert (a + b).substitute_matrix(m) == \
            a.substitute_matrix(m) + b.substitute_matrix(m)
    inv = [[1, -1], [0, 1]]
    for _ in range(10):
        a = rand_poly(rng)
        assert a.substitute_matrix(m).substitute_matrix(inv) == a


def test_divide_exact_and_gcd():
    rng = random.Random(3)
    for _ in range(30):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero:
            continue
        prod = a * b
        if a.is_zero:
            continue
        q = poly_divide_exact(prod, b)
        assert q is not None
        assert q * b == prod
        g = poly_gcd(prod, b)
        assert poly_divide_exact(prod, g) is not None
        assert poly_divide_exact(b, g) is not None


def test_divide_exact_rejects_nondivisor():
    x = LaurentPoly.from_dict(1, {(1,): 1, (0,): -1})   # x - 1
    y = LaurentPoly.from_dict(1, {(1,): 1, (0,): 1})    # x + 1
    assert poly_divide_exact(x, y) is None


def test_lcm():
    rng = random.Random(4)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        if a.is_zero or b.is_zero:
            continue
        l = poly_lcm(a, b)
        assert poly_divide_exact(l, a) is not None
        assert poly_divide_exact(l, b) is not None


def test_rational_function_field_laws():
    rng = random.Random(5)
    zero = RationalFunction.const(2, 0)
    one = RationalFunction.const(2, 1)
    for _ in range(25):
        a, b, c = (rand_rf(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert (a - a).is_zero
        if not a.is_zero:
            assert a * a.inverse() == one
            assert a / a == one


def test_rational_function_normal_form():
    # monomial denominators are folded into the numerator
    num = LaurentPoly.from_dict(2, {(1, 0): 2, (0, 1): 2})
    den = LaurentPoly.from_dict(2, {(1, 1): 2})
    f = RationalFunction.make(num, den)
    assert f.den == LaurentPoly.const(2, 1)
    with pytest.raises(ZeroDivisionError):
        RationalFunction.make(num, LaurentPoly.zero(2))
    with pytest.raises(ZeroDivisionError):
        RationalFunction.const(2, 0).inverse()


def test_rational_function_cancellation():
    x1 = LaurentPoly.from_dict(2, {(1, 0): 1, (0, 0): -1})  # x - 1
    x2 = LaurentPoly.from_dict(2, {(0, 1): 1, (0, 0): 1})   # y + 1
    big = x1 * x1 * x2 * x2 * x2
    f = RationalFunction.make(big * x1, big)
    assert f == RationalFunction.from_poly(x1)


def test_equal_rational_functions_hash_alike():
    # below GCD_TERM_THRESHOLD terms `make` keeps a common factor
    xm1 = LaurentPoly.from_dict(2, {(1, 0): 1, (0, 0): -1})  # x - 1
    one = RationalFunction.const(2, 1)
    f = RationalFunction.make(xm1, xm1)
    assert f == one
    assert len({f, one}) == 1
    rng = random.Random(17)
    for _ in range(40):
        a = rand_rf(rng)
        g = rand_poly(rng)
        if g.is_zero:
            continue
        b = RationalFunction.make(a.num * g, a.den * g)
        assert a == b
        assert hash(a) == hash(b)
