import ast
import inspect
import json
import math
import os
import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from gen import (
    HEISENBERG,
    oracle_add,
    oracle_divide,
    oracle_mul,
    oracle_substitute,
    random_matrix,
    unimodular_matrix,
)
from polygroup import laurent
from polygroup.grouprings import TwistedGroup
from polygroup.laurent import (
    LaurentPoly,
    RationalFunction,
    poly_divide_exact,
    poly_gcd,
    poly_lcm,
)
from polygroup.skewlaurent import dieudonne_det
from polygroup.torsion import mapping_torus_complex, torsion_polytope


def rand_poly(rng, nvars=2, nterms=3, box=2):
    d = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(-box, box) for _ in range(nvars))
        d[e] = rng.choice([-2, -1, 1, 2])
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


def _sympy_poly(p, gens):
    """p shifted to exponents >= 0, as a sympy polynomial over ZZ."""
    lo = p.min_exponents()
    return sympy.Poly.from_dict({tuple(x - y for x, y in zip(e, lo)): c for e, c in p.items()},
                                *gens, domain=sympy.ZZ)


def sympy_divide(a, b):
    """a / b by sympy.div over ZZ on a and b shifted to polynomials, or None."""
    gens = sympy.symbols(f"x1:{a.nvars + 1}")
    sa, sb = a.min_exponents(), b.min_exponents()
    q, r = sympy.div(_sympy_poly(a, gens), _sympy_poly(b, gens), auto=False)   # over ZZ, not QQ
    if not r.is_zero:
        return None
    return LaurentPoly.from_dict(a.nvars, {
        tuple(int(x) + y - z for x, y, z in zip(e, sa, sb)): int(c)
        for e, c in q.terms()})


def test_divide_exact_and_gcd():
    rng = random.Random(3)
    for nvars in (1, 2, 3):
        for _ in range(30):
            a, b = rand_poly(rng, nvars), rand_poly(rng, nvars, nterms=4)
            if a.is_zero or b.is_zero:
                continue
            prod = a * b
            q = poly_divide_exact(prod, b)
            assert q == a
            assert q == sympy_divide(prod, b)
            g = poly_gcd(prod, b)
            assert poly_divide_exact(prod, g) is not None
            assert poly_divide_exact(b, g) is not None
    # constants, with no variables at all
    c3, c2 = LaurentPoly.const(0, 3), LaurentPoly.const(0, 2)
    assert poly_divide_exact(c3, c2) is None           # 3 / 2 is not over Z
    assert poly_divide_exact(c3, c3) == LaurentPoly.const(0, 1)
    assert poly_divide_exact(LaurentPoly.zero(0), c2).is_zero
    assert poly_gcd(c3, c2) == LaurentPoly.const(0, 1)
    with pytest.raises(ZeroDivisionError):
        poly_divide_exact(c3, LaurentPoly.zero(0))


def test_divide_exact_rejects_nondivisor():
    x = LaurentPoly.from_dict(1, {(1,): 1, (0,): -1})   # x - 1
    y = LaurentPoly.from_dict(1, {(1,): 1, (0,): 1})    # x + 1
    assert poly_divide_exact(x, y) is None
    # in the Laurent ring lex division by x - 1 never ends on 1
    assert poly_divide_exact(LaurentPoly.const(1, 1), x) is None
    assert poly_divide_exact(LaurentPoly.monomial(1, (-3,)), x) is None
    rng = random.Random(13)
    rejected = 0
    for nvars in (1, 2, 3):
        for _ in range(40):
            a, b = rand_poly(rng, nvars, nterms=5), rand_poly(rng, nvars)
            if a.is_zero or b.is_zero:
                continue
            q = poly_divide_exact(a, b)
            assert q == sympy_divide(a, b)
            rejected += q is None
    assert rejected >= 60


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


class _CountingSympy:
    """laurent's view of sympy, counting its gcd and div calls."""

    def __init__(self, sympy_module):
        self._sympy = sympy_module
        self.calls = {"gcd": 0, "div": 0}
        for attr in self.calls:
            setattr(self, attr, self._counted(attr, getattr(sympy_module, attr)))

    def _counted(self, attr, fn):
        def wrapper(*args, **kwargs):
            self.calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __getattr__(self, attr):
        return getattr(self._sympy, attr)


def test_no_sympy_division(monkeypatch):
    view = _CountingSympy(laurent.sympy)
    monkeypatch.setattr(laurent, "sympy", view)
    g = TwistedGroup.make(2, HEISENBERG)
    assert dieudonne_det(random_matrix(g, random.Random(0), 3), g) is not None
    assert torsion_polytope(mapping_torus_complex(HEISENBERG)).polytope.is_zero()
    assert view.calls["gcd"] == 0
    assert view.calls["div"] == 0


_NO_SYMPY_SCRIPT = """
import json, sys
import polygroup, polygroup.cli
from polygroup import laurent
calls = [0]
heu = laurent._heu_gcd
def counted(f, g):
    calls[0] += 1
    return heu(f, g)
laurent._heu_gcd = counted
torus, out = sys.argv[1], sys.argv[2]
codes = [polygroup.cli.main(["demo", "--output", out]),
         polygroup.cli.main(["mapping-torus", "--twist", "[[1, 0, 0], [-1, 1, 1], [-1, 0, 1]]",
                             "--output", torus]),
         polygroup.cli.main(["torsion", "--oracle", torus, "--output", out])]
print(json.dumps({"codes": codes, "heu_calls": calls[0], "sympy": "sympy" in sys.modules}))
"""


def test_package_never_imports_sympy(tmp_path):
    # a fresh interpreter: this test process has imported sympy itself
    src = os.path.dirname(os.path.dirname(os.path.abspath(laurent.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _NO_SYMPY_SCRIPT,
                           str(tmp_path / "torus.json"), str(tmp_path / "out.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    # the oracle run of this k = 3 torus reaches the polynomial gcd
    assert report["heu_calls"] > 0
    assert report["sympy"] is False


def _sympy_gcd(a, b):
    """gcd(a, b) by sympy over ZZ, on a and b shifted to polynomials."""
    n = a.nvars
    gens = sympy.symbols(f"x1:{n + 1}")
    h = sympy.gcd(_sympy_poly(a, gens), _sympy_poly(b, gens))
    if not isinstance(h, sympy.Poly):
        h = sympy.Poly(h, *gens, domain=sympy.ZZ)
    return LaurentPoly.from_dict(n, {e: int(c) for e, c in h.as_dict(native=True).items()})


def _up_to_unit(p):
    """p divided by a unit of Z[x^+-1]: minimal exponents 0 and a positive
    lex-leading coefficient."""
    lo = p.min_exponents()
    sign = 1 if p.leading()[1] > 0 else -1
    return LaurentPoly.from_dict(p.nvars, {tuple(x - y for x, y in zip(e, lo)): sign * c
                                           for e, c in p.items()})


@st.composite
def _gcd_cases(draw):
    """(a * g, b * g) or a pair (a, b), in 1-5 variables with negative
    exponents and coefficients up to 2^40. The exponent box narrows as
    variables are added: GCDHEU's integers grow as the product of the
    degrees."""
    n = draw(st.integers(1, 5))
    box = (6, 4, 2, 1, 1)[n - 1]
    coeff = st.integers(-3, 3).filter(bool) | st.integers(-2**40, 2**40).filter(bool)

    def poly(minterms, maxterms):
        d = {}
        for _ in range(draw(st.integers(minterms, maxterms))):
            d[tuple(draw(st.integers(-box, box)) for _ in range(n))] = draw(coeff)
        return d

    a, b = poly(1, 4), poly(1, 4)
    g = poly(2, 4) if draw(st.booleans()) else None
    return n, a, b, g


# Dieudonne seed 0 of the benchmark: sparse, of high degree and coprime,
# GCDHEU's weak case, where its evaluated integers reach about 380k bits
_SPARSE_PAIR = (2,
                {(0, 0): -2, (71, 47): 2048, (146, 91): -512, (162, 102): -2048,
                 (201, 127): -32768},
                {(0, 0): 1, (55, 36): 128, (146, 91): 128, (201, 127): 16384},
                None)


@settings(max_examples=250)
@given(case=_gcd_cases())
@example(case=_SPARSE_PAIR)
def test_gcd_matches_sympy(case):
    n, da, db, dg = case
    a, b = LaurentPoly.from_dict(n, da), LaurentPoly.from_dict(n, db)
    if dg is not None:
        g = LaurentPoly.from_dict(n, dg)
        a, b = a * g, b * g
    if a.is_zero or b.is_zero:
        return
    got, want = poly_gcd(a, b), _sympy_gcd(a, b)
    if a.nterms() == 1 or b.nterms() == 1:
        # a monomial operand gives 1, a gcd over Q; over Z it is a constant
        assert want.nterms() == 1 and want.min_exponents() == (0,) * n
        want = LaurentPoly.const(n, 1)
    assert _up_to_unit(got) == _up_to_unit(want)


def test_gcd_give_up_stays_correct(monkeypatch):
    # with no evaluation point GCDHEU gives up at once, and poly_gcd
    # returns 1: a common divisor, so every result stays correct
    monkeypatch.setattr(laurent, "HEU_TRIES", 0)
    xm1 = LaurentPoly.from_dict(2, {(1, 0): 1, (0, 0): -1})                   # x - 1
    a = LaurentPoly.from_dict(2, {(2, 0): 1, (0, 1): 3, (0, 0): 1})
    b = LaurentPoly.from_dict(2, {(1, 1): 2, (0, 2): -1, (0, 0): 5})
    g = xm1 * LaurentPoly.from_dict(2, {(0, 1): 1, (0, 0): 2})                # 4 terms
    assert poly_gcd(a * g, b * g) == LaurentPoly.const(2, 1)
    f = RationalFunction.make(a * g, b * g)
    assert f.num.nterms() > a.nterms()                # left unreduced
    reduced = RationalFunction.make(a, b)
    assert f == reduced
    assert hash(f) == hash(reduced)
    lcm = poly_lcm(a * g, b * g)
    assert poly_divide_exact(lcm, a * g) is not None
    assert poly_divide_exact(lcm, b * g) is not None
    monkeypatch.undo()
    assert _up_to_unit(poly_gcd(a * g, b * g)) == _up_to_unit(g)


def _dict(p):
    return dict(p.items())


_NEAR_2_14 = sorted({(1 << j) // k + d for j in range(12, 17) for k in (1, 2, 3, 4)
                     for d in (-1, 0, 1)})


@st.composite
def _kernel_cases(draw):
    """Two polynomials in 0-5 variables with exponents up to +-2^20, and
    a unimodular matrix.

    In variable i the exponents are off_i + stride_i * t: a's t run over
    [0, ta_i] and b's over [0, tb_i], both ends taken, so lex division
    visits few monomials. Strides near 2^j / k put the spans of a, b and
    a * b on both sides of 2^13 and 2^14, where 15-bit fields with a free
    top bit run out of room.
    """
    n = draw(st.integers(0, 5))
    off = [draw(st.integers(-2**18, 2**18)) for _ in range(n)]
    stride = [draw(st.sampled_from(_NEAR_2_14) | st.integers(1, 2**17)) for _ in range(n)]
    coeff = st.integers(-3, 3).filter(bool) | st.integers(-2**70, 2**70).filter(bool)

    def poly(maxterms, maxt):
        tops = [draw(st.integers(0, maxt)) for _ in range(n)]
        d = {}
        for j in range(draw(st.integers(1, maxterms))):
            t = [0 if j == 0 else top if j == 1 else draw(st.integers(0, top))
                 for top in tops]
            d[tuple(o + s * x for o, s, x in zip(off, stride, t))] = draw(coeff)
        return d

    m = unimodular_matrix(random.Random(draw(st.integers(0, 2**32))), n)
    return n, poly(4, 4), poly(3, 2), m


@settings(max_examples=300)
@given(case=_kernel_cases())
def test_kernel_matches_oracle(case):
    n, da, db, m = case
    a, b = LaurentPoly.from_dict(n, da), LaurentPoly.from_dict(n, db)
    assert _dict(a) == da and _dict(b) == db
    # results are compared as dicts and in the canonical representation
    for got, want in ((a + b, oracle_add(da, db)),
                      (a - b, oracle_add(da, {e: -c for e, c in db.items()})),
                      (a * b, oracle_mul(da, db)),
                      (a.substitute_matrix(m), oracle_substitute(da, m)),
                      (b.substitute_matrix(m), oracle_substitute(db, m))):
        assert _dict(got) == want
        assert got == LaurentPoly.from_dict(n, want)
    if a.is_zero or b.is_zero:
        return
    prod = a * b
    assert poly_divide_exact(prod, b) == a
    assert poly_divide_exact(prod, a) == b
    # non-divisors: a random a, and a product off by one monomial
    bump = oracle_add(_dict(prod), {max(da): 1})
    for num in (da, bump):
        want = oracle_divide(num, db)
        got = poly_divide_exact(LaurentPoly.from_dict(n, num), b)
        assert (got is None) == (want is None)
        if want is not None:
            assert _dict(got) == want


def test_divide_exact_over_z():
    assert poly_divide_exact(LaurentPoly.const(0, 3), LaurentPoly.const(0, 2)) is None
    x = LaurentPoly.from_dict(1, {(1,): 1, (0,): -1})                # x - 1
    two_x = LaurentPoly.from_dict(1, {(1,): 2, (0,): -2})            # 2x - 2
    assert poly_divide_exact(two_x, x) == LaurentPoly.const(1, 2)
    assert poly_divide_exact(x, two_x) is None     # 1/2 is no coefficient over Z
    assert poly_divide_exact(two_x * x, two_x) == x


def test_make_normal_form_over_z():
    rng = random.Random(21)
    for _ in range(60):
        f = rand_rf(rng)
        if f.is_zero:
            continue
        (_, lc) = f.den.leading()
        assert lc > 0
        assert f.den.min_exponents() == (0, 0)
        coeffs = [c for _, c in f.num.items()] + [c for _, c in f.den.items()]
        assert math.gcd(*coeffs) == 1
    x = LaurentPoly.from_dict(1, {(1,): 1, (0,): -1})
    c = LaurentPoly.const
    half = RationalFunction.make(c(1, 1), c(1, 2))
    assert half.num == c(1, 1) and half.den == c(1, 2)
    same = [half, RationalFunction.make(c(1, 2), c(1, 4)),
            RationalFunction.make(x * c(1, 2), x * c(1, 4)),
            RationalFunction.make(x * c(1, -2), x * c(1, -4))]
    for f in same:
        assert f == half
        assert hash(f) == hash(half)
    assert RationalFunction.make(x * c(1, -2), x * c(1, -4)).den.leading()[1] > 0
    assert RationalFunction.make(c(1, 1), c(1, 3)) != half


def test_laurent_imports_no_fractions():
    tree = ast.parse(inspect.getsource(laurent))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "fractions" not in imported
    assert "Fraction" not in vars(laurent)
