"""Multivariate Laurent polynomials and rational functions over Q.

These are the coefficients of the twisted Laurent ring: rational
functions in the k commuting fiber variables. Arithmetic is exact;
fractions are kept as (numerator, denominator) pairs of Laurent
polynomials and reduced by monomial content always, and by a full
polynomial gcd once the term count passes a threshold. The gcd in
`poly_gcd` is sympy's, the package's one use of sympy; exact division
is native.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy

GCD_TERM_THRESHOLD = 4

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class LaurentPoly:
    nvars: int
    terms: tuple[tuple[Monomial, Fraction], ...]  # sorted by exponent

    @staticmethod
    def from_dict(nvars: int, d: dict) -> "LaurentPoly":
        items = tuple(sorted((tuple(e), Fraction(c)) for e, c in d.items() if c != 0))
        return LaurentPoly(nvars, items)

    @staticmethod
    def zero(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars, ())

    @staticmethod
    def const(nvars: int, c) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly.zero(nvars)
        return LaurentPoly(nvars, (((0,) * nvars, c),))

    @staticmethod
    def monomial(nvars: int, exp, c=1) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly.zero(nvars)
        return LaurentPoly(nvars, ((tuple(exp), c),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def nterms(self) -> int:
        return len(self.terms)

    def __add__(self, other):
        d = dict(self.terms)
        for e, c in other.terms:
            nc = d.get(e, Fraction(0)) + c
            if nc == 0:
                d.pop(e, None)
            else:
                d[e] = nc
        return LaurentPoly(self.nvars, tuple(sorted(d.items())))

    def __neg__(self):
        return LaurentPoly(self.nvars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero(self.nvars)
        d = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                nc = d.get(e, Fraction(0)) + c1 * c2
                if nc == 0:
                    d.pop(e, None)
                else:
                    d[e] = nc
        return LaurentPoly(self.nvars, tuple(sorted(d.items())))

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly(self.nvars, tuple((e, c * cc) for e, cc in self.terms))

    def shift(self, exp) -> "LaurentPoly":
        return LaurentPoly(self.nvars, tuple(sorted(
            (tuple(a + b for a, b in zip(e, exp)), c) for e, c in self.terms)))

    def substitute_matrix(self, m) -> "LaurentPoly":
        """Monomial substitution x^e -> x^(M e); a ring automorphism for
        unimodular M."""
        d = {}
        for e, c in self.terms:
            ne = tuple(sum(m[i][j] * e[j] for j in range(self.nvars))
                       for i in range(self.nvars))
            d[ne] = d.get(ne, Fraction(0)) + c
        return LaurentPoly.from_dict(self.nvars, d)

    def min_exponents(self):
        return tuple(min(e[i] for e, _ in self.terms) for i in range(self.nvars))

    def leading(self):
        """(exponent, coefficient) of the lexicographically largest term."""
        return self.terms[-1]

    def support(self):
        return [e for e, _ in self.terms]


_SYM_CACHE: dict[int, tuple] = {}


def _symbols(nvars: int):
    if nvars not in _SYM_CACHE:
        _SYM_CACHE[nvars] = sympy.symbols(f"x1:{nvars + 1}")
    return _SYM_CACHE[nvars]


def _to_sympy_poly(p: LaurentPoly, shift):
    d = {tuple(a - b for a, b in zip(e, shift)): sympy.Rational(c.numerator, c.denominator)
         for e, c in p.terms}
    return sympy.Poly.from_dict(d, *_symbols(p.nvars))


def _from_sympy_poly(poly, nvars: int) -> LaurentPoly:
    d = {}
    for e, c in poly.terms():
        r = sympy.Rational(c)
        d[tuple(int(x) for x in e)] = Fraction(r.p, r.q)
    return LaurentPoly.from_dict(nvars, d)


def poly_divide_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """a / b when b divides a up to a monomial unit, else None.

    Shifted to exponents >= 0, a is divided by lex-leading terms. A
    quotient exponent that would turn negative means b does not divide
    a, and returning there is what stops the loop (lex division in the
    Laurent ring never ends on 1 / (x - 1)).
    """
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero:
        return LaurentPoly.zero(a.nvars)
    if b.nterms() == 1:
        (e, c) = b.terms[0]
        return a.shift(tuple(-x for x in e)).scale(Fraction(1) / c)
    sa, sb = a.min_exponents(), b.min_exponents()
    rem = {tuple(x - s for x, s in zip(e, sa)): c for e, c in a.terms}
    rest = [(tuple(x - s for x, s in zip(e, sb)), c) for e, c in b.terms]
    lead, lc = rest.pop()
    q = {}
    while rem:
        e = max(rem)
        qe = tuple(x - y for x, y in zip(e, lead))
        if min(qe) < 0:
            return None
        qc = rem.pop(e) / lc
        q[qe] = qc
        for eb, cb in rest:
            m = tuple(x + y for x, y in zip(qe, eb))
            c = rem.get(m, 0) - qc * cb
            if c:
                rem[m] = c
            else:
                rem.pop(m, None)
    return LaurentPoly.from_dict(a.nvars, q).shift(tuple(x - y for x, y in zip(sa, sb)))


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd up to a monomial unit; gcd(0, b) = b."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.nvars == 0 or a.nterms() == 1 or b.nterms() == 1:
        return LaurentPoly.const(a.nvars, 1)
    g = sympy.gcd(_to_sympy_poly(a, a.min_exponents()),
                  _to_sympy_poly(b, b.min_exponents()))
    if g == 1:
        return LaurentPoly.const(a.nvars, 1)
    return _from_sympy_poly(sympy.Poly(g, *_symbols(a.nvars)), a.nvars)


def poly_lcm(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    g = poly_gcd(a, b)
    q = poly_divide_exact(b, g)
    return a * q


@dataclass(frozen=True)
class RationalFunction:
    num: LaurentPoly
    den: LaurentPoly

    @staticmethod
    def make(num: LaurentPoly, den: LaurentPoly) -> "RationalFunction":
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            return RationalFunction(LaurentPoly.zero(num.nvars),
                                    LaurentPoly.const(num.nvars, 1))
        if (num.nterms() > GCD_TERM_THRESHOLD or den.nterms() > GCD_TERM_THRESHOLD) \
                and den.nterms() > 1:
            g = poly_gcd(num, den)
            num, den = poly_divide_exact(num, g), poly_divide_exact(den, g)
        # normalize: shift the denominator's monomial content into the
        # numerator, then make the denominator's lex-leading coefficient 1
        # (a one-term denominator becomes the constant 1)
        shift = den.min_exponents()
        if any(shift):
            den = den.shift(tuple(-s for s in shift))
            num = num.shift(tuple(-s for s in shift))
        lc = den.leading()[1]
        if lc != 1:
            den = den.scale(Fraction(1) / lc)
            num = num.scale(Fraction(1) / lc)
        return RationalFunction(num, den)

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalFunction":
        return RationalFunction.make(p, LaurentPoly.const(p.nvars, 1))

    @staticmethod
    def const(nvars: int, c) -> "RationalFunction":
        return RationalFunction.from_poly(LaurentPoly.const(nvars, c))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other):
        return RationalFunction.make(self.num * other.den + other.num * self.den,
                                     self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RationalFunction.make(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero rational function")
        return RationalFunction.make(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def substitute_matrix(self, m) -> "RationalFunction":
        return RationalFunction.make(self.num.substitute_matrix(m),
                                     self.den.substitute_matrix(m))

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        # (num, den) is reduced by a gcd only past GCD_TERM_THRESHOLD
        # terms, so hash what a common factor g leaves alone: lex is a
        # monomial order, so the lex-leading term of num * g over that of
        # den * g is the same for every g, and likewise the trailing term
        if self.num.is_zero:
            return hash((self.nvars, 0))
        out = []
        for k in (0, -1):
            (en, cn), (ed, cd) = self.num.terms[k], self.den.terms[k]
            out += [tuple(a - b for a, b in zip(en, ed)), cn / cd]
        return hash(tuple(out))

    def nterms(self) -> int:
        return self.num.nterms() + self.den.nterms()
