"""Skew Laurent polynomials over rational functions, and row reduction.

Elements are finite sums sum_m c_m(x) u^m with rational-function
coefficients, each a pair of Laurent polynomials over Z
(`laurent.RationalFunction`); the variable u does not commute with the
coefficients but conjugates them by the monomial substitution
x^e -> x^(A e):

    u^m c(x) = c(x^(A^m)) u^m.

The coefficients form a (commutative) field, so the ring is left
Euclidean with respect to the degree span max(m) - min(m), and it embeds
in a skew field of fractions. Euclidean left row reduction (`_eliminate`)
is therefore enough to read off ranks over that skew field and
Dieudonne determinant classes of matrices over the rational group ring
of G = Z^k x| Z, without ever forming a fraction.

For A = I the ring is commutative, Q[x^±, u^±], and the Dieudonne
determinant is the ordinary one. There `_bareiss` runs fraction-free
elimination on integer Laurent polynomials in k + 1 variables (u last)
instead, and the determinant comes out exactly, over the constant
denominator 1. Twisted matrices keep `_eliminate` until a fraction-free
Ore kernel replaces it.

Group ring elements have `Fraction` coefficients. A determinant turns
them into integer data once, on the way in (`_integer_rows` for A = I,
`from_group_ring` otherwise), keeps its products in integer Laurent
polynomials, and makes `Fraction`s once, for the returned pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .grouprings import (
    GroupRingElement,
    GroupRingError,
    TwistedGroup,
    element_polytope,
)
from .laurent import LaurentPoly, RationalFunction, poly_divide_exact, poly_lcm
from .vpolytope import TranslationClass


@dataclass(frozen=True)
class SkewLaurentPoly:
    group: TwistedGroup
    coeffs: tuple[tuple[int, RationalFunction], ...]  # sorted by u-exponent

    @staticmethod
    def from_dict(g: TwistedGroup, d: dict) -> "SkewLaurentPoly":
        items = tuple(sorted((int(m), c) for m, c in d.items() if not c.is_zero))
        return SkewLaurentPoly(g, items)

    @staticmethod
    def zero(g: TwistedGroup) -> "SkewLaurentPoly":
        return SkewLaurentPoly(g, ())

    @staticmethod
    def from_group_ring(a: GroupRingElement, g: TwistedGroup) -> "SkewLaurentPoly":
        by_m: dict[int, dict] = {}
        for (v, m), c in a.terms:
            by_m.setdefault(m, {})[v] = c
        d = {}
        for m, mono in by_m.items():
            scale = lcm(*(c.denominator for c in mono.values()))
            num = LaurentPoly.from_dict(g.k, {v: c.numerator * (scale // c.denominator)
                                              for v, c in mono.items()})
            # already the normal form: a prime dividing the scale misses
            # the scaled numerator of a coefficient whose denominator
            # holds its full power, and a constant denominator has no gcd
            d[m] = RationalFunction(num, LaurentPoly.const(g.k, scale))
        return SkewLaurentPoly(g, tuple(sorted(d.items())))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def deg(self) -> int:
        return self.coeffs[-1][0]

    def ord(self) -> int:
        return self.coeffs[0][0]

    def span(self) -> int:
        return self.deg() - self.ord()

    def nterms(self) -> int:
        return sum(c.nterms() for _, c in self.coeffs)

    def __add__(self, other):
        d = dict(self.coeffs)
        for m, c in other.coeffs:
            nc = d.get(m)
            nc = c if nc is None else nc + c
            if nc.is_zero:
                d.pop(m, None)
            else:
                d[m] = nc
        return SkewLaurentPoly(self.group, tuple(sorted(d.items())))

    def __neg__(self):
        return SkewLaurentPoly(self.group, tuple((m, -c) for m, c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        d: dict[int, RationalFunction] = {}
        for m, c in self.coeffs:
            mat = self.group.twist_power(m)
            for n, e in other.coeffs:
                term = c * e.substitute_matrix(mat)
                key = m + n
                nc = d.get(key)
                nc = term if nc is None else nc + term
                if nc.is_zero:
                    d.pop(key, None)
                else:
                    d[key] = nc
        return SkewLaurentPoly(self.group, tuple(sorted(d.items())))

    def monomial_mul_left(self, c: RationalFunction, e: int) -> "SkewLaurentPoly":
        """(c u^e) * self."""
        mat = self.group.twist_power(e)
        items = []
        for m, cm in self.coeffs:
            nc = c * cm.substitute_matrix(mat)
            if not nc.is_zero:
                items.append((m + e, nc))
        return SkewLaurentPoly(self.group, tuple(sorted(items)))

    def _cleared(self) -> tuple["SkewLaurentPoly", LaurentPoly]:
        """self = d^{-1} N in integer data: d is the lcm over Z of the
        coefficient denominators, and N has `LaurentPoly` coefficients.
        `__mul__` multiplies such N as it multiplies self."""
        d = LaurentPoly.const(self.group.k, 1)
        for _, c in self.coeffs:
            d = poly_lcm(d, c.den)
        return SkewLaurentPoly(self.group, tuple(
            (m, c.num * poly_divide_exact(d, c.den)) for m, c in self.coeffs)), d

    def to_group_ring_pair(self) -> tuple[GroupRingElement, GroupRingElement]:
        """Write self as d^{-1} N with N in QG and d a fiber Laurent polynomial.

        Returns (N, d) as group ring elements, d supported in u-degree 0:
        d is the lcm over Z of the coefficient denominators, divided by
        its lex-leading coefficient.
        """
        if self.is_zero:
            raise GroupRingError("zero element has no fraction form")
        num, d = self._cleared()
        return _fraction_pair(num, d)


def _element(k: int, terms, d: int) -> GroupRingElement:
    """The group ring element sum (c / d) x^v u^m of integer terms
    ((v, m), c) with distinct keys."""
    return GroupRingElement(k, tuple(sorted(
        (key, Fraction(c, d)) for key, c in terms)))


def _fraction_pair(num: SkewLaurentPoly, d: LaurentPoly):
    """(num / lc, d / lc) as group ring elements, lc the lex-leading
    coefficient of d."""
    k, lc = num.group.k, d.leading()[1]
    return (_element(k, (((e, m), q) for m, p in num.coeffs for e, q in p.items()), lc),
            _element(k, (((e, 0), q) for e, q in d.items()), lc))


def skew_divmod(a: SkewLaurentPoly, b: SkewLaurentPoly):
    """Left Euclidean division a = q b + r.

    The remainder satisfies r = 0 or span(r) < span(b); the Euclidean
    function is the degree span, so the loop terminates because the top
    u-degree of the running remainder drops at every step while the
    bottom one cannot drop.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by zero")
    g = a.group
    q = SkewLaurentPoly.zero(g)
    r = a
    db = b.deg()
    lb = b.coeffs[-1][1]
    while not r.is_zero and r.span() >= b.span():
        e = r.deg() - db
        c = r.coeffs[-1][1] / lb.substitute_matrix(g.twist_power(e))
        r = r - b.monomial_mul_left(c, e)
        q = q + SkewLaurentPoly(g, ((e, c),))
    return q, r


@dataclass(frozen=True)
class DetClass:
    """Dieudonne determinant data: sign * numerator * denominator^{-1} * u^m.
    Its polytope class P(numerator) - P(denominator) is derived only here."""

    numerator: GroupRingElement
    denominator: GroupRingElement
    unit_exponent: int
    sign: int

    def polytope(self, g: TwistedGroup) -> TranslationClass:
        return element_polytope(self.numerator, g).sub(element_polytope(self.denominator, g))


class EliminationError(ArithmeticError):
    """A fraction-free step whose exact division failed. Sylvester's
    identity says it cannot, so this is a defect, never an answer."""


def _untwisted(g: TwistedGroup) -> bool:
    return all(x == (i == j) for i, row in enumerate(g.twist) for j, x in enumerate(row))


def _matrix_to_skew(m, g: TwistedGroup):
    return [[SkewLaurentPoly.from_group_ring(e, g) for e in row] for row in m]


def _integer_rows(m, k: int):
    """A matrix over QG, G = Z^k x Z untwisted, as integer Laurent
    polynomials in x_1..x_k, u, each row scaled by the lcm of its
    coefficient denominators; returns (rows, product of the scales, the
    zero polynomial that every zero entry shares)."""
    rows, scale = [], 1
    zero = LaurentPoly.zero(k + 1)      # polynomials are immutable: one zero serves
    for row in m:
        s = lcm(*(c.denominator for e in row for _, c in e.terms))
        rows.append([LaurentPoly.from_dict(k + 1, {v + (u,): c.numerator * (s // c.denominator)
                                                   for (v, u), c in e.terms})
                     if e.terms else zero for e in row])
        scale *= s
    return rows, scale, zero


def _bareiss(m, g: TwistedGroup, full_rank=False):
    """Fraction-free row reduction (Bareiss, Math. Comp. 22, 1968) of a
    matrix over QG for A = I, where QG = Q[x^±, u^±] is commutative.

    The rows are taken as integer polynomials by `_integer_rows`. Column
    by column, the live entry (nonzero, in a row without a pivot yet)
    with the fewest terms, the first such row on ties, becomes the pivot
    p and its row moves up to the next echelon position; every row below
    it becomes (p a_ij - a_ic a_rj) / prev, prev the previous pivot (1 at
    first). By Sylvester's identity each entry is then a minor of the
    scaled matrix, so the division is exact and no gcd is taken, and the
    last pivot of a nonsingular square matrix is its determinant up to
    the sign of the swaps. A column with no live entry has no pivot.

    Returns `_eliminate`'s (rank, labels, sign), then the last pivot (an
    integer polynomial in k + 1 variables, None at rank 0) and the
    product of the row scales. With full_rank the result is returned at
    the first column without a pivot.
    """
    rows, scale, zero = _integer_rows(m, g.k)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    labels = list(range(nrows))
    rank, sign = 0, 1
    prev, piv = LaurentPoly.const(g.k + 1, 1), None
    for col in range(ncols):
        if rank == nrows:
            break
        live = [i for i in range(rank, nrows) if rows[i][col].terms]
        if not live:
            if full_rank:
                break
            continue
        i = min(live, key=lambda i: len(rows[i][col].terms))
        if i != rank:
            rows[rank], rows[i] = rows[i], rows[rank]
            labels[rank], labels[i] = labels[i], labels[rank]
            sign = -sign
        top = rows[rank]
        piv = top[col]
        same = piv == prev
        for row in rows[rank + 1:]:
            c = row[col]
            if same and not c.terms:
                continue                # the row times piv / prev = 1
            for j in range(col + 1, ncols):
                a, b = row[j], top[j]
                if c.terms and b.terms:
                    row[j] = _divide(piv * a - c * b, prev)
                elif a.terms:
                    row[j] = _divide(piv * a, prev)
            row[col] = zero
        prev = piv
        rank += 1
    return rank, labels, sign, piv, scale


def _divide(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q = poly_divide_exact(a, b)
    if q is None:
        raise EliminationError("inexact Bareiss division")
    return q


def _row_echelon(m, g: TwistedGroup, full_rank=False):
    """(rank, labels, sign) of a matrix over QG, by `_bareiss` for A = I
    and by `_eliminate` otherwise."""
    if _untwisted(g):
        return _bareiss(m, g, full_rank)[:3]
    return _eliminate(_matrix_to_skew(m, g), full_rank)


def _pivot_key(p: SkewLaurentPoly):
    return (p.span(), len(p.coeffs), p.nterms())


def _eliminate(rows, full_rank=False):
    """Reduce a matrix of SkewLaurentPoly (a list of row lists) to row
    echelon form in place, by Euclidean left row reduction.

    Column by column, the live entry (nonzero, in a row without a pivot
    yet) with the smallest (span, len(coeffs), nterms), the first such
    row on ties, divides the other live entries, and the left quotient
    multiples of its row are subtracted from theirs. The new entries have
    smaller span than the divisor, so the minimal span drops until one
    live entry is left; it becomes the pivot and its row moves up to the
    next echelon position.

    Only row swaps and adding left multiples of one row to another are
    used: the row space over the skew field of fractions is kept, and so
    is the Dieudonne class of a square matrix, up to the sign of the
    swaps.

    Returns (rank, labels, sign): rows[:rank] are the pivot rows, row i
    started as input row labels[i], and sign is the parity of the swaps.
    With full_rank, a caller that only needs to know whether every column
    has a pivot gets the partial result at the first column without one.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    labels = list(range(nrows))
    rank, sign = 0, 1
    for col in range(ncols):
        if rank == nrows:
            break
        while True:
            live = [i for i in range(rank, nrows) if not rows[i][col].is_zero]
            if not live:
                if full_rank:
                    return rank, labels, sign
                break
            if len(live) == 1:
                i = live[0]
                if i != rank:
                    rows[rank], rows[i] = rows[i], rows[rank]
                    labels[rank], labels[i] = labels[i], labels[rank]
                    sign = -sign
                rank += 1
                break
            piv = min(live, key=lambda i: _pivot_key(rows[i][col]))
            target = rows[piv][col]
            for i in live:
                if i != piv:
                    q, _ = skew_divmod(rows[i][col], target)
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[piv])]
    return rank, labels, sign


def dieudonne_det(m, g: TwistedGroup):
    """Dieudonne determinant class of a square matrix over QG, or None.

    None signals that the matrix is singular over the skew field of
    fractions. For A = I the determinant itself is returned: the
    numerator is det M / sign, the denominator is 1, and the sign is the
    parity of `_bareiss`'s row swaps, so sign * numerator = det M.

    Otherwise the class is returned with cleared rational-function
    denominators: a pair of group ring elements whose formal quotient,
    up to sign and a u-power, is the determinant in the abelianized
    units. Each pivot of `_eliminate` is d_i^{-1} N_i in integer data;
    the numerator is the twisted product of the N_i and the denominator
    the product of the d_i, both divided by the lex-leading coefficient
    of that product. The class P(numerator) - P(denominator) is left to
    `DetClass.polytope`.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise GroupRingError("determinant of a non-square matrix")
    k = g.k
    if n == 0:
        one = GroupRingElement.one(k)
        return DetClass(one, one, 0, 1)
    if _untwisted(g):
        rank, _, sign, piv, scale = _bareiss(m, g, full_rank=True)
        if rank < n:
            return None
        num = _element(k, (((e[:k], e[k]), c) for e, c in piv.items()), scale)
        return DetClass(num, GroupRingElement.one(k), 0, sign)
    rows = _matrix_to_skew(m, g)
    rank, _, sign = _eliminate(rows, full_rank=True)
    if rank < n:
        return None
    num, den = rows[0][0]._cleared()
    for i in range(1, n):
        nd, dd = rows[i][i]._cleared()
        num = num * nd
        den = den * dd
    num, den = _fraction_pair(num, den)
    return DetClass(num, den, 0, sign)


def matrix_polytope(m, g: TwistedGroup):
    """Polytope class of the Dieudonne determinant; None when singular."""
    det = dieudonne_det(m, g)
    if det is None:
        return None
    return det.polytope(g)


def rank_over_skew_field(m, g: TwistedGroup) -> int:
    """Row rank of a (not necessarily square) matrix over the skew field."""
    return _row_echelon(m, g)[0]
