"""Skew Laurent polynomials over rational functions, and row reduction.

Elements are finite sums sum_m c_m(x) u^m with rational-function
coefficients; the variable u does not commute with the coefficients but
conjugates them by the monomial substitution x^e -> x^(A e):

    u^m c(x) = c(x^(A^m)) u^m.

The coefficients form a (commutative) field, so the ring is left
Euclidean with respect to the degree span max(m) - min(m), and it embeds
in a skew field of fractions. Euclidean left row reduction (`_eliminate`)
is therefore enough to read off ranks over that skew field and
Dieudonne determinant classes of matrices over the rational group ring
of G = Z^k x| Z, without ever forming a fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grouprings import (
    GroupRingElement,
    GroupRingError,
    TwistedGroup,
    element_polytope,
    gr_mul,
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
        d = {m: RationalFunction.from_poly(LaurentPoly.from_dict(g.k, mono))
             for m, mono in by_m.items()}
        return SkewLaurentPoly.from_dict(g, d)

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

    def to_group_ring_pair(self) -> tuple[GroupRingElement, GroupRingElement]:
        """Write self as d^{-1} N with N in QG and d a fiber Laurent polynomial.

        Returns (N, d) as group ring elements, d supported in u-degree 0.
        """
        if self.is_zero:
            raise GroupRingError("zero element has no fraction form")
        k = self.group.k
        d_poly = LaurentPoly.const(k, 1)
        for _, c in self.coeffs:
            d_poly = poly_lcm(d_poly, c.den)
        terms: dict = {}
        for m, c in self.coeffs:
            cof = poly_divide_exact(d_poly, c.den)
            poly = c.num * cof
            for e, q in poly.terms:
                key = (e, m)
                terms[key] = terms.get(key, Fraction(0)) + q
        num = GroupRingElement.from_dict(k, terms)
        den = GroupRingElement.from_dict(k, {(e, 0): q for e, q in d_poly.terms})
        return num, den


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
    """Dieudonne determinant data: sign * numerator * denominator^{-1} * u^m."""

    numerator: GroupRingElement
    denominator: GroupRingElement
    unit_exponent: int
    sign: int
    # the polytope is summed factor-wise by dieudonne_det: the polytope of
    # a product is the sum of the factor polytopes, which avoids taking the
    # support hull of one very large product element
    cached_polytope: TranslationClass

    def polytope(self, g: TwistedGroup) -> TranslationClass:
        return self.cached_polytope


def _matrix_to_skew(m, g: TwistedGroup):
    return [[SkewLaurentPoly.from_group_ring(e, g) for e in row] for row in m]


def _pivot_key(p: SkewLaurentPoly):
    return (p.span(), len(p.coeffs), p.nterms())


def _eliminate(rows):
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
    fractions. Otherwise the class is returned with cleared
    rational-function denominators: a pair of group ring elements whose
    formal quotient, up to sign and a u-power, is the determinant in the
    abelianized units.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise GroupRingError("determinant of a non-square matrix")
    rows = _matrix_to_skew(m, g)
    rank, _, sign = _eliminate(rows)
    if rank < n:
        return None
    num = GroupRingElement.one(g.k)
    den = GroupRingElement.one(g.k)
    pol = element_polytope(GroupRingElement.one(g.k), g)
    for i in range(n):
        nd, dd = rows[i][i].to_group_ring_pair()
        num = gr_mul(num, nd, g)
        den = gr_mul(den, dd, g)
        pol = pol.add(element_polytope(nd, g)).sub(element_polytope(dd, g))
    return DetClass(num, den, 0, sign, pol)


def matrix_polytope(m, g: TwistedGroup):
    """Polytope class of the Dieudonne determinant; None when singular."""
    det = dieudonne_det(m, g)
    if det is None:
        return None
    return det.polytope(g)


def rank_over_skew_field(m, g: TwistedGroup) -> int:
    """Row rank of a (not necessarily square) matrix over the skew field."""
    return _eliminate(_matrix_to_skew(m, g))[0]
