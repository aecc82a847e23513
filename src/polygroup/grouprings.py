"""Rational group rings of the groups G = Z^k ⋊_A Z.

G is generated by the fiber lattice Z^k (written multiplicatively as
monomials x^v) and a stable letter u acting by the unimodular matrix A:
u x^v u^{-1} = x^{Av}, so u^m x^v = x^{A^m v} u^m. Ring elements are
finite rational combinations of the group elements x^v u^m.

The free abelianization of G has rank r = corank(A - I) + 1, and the
projection onto it is what polytopes of ring elements are measured in:
a nonzero element's polytope is the image of its exponent support hull
under that projection, taken up to translation.

The fiber coordinates suffice for the polytope computation even though
the abelianization kernel need not equal the fiber: the projection only
reads the abelianized grading of each group element, and x^v u^m
abelianizes according to (v, m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .intlinalg import (
    SmithDecomposition,
    identity_matrix,
    int_det,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    snf,
)
from .lattice import AffineLatticeMap, hull
from .vpolytope import TranslationClass, VirtualPolytope

__all__ = [
    "TwistedGroup",
    "GroupRingElement",
    "SmithDecomposition",
    "snf",
    "h1_projection",
    "gr_mul",
    "element_polytope",
]


class GroupRingError(ValueError):
    pass


@dataclass(frozen=True)
class TwistedGroup:
    k: int
    twist: tuple[tuple[int, ...], ...]
    _power_cache: dict = field(default_factory=dict, compare=False, hash=False, repr=False)
    _h1_cache: list = field(default_factory=list, compare=False, hash=False, repr=False)

    @staticmethod
    def make(k: int, twist) -> "TwistedGroup":
        rows = tuple(tuple(int(x) for x in row) for row in twist)
        if len(rows) != k or any(len(r) != k for r in rows):
            raise GroupRingError("twist matrix must be k x k")
        if k > 0 and int_det([list(r) for r in rows]) not in (1, -1):
            raise GroupRingError("twist matrix must be unimodular")
        return TwistedGroup(k, rows)

    def twist_power(self, m: int) -> list[list[int]]:
        """A^m as a list matrix, any integer m, by binary powering of A
        or A^{-1}; each requested power is cached."""
        if m in self._power_cache:
            return self._power_cache[m]
        base = [list(r) for r in self.twist]
        if m < 0:
            base = inverse_unimodular(base)
        result = identity_matrix(self.k)
        e = abs(m)
        while e:
            if e & 1:
                result = mat_mul(result, base)
            e >>= 1
            if e:
                base = mat_mul(base, base)
        self._power_cache[m] = result
        return result

    def act(self, m: int, v) -> tuple[int, ...]:
        """The exponent action: u^m x^v u^{-m} = x^{A^m v}."""
        return tuple(mat_vec(self.twist_power(m), list(v)))


def h1_projection(g: TwistedGroup) -> AffineLatticeMap:
    """Projection Z^{k+1} -> Z^r onto the free abelianized exponent lattice.

    The exponent of x^v u^m is (v, m). Modulo commutators the fiber part
    is well defined only in coker(A - I); the free part of that cokernel
    is read off from the Smith form of A - I, and the u-exponent always
    survives as the last coordinate. Computed once per group.
    """
    if not g._h1_cache:
        k, rows = g.k, []
        if k:
            dec = snf([[g.twist[i][j] - (1 if i == j else 0) for j in range(k)]
                       for i in range(k)])
            diag = dec.diagonal
            rows = [tuple(dec.U[i]) + (0,) for i in range(k) if i >= len(diag) or diag[i] == 0]
        rows.append((0,) * k + (1,))
        g._h1_cache.append(AffineLatticeMap(tuple(rows), (0,) * len(rows)))
    return g._h1_cache[0]


def h1_rank(g: TwistedGroup) -> int:
    return h1_projection(g).target_rank


@dataclass(frozen=True)
class GroupRingElement:
    """Finite support function (v, m) -> nonzero rational coefficient."""

    k: int
    terms: tuple[tuple[tuple[tuple[int, ...], int], Fraction], ...]

    @staticmethod
    def from_dict(k: int, d: dict) -> "GroupRingElement":
        items = []
        for (v, m), c in d.items():
            c = Fraction(c)
            if c == 0:
                continue
            v = tuple(int(x) for x in v)
            if len(v) != k:
                raise GroupRingError("fiber exponent of wrong length")
            items.append(((v, int(m)), c))
        return GroupRingElement(k, tuple(sorted(items)))

    @staticmethod
    def zero(k: int) -> "GroupRingElement":
        return GroupRingElement(k, ())

    @staticmethod
    def monomial(k: int, v, m: int, c=1) -> "GroupRingElement":
        return GroupRingElement.from_dict(k, {(tuple(v), m): Fraction(c)})

    @staticmethod
    def one(k: int) -> "GroupRingElement":
        return GroupRingElement.monomial(k, (0,) * k, 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict:
        return dict(self.terms)

    def __add__(self, other):
        d = self.as_dict()
        for key, c in other.terms:
            nc = d.get(key, Fraction(0)) + c
            if nc == 0:
                d.pop(key, None)
            else:
                d[key] = nc
        return GroupRingElement(self.k, tuple(sorted(d.items())))

    def __neg__(self):
        return GroupRingElement(self.k, tuple((key, -c) for key, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "GroupRingElement":
        c = Fraction(c)
        if c == 0:
            return GroupRingElement.zero(self.k)
        return GroupRingElement(self.k, tuple((key, c * cc) for key, cc in self.terms))

    def support(self) -> list[tuple[int, ...]]:
        """Exponent vectors (v, m) in Z^{k+1}."""
        return [v + (m,) for (v, m), _ in self.terms]


def gr_mul(a: GroupRingElement, b: GroupRingElement, g: TwistedGroup) -> GroupRingElement:
    """Product in QG, using u^m x^w = x^{A^m w} u^m."""
    if a.k != g.k or b.k != g.k:
        raise GroupRingError("group mismatch in multiplication")
    d = {}
    for (v, m), c1 in a.terms:
        for (w, n), c2 in b.terms:
            tw = g.act(m, w)
            key = (tuple(x + y for x, y in zip(v, tw)), m + n)
            nc = d.get(key, Fraction(0)) + c1 * c2
            if nc == 0:
                d.pop(key, None)
            else:
                d[key] = nc
    return GroupRingElement(g.k, tuple(sorted(d.items())))


def element_polytope(a: GroupRingElement, g: TwistedGroup) -> TranslationClass:
    """P(a): translation class of a's support hull in the H1 lattice.

    The support is projected first and hulled once, since the image of a
    hull is the hull of the image. `DetClass.polytope` applies P to a
    determinant as P(numerator) - P(denominator).
    """
    if a.k != g.k:
        raise GroupRingError("group mismatch")
    if a.is_zero:
        raise GroupRingError("polytope of zero")
    img = hull(list(map(h1_projection(g).apply, a.support())))
    return TranslationClass.of(VirtualPolytope.from_polytope(img))
